// Process-wide registry of named monotonic counters and gauges: bytes
// compressed, frames relayed, mailbox depth high-water, and so on. Cheap
// enough for hot paths — increments are relaxed atomics with no locks; the
// registry mutex is only taken to resolve a name to its counter, which call
// sites do once (function-local static reference).
//
//   static obs::Counter& steps = obs::counter("net.hub.steps_relayed");
//   steps.add(1);
//
// Naming scheme: dot-separated, "<subsystem>.<object>.<quantity>", with
// units as suffix where not obvious ("_us", "_bytes"). Counters only ever
// increase; gauges carry a level plus a high-water mark.
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace tvviz::obs {

/// Monotonic counter. All operations are relaxed atomics.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Level gauge with a high-water mark (e.g. queue depths).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    update_max(v);
  }
  /// Raise the high-water mark without touching the level.
  void update_max(std::int64_t v) noexcept {
    std::int64_t cur = hw_.load(std::memory_order_relaxed);
    while (v > cur &&
           !hw_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  std::int64_t high_water() const noexcept {
    return hw_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    v_.store(0, std::memory_order_relaxed);
    hw_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> hw_{0};
};

/// Find-or-create by name. The returned reference is stable for the life of
/// the process; resolve once and cache at hot call sites.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);

struct CounterSample {
  std::string name;
  bool is_gauge = false;
  std::uint64_t value = 0;       ///< Counter value (counters).
  std::int64_t level = 0;        ///< Current level (gauges).
  std::int64_t high_water = 0;   ///< High-water mark (gauges).
};

/// Snapshot of every registered counter and gauge, sorted by name.
std::vector<CounterSample> counters_snapshot();

/// {"counters":{name:value,...},"gauges":{name:{"value":v,"high_water":h}}}
void write_counters_json(std::ostream& out);
bool write_counters_json_file(const std::string& path);

/// Zero every counter and gauge (benchmark isolation, tests).
void reset_counters();

}  // namespace tvviz::obs
