// Lightweight span tracing for the input -> render -> composite -> compress
// -> send -> display pipeline. Spans are fixed-size event records written
// into per-lane ring buffers (one lane per thread — vmp rank, hub relay,
// display client — or an explicitly named lane for virtual-time traces from
// the discrete-event simulator). The exporter emits Chrome trace_event JSON
// loadable in chrome://tracing or Perfetto.
//
// Tracing is off by default; a disabled TVVIZ_SPAN costs one relaxed atomic
// load. Recording a span takes one uncontended mutex acquisition on the
// owning lane, cheap at per-stage (not per-pixel) granularity.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace tvviz::obs {

/// One completed span. `name` must point at storage that outlives the trace
/// (string literals at the call sites).
struct TraceEvent {
  const char* name = "";
  double start_s = 0.0;  ///< Seconds since the process trace epoch.
  double end_s = 0.0;
  int step = -1;   ///< Time step the span worked on (-1 = n/a).
  int group = -1;  ///< Processor group (-1 = n/a).
};

/// Globally enable/disable span recording. Counters are always on; tracing
/// is opt-in (e.g. behind a --trace-out flag).
void enable_tracing(bool on) noexcept;
bool tracing_enabled() noexcept;

/// Seconds since the process trace epoch (monotonic).
double trace_now_seconds() noexcept;

/// Point this thread's spans at the lane called `name`, creating it on
/// first use. Lanes are keyed by name, so ranks of successive sessions
/// share one lane each ("rank 0", "rank 1", ...).
void set_thread_lane(const std::string& name);

/// Id of the named lane (created on demand): the handle for explicit-time
/// recording, e.g. virtual timestamps from the pipeline simulator.
int lane_id(const std::string& name);

/// Record a completed span with explicit timestamps on an explicit lane.
/// No-op while tracing is disabled.
void record_span(int lane, const char* name, double start_s, double end_s,
                 int step = -1, int group = -1);

/// RAII span on the current thread's lane: captures the start time at
/// construction and records the event at end()/destruction. Inert when
/// tracing was disabled at construction.
class Span {
 public:
  explicit Span(const char* name, int step = -1, int group = -1);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Record now instead of at scope exit (idempotent).
  void end();

 private:
  const char* name_;
  double start_s_;
  int step_, group_;
  bool active_;
};

/// One lane's recorded events (ring-buffer order, newest kept on overflow).
struct LaneSnapshot {
  int id = 0;
  std::string name;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;  ///< Events overwritten by ring wrap-around.
};

/// Copy out every lane's events (safe while recording continues).
std::vector<LaneSnapshot> snapshot_trace();

/// Emit the whole trace as Chrome trace_event JSON: one tid per lane with a
/// thread_name metadata record, spans as complete ("X") events carrying
/// step/group args, timestamps in microseconds.
void write_chrome_trace(std::ostream& out);

/// write_chrome_trace to `path`; false (with no throw) if the file cannot
/// be opened.
bool write_chrome_trace_file(const std::string& path);

/// Drop all recorded events and drop counts. Lane registrations survive.
void clear_trace();

}  // namespace tvviz::obs

#define TVVIZ_SPAN_CONCAT2(a, b) a##b
#define TVVIZ_SPAN_CONCAT(a, b) TVVIZ_SPAN_CONCAT2(a, b)
/// TVVIZ_SPAN("render", step, group): RAII span for the enclosing scope.
#define TVVIZ_SPAN(...) \
  ::tvviz::obs::Span TVVIZ_SPAN_CONCAT(tvviz_span_, __LINE__)(__VA_ARGS__)
