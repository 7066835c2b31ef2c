// FIFO k-server resource for discrete-event models: disks, network links,
// display clients. Jobs queue in arrival order; statistics track utilization
// and waiting so benches can report where the pipeline bottleneck sits.
#pragma once

#include <deque>
#include <functional>
#include <string>

#include "sevt/simulator.hpp"

namespace tvviz::sevt {

class Resource {
 public:
  Resource(Simulator& sim, int servers, std::string name)
      : sim_(sim), servers_(servers), name_(std::move(name)) {
    if (servers <= 0) throw std::invalid_argument("sevt: servers must be > 0");
  }

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Request service of duration `dur`; `done` runs at completion time.
  /// Service starts immediately if a server is free, else the job waits FIFO.
  void use(Time dur, std::function<void()> done = {}) {
    if (busy_ < servers_) {
      start(dur, std::move(done));
    } else {
      waiting_.push_back(Job{sim_.now(), dur, std::move(done)});
    }
  }

  const std::string& name() const noexcept { return name_; }
  int busy() const noexcept { return busy_; }
  std::uint64_t jobs_served() const noexcept { return served_; }
  Time total_busy_time() const noexcept { return busy_time_; }
  Time total_wait_time() const noexcept { return wait_time_; }

  /// Fraction of `horizon` the servers were busy, averaged over servers.
  double utilization(Time horizon) const noexcept {
    return horizon > 0 ? busy_time_ / (horizon * servers_) : 0.0;
  }

 private:
  struct Job {
    Time arrived;
    Time dur;
    std::function<void()> done;
  };

  void start(Time dur, std::function<void()> done) {
    ++busy_;
    busy_time_ += dur;
    ++served_;
    sim_.after(dur, [this, done = std::move(done)] {
      --busy_;
      if (!waiting_.empty()) {
        Job job = std::move(waiting_.front());
        waiting_.pop_front();
        wait_time_ += sim_.now() - job.arrived;
        start(job.dur, std::move(job.done));
      }
      if (done) done();
    });
  }

  Simulator& sim_;
  int servers_;
  std::string name_;
  int busy_ = 0;
  std::deque<Job> waiting_;
  std::uint64_t served_ = 0;
  Time busy_time_ = 0.0;
  Time wait_time_ = 0.0;
};

}  // namespace tvviz::sevt
