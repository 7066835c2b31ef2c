// Ablation: frame delivery under injected connection loss. A paced
// in-process renderer streams frames through a real HubTcpServer to one
// auto-reconnect TCP viewer while a seeded FaultPlan kills connections with
// a configurable per-send probability. Each loss rate is one run; rate 0 is
// the undisturbed baseline the others are compared against.
//
// Metrics per run: mean per-frame inter-arrival delay at the viewer, the
// number of recoveries (net.retry.reconnects), and the recovery latency —
// for every frame gap during which a reconnect happened, the gap minus the
// nominal pacing period (the time the fault actually cost). The claim
// under test: recovery is bounded by the retry backoff, not by a human
// noticing, so even at 2% per-send loss the stream completes with mean
// recovery latencies in the tens of milliseconds.
//
//   ./ablation_faults [--steps 60] [--period-ms 2] [--bytes 16384]
//                     [--seed 1] [--json BENCH_faults.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "fault/fault.hpp"
#include "hub/hub.hpp"
#include "hub/tcp_hub.hpp"
#include "net/protocol.hpp"
#include "obs/counters.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

namespace {

struct Run {
  double drop_rate = 0.0;
  int steps_delivered = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t faults_injected = 0;
  double inter_frame_ms = 0.0;   ///< Mean gap between newly seen steps.
  double max_gap_ms = 0.0;       ///< Worst single gap.
  double recovery_ms = 0.0;      ///< Mean (gap - period) over reconnect gaps.
  bool complete = false;
};

Run run_rate(double drop_rate, std::uint64_t seed, int steps, double period_s,
             std::size_t frame_bytes) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.send_drop_rate = drop_rate;
  fault::ScopedFaultPlan scoped(plan);

  static obs::Counter& reconnects_ctr = obs::counter("net.retry.reconnects");
  const auto reconnects_before = reconnects_ctr.value();

  hub::HubConfig cfg;
  cfg.cache_steps = static_cast<std::size_t>(steps);  // full resume window
  cfg.client_queue_frames = static_cast<std::size_t>(steps);
  hub::HubTcpServer server(0, cfg);

  hub::HubTcpViewer::Options options;
  options.client_id = "bench";
  options.auto_reconnect = true;
  options.retry.max_attempts = 10;
  options.retry.base_delay_ms = 2.0;
  options.retry.max_delay_ms = 50.0;
  options.retry.io_timeout_ms = 2000.0;
  options.queue_frames = static_cast<std::uint32_t>(steps);
  hub::HubTcpViewer viewer(server.port(), options);

  // Paced producer on its own thread so faults hit frames in flight.
  std::thread producer([&] {
    auto renderer = server.hub().connect_renderer();
    for (int s = 0; s < steps; ++s) {
      net::NetMessage msg;
      msg.type = net::MsgType::kFrame;
      msg.frame_index = s;
      msg.codec = "raw";
      msg.payload = util::Bytes(frame_bytes, static_cast<std::uint8_t>(s));
      renderer->send(std::move(msg));
      std::this_thread::sleep_for(std::chrono::duration<double>(period_s));
    }
  });

  Run run;
  run.drop_rate = drop_rate;
  std::set<int> seen;
  util::WallTimer clock;
  double last_arrival = -1.0;
  double gap_sum = 0.0, recovery_sum = 0.0;
  int gaps = 0, recoveries = 0;
  auto reconnects_at_last = reconnects_ctr.value();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (seen.size() < static_cast<std::size_t>(steps) &&
         std::chrono::steady_clock::now() < deadline) {
    const auto msg = viewer.next();
    if (!msg) break;  // reconnect attempts exhausted
    if (msg->type != net::MsgType::kFrame) continue;
    viewer.ack(msg->frame_index);
    if (!seen.insert(msg->frame_index).second) continue;  // resume replay
    const double now = clock.seconds();
    if (last_arrival >= 0.0) {
      const double gap = now - last_arrival;
      gap_sum += gap;
      ++gaps;
      run.max_gap_ms = std::max(run.max_gap_ms, gap * 1e3);
      const auto reconnects_now = reconnects_ctr.value();
      if (reconnects_now > reconnects_at_last) {
        // This gap contained at least one recovery; what it cost beyond
        // the nominal pacing period is the recovery latency.
        recovery_sum += std::max(0.0, gap - period_s);
        ++recoveries;
        reconnects_at_last = reconnects_now;
      }
    }
    last_arrival = now;
  }
  producer.join();
  viewer.close();
  server.shutdown();

  run.steps_delivered = static_cast<int>(seen.size());
  run.complete = run.steps_delivered == steps;
  run.reconnects = reconnects_ctr.value() - reconnects_before;
  run.faults_injected = scoped.injector().events().size();
  if (gaps > 0) run.inter_frame_ms = gap_sum / gaps * 1e3;
  if (recoveries > 0) run.recovery_ms = recovery_sum / recoveries * 1e3;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int steps = static_cast<int>(flags.get_int("steps", 60));
  const double period_s = flags.get_double("period-ms", 2.0) / 1e3;
  const auto frame_bytes =
      static_cast<std::size_t>(flags.get_int("bytes", 16384));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string json_path = flags.get("json", "");
  bench::init_observability(flags);
  bench::reject_unused(flags);

  bench::print_header("Ablation: recovery under injected connection loss",
                      "auto-reconnect viewer vs per-send drop probability");
  std::printf("steps=%d  payload=%zu bytes  period=%.1f ms  seed=%llu\n\n",
              steps, frame_bytes, period_s * 1e3,
              static_cast<unsigned long long>(seed));

  std::vector<Run> runs;
  for (const double rate : {0.0, 0.005, 0.02})
    runs.push_back(run_rate(rate, seed, steps, period_s, frame_bytes));

  std::printf("%-10s %8s %10s %8s %12s %12s %12s %9s\n", "drop-rate", "steps",
              "reconnects", "faults", "inter-frame", "max-gap", "recovery",
              "complete");
  for (const auto& r : runs)
    std::printf("%-10.3f %8d %10llu %8llu %9.2f ms %9.2f ms %9.2f ms %9s\n",
                r.drop_rate, r.steps_delivered,
                static_cast<unsigned long long>(r.reconnects),
                static_cast<unsigned long long>(r.faults_injected),
                r.inter_frame_ms, r.max_gap_ms, r.recovery_ms,
                r.complete ? "yes" : "NO");

  bool all_complete = true;
  for (const auto& r : runs) all_complete = all_complete && r.complete;
  std::printf("\nall rates delivered every step: %s\n",
              all_complete ? "yes" : "NO");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_faults\",\n"
                 "  \"steps\": %d,\n  \"payload_bytes\": %zu,\n"
                 "  \"period_ms\": %.3f,\n  \"seed\": %llu,\n  \"runs\": [\n",
                 steps, frame_bytes, period_s * 1e3,
                 static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      std::fprintf(
          f,
          "    {\"drop_rate\": %.4f, \"steps_delivered\": %d,"
          " \"reconnects\": %llu, \"faults_injected\": %llu,"
          " \"inter_frame_ms\": %.4f, \"max_gap_ms\": %.4f,"
          " \"recovery_ms\": %.4f, \"complete\": %s}%s\n",
          r.drop_rate, r.steps_delivered,
          static_cast<unsigned long long>(r.reconnects),
          static_cast<unsigned long long>(r.faults_injected),
          r.inter_frame_ms, r.max_gap_ms, r.recovery_ms,
          r.complete ? "true" : "false", i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  bench::finish_observability();
  return all_complete ? 0 : 1;
}
