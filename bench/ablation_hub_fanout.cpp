// Ablation: hub fan-out scaling. A paced producer streams compressed
// frames through the FrameHub to 1..8 clients over per-client link models,
// measuring each client's frame rate and inter-frame delay. The claims
// under test:
//
//   * fan-out is by reference — the cache insert counter equals the step
//     count no matter how many clients are attached (encoded once);
//   * a 10x-slowed client degrades only its own frame rate: every other
//     client stays within 10% of the single-client baseline, and the slow
//     client's loss shows up as counted step skips, not as stalls.
//
// The same workload runs on either of the hub's client transports
// (--transport): `inproc` attaches ClientPorts directly (the original
// form), `tcp-epoll` puts a real HubTcpServer (DESIGN.md §14) in front and
// attaches HubTcpViewer sockets. Over TCP the slow client is simulated by
// stalling its read loop for the modeled link time (its identity and skip
// accounting still live server-side).
//
//   ./ablation_hub_fanout [--steps 60] [--period-ms 4] [--bytes 16384]
//                         [--transport inproc|tcp-epoll]
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "hub/hub.hpp"
#include "hub/tcp_hub.hpp"
#include "obs/counters.hpp"
#include "util/flags.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"

using namespace tvviz;

namespace {

enum class Transport { kInproc, kTcpEpoll };

struct ClientRun {
  std::string id;
  int frames = 0;
  double fps = 0.0;
  double inter_frame_s = 0.0;
  std::uint64_t skipped = 0;
};

struct RunResult {
  std::vector<ClientRun> clients;
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_hits = 0;
};

/// One fan-out run: `clients` viewers, the last throttled by `slow_link`
/// when given, a producer pacing `steps` frames `period_s` apart.
RunResult run_fanout(Transport transport, int clients, int steps,
                     double period_s, std::size_t frame_bytes,
                     const net::LinkModel* slow_link) {
  obs::reset_counters();
  hub::HubConfig cfg;
  cfg.cache_steps = 16;
  cfg.client_queue_frames = 6;

  std::unique_ptr<hub::FrameHub> local;
  std::unique_ptr<hub::HubTcpServer> server;
  if (transport == Transport::kInproc)
    local = std::make_unique<hub::FrameHub>(cfg);
  else
    server = std::make_unique<hub::HubTcpServer>(0, cfg);
  hub::FrameHub& hub = local ? *local : server->hub();
  auto renderer = hub.connect_renderer();

  RunResult result;
  std::vector<std::thread> threads;
  util::Mutex result_mutex;
  for (int k = 0; k < clients; ++k) {
    const bool slow = slow_link && k == clients - 1;
    if (transport == Transport::kInproc) {
      hub::ClientOptions options;
      options.id = std::string("c").append(std::to_string(k));
      if (slow) {
        options.link = *slow_link;
        options.link_time_scale = 1.0;
      }
      auto port = hub.connect_client(options);
      threads.emplace_back([port, &result, &result_mutex] {
        ClientRun run;
        run.id = port->id();
        util::WallTimer clock;
        double first = -1.0, last = -1.0;
        while (auto msg = port->next()) {
          if (msg->type == net::MsgType::kShutdown) break;
          port->ack(msg->frame_index);
          last = clock.seconds();
          if (first < 0.0) first = last;
          ++run.frames;
        }
        if (run.frames > 1) {
          run.inter_frame_s = (last - first) / (run.frames - 1);
          run.fps = 1.0 / run.inter_frame_s;
        }
        util::LockGuard lock(result_mutex);
        result.clients.push_back(std::move(run));
      });
    } else {
      // Real socket path: the slow link becomes a read-loop stall of the
      // modeled transfer time (backpressure arrives via the socket, the
      // skip accounting stays server-side exactly as in-process).
      const double read_stall_s =
          slow ? slow_link->transfer_seconds(frame_bytes) : 0.0;
      const int port = server->port();
      threads.emplace_back([port, k, read_stall_s, &result, &result_mutex] {
        hub::HubTcpViewer::Options options;
        options.client_id = std::string("c").append(std::to_string(k));
        hub::HubTcpViewer viewer(port, options);
        ClientRun run;
        run.id = viewer.assigned_id();
        util::WallTimer clock;
        double first = -1.0, last = -1.0;
        while (auto msg = viewer.next()) {
          if (msg->type == net::MsgType::kShutdown) break;
          if (msg->type != net::MsgType::kFrame) continue;
          viewer.ack(msg->frame_index);
          if (read_stall_s > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(read_stall_s));
          last = clock.seconds();
          if (first < 0.0) first = last;
          ++run.frames;
        }
        if (run.frames > 1) {
          run.inter_frame_s = (last - first) / (run.frames - 1);
          run.fps = 1.0 / run.inter_frame_s;
        }
        util::LockGuard lock(result_mutex);
        result.clients.push_back(std::move(run));
      });
    }
  }
  if (server) {
    // Streaming before every handshake lands would hand early viewers a
    // head start; wait until the hub has filed all of them.
    util::WallTimer settle;
    while (hub.connected_clients() < static_cast<std::size_t>(clients) &&
           settle.seconds() < 10.0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Paced producer: one message per step, the payload "encoded" exactly
  // once here and never again downstream.
  const util::Bytes payload(frame_bytes, 0x5a);
  for (int s = 0; s < steps; ++s) {
    net::NetMessage msg;
    msg.type = net::MsgType::kFrame;
    msg.frame_index = s;
    msg.codec = "raw";
    msg.payload = payload;
    renderer->send(std::move(msg));
    std::this_thread::sleep_for(std::chrono::duration<double>(period_s));
  }
  net::NetMessage bye;
  bye.type = net::MsgType::kShutdown;
  renderer->send(std::move(bye));

  for (auto& t : threads) t.join();
  if (server)
    server->shutdown();
  else
    hub.shutdown();
  for (const auto& s : hub.client_stats())
    for (auto& run : result.clients)
      if (run.id == s.id) run.skipped = s.steps_skipped;
  result.cache_inserts = obs::counter("net.hub.cache.inserts").value();
  result.cache_hits = obs::counter("net.hub.cache.hits").value();
  // Deterministic report order (threads finish in arbitrary order).
  std::sort(result.clients.begin(), result.clients.end(),
            [](const ClientRun& a, const ClientRun& b) { return a.id < b.id; });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int steps = static_cast<int>(flags.get_int("steps", 60));
  const double period_s = flags.get_double("period-ms", 4.0) / 1e3;
  const auto frame_bytes =
      static_cast<std::size_t>(flags.get_int("bytes", 16384));
  const std::string transport_name = flags.get("transport", "inproc");
  bench::reject_unused(flags);
  Transport transport;
  if (transport_name == "inproc") {
    transport = Transport::kInproc;
  } else if (transport_name == "tcp-epoll") {
    transport = Transport::kTcpEpoll;
  } else {
    std::fprintf(stderr, "unknown --transport %s (inproc|tcp-epoll)\n",
                 transport_name.c_str());
    return 1;
  }
  std::printf("transport: %s\n", transport_name.c_str());

  // The slow client's link makes each delivery cost ~10 producer periods.
  net::LinkModel slow;
  slow.name = "slow-wan";
  slow.latency_s = 10.0 * period_s;
  slow.bandwidth_bytes_per_s = 1e12;

  const auto baseline =
      run_fanout(transport, 1, steps, period_s, frame_bytes, nullptr);
  const double baseline_fps = baseline.clients[0].fps;
  std::printf("baseline (1 client): %.1f fps, inter-frame %.2f ms\n\n",
              baseline_fps, baseline.clients[0].inter_frame_s * 1e3);

  std::printf("%-8s %-10s %8s %10s %12s %8s | %8s %8s\n", "clients", "link",
              "frames", "fps", "inter-frame", "skipped", "inserts", "hits");
  for (const bool inject_slow : {false, true}) {
    for (const int n : {2, 4, 8}) {
      const auto r = run_fanout(transport, n, steps, period_s, frame_bytes,
                                inject_slow ? &slow : nullptr);
      for (std::size_t k = 0; k < r.clients.size(); ++k) {
        const auto& c = r.clients[k];
        const bool slow_one =
            inject_slow &&
            c.id == std::string("c").append(std::to_string(n - 1));
        std::printf("%-8s %-10s %8d %10.1f %10.2f ms %8llu | %8llu %8llu\n",
                    k == 0 ? std::to_string(n).c_str() : "",
                    slow_one ? "10x-slow" : "fast", c.frames, c.fps,
                    c.inter_frame_s * 1e3,
                    static_cast<unsigned long long>(c.skipped),
                    k == 0 ? static_cast<unsigned long long>(r.cache_inserts)
                           : 0ull,
                    k == 0 ? static_cast<unsigned long long>(r.cache_hits)
                           : 0ull);
        // The isolation claim: every unthrottled client within 10% of the
        // single-client baseline even while the slow one lags.
        if (!slow_one && c.fps < 0.9 * baseline_fps)
          std::printf("  !! %s fell below 90%% of baseline (%.1f < %.1f)\n",
                      c.id.c_str(), c.fps, 0.9 * baseline_fps);
      }
      if (r.cache_inserts != static_cast<std::uint64_t>(steps))
        std::printf("  !! cache inserts %llu != steps %d (re-encode?)\n",
                    static_cast<unsigned long long>(r.cache_inserts), steps);
    }
    if (!inject_slow)
      std::printf("---- with the last client on a 10x-slow link ----\n");
  }
  std::printf(
      "\nencode-once check: inserts == steps on every run; hits count the\n"
      "extra reference-counted deliveries (clients-1 per step + resumes).\n");
  return 0;
}
