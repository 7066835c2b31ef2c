// Ablation: the zero-copy frame path. A paced producer streams frames
// through the FrameHub to 1 and 8 clients; every delivery then passes a
// wire-emulation stage so the two send/receive generations can be compared
// on the same workload:
//
//   seed: one flat serialize_message buffer per delivery (payload copied
//         in) and a deserialize_message receive (payload copied back out)
//         — the pre-pool path, two payload-sized copies per delivery;
//   zero: serialize_header + a payload view handed to scatter-gather send
//         (no user-space payload copy), receive into a pooled buffer
//         parsed by deserialize_frame (payload aliases the buffer).
//
// Metrics per run: payload bytes copied (util.shared_bytes counters),
// buffer-pool hits/misses (allocations per frame at steady state), and the
// per-client inter-frame delay. The claims under test: at 8 clients the
// zero path copies at least 2x fewer payload bytes than the seed path, and
// at 1 client its inter-frame delay is no worse.
//
//   ./ablation_zero_copy [--steps 40] [--period-ms 2] [--bytes 65536]
//                        [--json BENCH_zero_copy.json]
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "hub/hub.hpp"
#include "net/protocol.hpp"
#include "obs/counters.hpp"
#include "util/flags.hpp"
#include "util/mutex.hpp"
#include "util/shared_bytes.hpp"
#include "util/timer.hpp"

using namespace tvviz;

namespace {

/// Seed-generation wire emulation: flat frame out, payload copied back in.
void wire_seed(const net::NetMessage& msg) {
  net::NetMessage wire = msg;
  // The seed NetMessage carried util::Bytes, so staging it for the socket
  // duplicated the payload; copy_of stands in for that serialize memcpy.
  wire.payload = util::SharedBytes::copy_of(msg.payload);
  const util::Bytes frame = net::serialize_message(wire);
  const net::NetMessage back = net::deserialize_message(frame);
  if (back.payload.size() != msg.payload.size()) std::abort();
}

/// Zero-copy wire emulation: header bytes + payload view on the send side,
/// pooled buffer + deserialize_frame view on the receive side. The memcpy
/// into `body` stands in for the socket transfer itself, which both
/// generations pay identically.
void wire_zero(const net::NetMessage& msg, util::BufferPool& pool) {
  const util::Bytes header = net::serialize_header(msg);
  util::Bytes body = pool.acquire(header.size() + msg.payload.size());
  std::memcpy(body.data(), header.data(), header.size());
  if (!msg.payload.empty())
    std::memcpy(body.data() + header.size(), msg.payload.data(),
                msg.payload.size());
  const net::NetMessage back = net::deserialize_frame(
      util::SharedBytes::adopt_pooled(std::move(body), pool));
  if (back.payload.size() != msg.payload.size()) std::abort();
}

struct Run {
  std::string path;
  int clients = 0;
  int frames = 0;               ///< Delivered across all clients.
  double inter_frame_ms = 0.0;  ///< Mean per-client inter-frame delay.
  std::uint64_t bytes_copied = 0;
  std::uint64_t copies = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

Run run_path(const std::string& path, int clients, int steps, double period_s,
             std::size_t frame_bytes) {
  obs::reset_counters();
  hub::HubConfig cfg;
  cfg.client_queue_frames = 64;  // roomy: measuring copies, not drops
  hub::FrameHub hub(cfg);
  auto renderer = hub.connect_renderer();

  Run run;
  run.path = path;
  run.clients = clients;
  std::vector<std::thread> threads;
  util::Mutex mutex;
  double delay_sum = 0.0;
  int delay_count = 0;
  const bool zero = path == "zero";
  for (int k = 0; k < clients; ++k) {
    auto port = hub.connect_client();
    threads.emplace_back([port, zero, &run, &mutex, &delay_sum, &delay_count] {
      util::BufferPool pool;  // per-client, like a per-connection receiver
      util::WallTimer clock;
      double first = -1.0, last = -1.0;
      int frames = 0;
      while (auto msg = port->next()) {
        if (msg->type == net::MsgType::kShutdown) break;
        if (zero)
          wire_zero(*msg, pool);
        else
          wire_seed(*msg);
        last = clock.seconds();
        if (first < 0.0) first = last;
        ++frames;
      }
      util::LockGuard lock(mutex);
      run.frames += frames;
      if (frames > 1) {
        delay_sum += (last - first) / (frames - 1);
        ++delay_count;
      }
    });
  }

  // Paced producer: the payload buffer is created once per step and shared
  // by reference into the hub, the cache, and every client queue.
  for (int s = 0; s < steps; ++s) {
    net::NetMessage msg;
    msg.type = net::MsgType::kFrame;
    msg.frame_index = s;
    msg.codec = "raw";
    msg.payload = util::Bytes(frame_bytes, static_cast<std::uint8_t>(s));
    renderer->send(std::move(msg));
    std::this_thread::sleep_for(std::chrono::duration<double>(period_s));
  }
  net::NetMessage bye;
  bye.type = net::MsgType::kShutdown;
  renderer->send(std::move(bye));
  for (auto& t : threads) t.join();
  hub.shutdown();

  if (delay_count > 0) run.inter_frame_ms = delay_sum / delay_count * 1e3;
  run.bytes_copied = obs::counter("util.shared_bytes.copy_bytes").value();
  run.copies = obs::counter("util.shared_bytes.copies").value();
  run.pool_hits = obs::counter("util.pool.hits").value();
  run.pool_misses = obs::counter("util.pool.misses").value();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int steps = static_cast<int>(flags.get_int("steps", 40));
  const double period_s = flags.get_double("period-ms", 2.0) / 1e3;
  const auto frame_bytes =
      static_cast<std::size_t>(flags.get_int("bytes", 65536));
  const std::string json_path = flags.get("json", "");
  bench::init_observability(flags);
  bench::reject_unused(flags);

  bench::print_header("Ablation: zero-copy frame path",
                      "seed (copying) vs pooled scatter-gather wire path");
  std::printf("steps=%d  payload=%zu bytes  period=%.1f ms\n\n", steps,
              frame_bytes, period_s * 1e3);

  std::vector<Run> runs;
  for (const int n : {1, 8})
    for (const char* path : {"seed", "zero"})
      runs.push_back(run_path(path, n, steps, period_s, frame_bytes));

  std::printf("%-6s %8s %8s %14s %8s %12s %8s %8s\n", "path", "clients",
              "frames", "bytes-copied", "copies", "inter-frame", "hits",
              "misses");
  for (const auto& r : runs)
    std::printf("%-6s %8d %8d %14llu %8llu %9.2f ms %8llu %8llu\n",
                r.path.c_str(), r.clients, r.frames,
                static_cast<unsigned long long>(r.bytes_copied),
                static_cast<unsigned long long>(r.copies), r.inter_frame_ms,
                static_cast<unsigned long long>(r.pool_hits),
                static_cast<unsigned long long>(r.pool_misses));

  const auto find = [&](const std::string& path, int clients) -> const Run& {
    for (const auto& r : runs)
      if (r.path == path && r.clients == clients) return r;
    std::abort();
  };
  const Run& seed8 = find("seed", 8);
  const Run& zero8 = find("zero", 8);
  const Run& seed1 = find("seed", 1);
  const Run& zero1 = find("zero", 1);
  const double reduction =
      zero8.bytes_copied > 0 ? static_cast<double>(seed8.bytes_copied) /
                                   static_cast<double>(zero8.bytes_copied)
                             : 1e9;  // zero copies: report a large ratio
  const double delay_ratio = seed1.inter_frame_ms > 0.0
                                 ? zero1.inter_frame_ms / seed1.inter_frame_ms
                                 : 1.0;
  std::printf(
      "\n8-client bytes-copied reduction: %.1fx (claim: >= 2x)\n"
      "1-client inter-frame ratio (zero/seed): %.3f (claim: <= ~1)\n",
      reduction, delay_ratio);
  if (reduction < 2.0)
    std::printf("  !! zero path copies too much: %.1fx < 2x\n", reduction);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_zero_copy\",\n"
                 "  \"steps\": %d,\n  \"payload_bytes\": %zu,\n"
                 "  \"period_ms\": %.3f,\n  \"runs\": [\n",
                 steps, frame_bytes, period_s * 1e3);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      std::fprintf(
          f,
          "    {\"path\": \"%s\", \"clients\": %d, \"frames\": %d,"
          " \"bytes_copied\": %llu, \"copies\": %llu,"
          " \"inter_frame_ms\": %.4f, \"pool_hits\": %llu,"
          " \"pool_misses\": %llu}%s\n",
          r.path.c_str(), r.clients, r.frames,
          static_cast<unsigned long long>(r.bytes_copied),
          static_cast<unsigned long long>(r.copies), r.inter_frame_ms,
          static_cast<unsigned long long>(r.pool_hits),
          static_cast<unsigned long long>(r.pool_misses),
          i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"bytes_copied_reduction_8_clients\": %.2f,\n"
                 "  \"single_client_delay_ratio\": %.4f\n}\n",
                 reduction, delay_ratio);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  bench::finish_observability();
  return 0;
}
