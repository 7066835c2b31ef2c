// Ablation: relay-tree root egress. The claim under test is the one the
// relay subsystem exists for — a root hub serving a tree of edge hubs pays
// egress per *edge*, not per *viewer*, where a flat deployment pays per
// viewer:
//
//   * direct runs attach every viewer straight to the root's HubTcpServer:
//     root egress is measured as the sum of viewer wire bytes and grows
//     linearly with the viewer count;
//   * tree runs put 4 EdgeHubs in front and split the same viewers across
//     them: root egress is the sum of the edges' upstream wire bytes, and
//     quadrupling the viewers must leave it flat — each step crosses the
//     root-to-edge link once per edge, as one kFrame, however many viewers
//     an edge re-serves from its own hub.
//
// The gated metric (tools/bench_gate.py --metric root_egress_ratio) is
// tree-egress-at-32-viewers / tree-egress-at-8-viewers: ~1.0 while the
// root pays per edge, creeping toward 4.0 if a regression starts
// re-shipping frames per viewer. Both sides run on the same machine in
// the same process, so the ratio is host-independent. stream_s (first
// send to last viewer done) is reported, not gated.
//
//   ./ablation_relay_tree [--steps 24] [--bytes 32768] [--edges 4]
//                         [--small-viewers 8] [--large-viewers 32]
//                         [--json BENCH_relay_tree.json]
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "hub/hub.hpp"
#include "hub/tcp_hub.hpp"
#include "relay/relay.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

namespace {

struct RunResult {
  std::string name;
  int viewers = 0;
  int edges = 0;  // 0 = direct (viewers on the root)
  std::uint64_t frames = 0;  // total frames delivered across viewers
  std::uint64_t root_egress_bytes = 0;
  double stream_s = 0.0;
  bool lossless = true;
};

/// One deployment: `n_edges` EdgeHubs under a root (0 = flat), `viewers`
/// split round-robin across the edges (or all on the root), a producer
/// streaming `steps` distinct frames.
RunResult run_case(std::string name, int n_edges, int viewers, int steps,
                   std::size_t frame_bytes) {
  hub::HubConfig cfg;
  cfg.cache_steps = static_cast<std::size_t>(2 * steps);
  cfg.client_queue_frames = static_cast<std::uint32_t>(2 * steps);

  hub::HubTcpServer root(0, cfg);
  std::vector<std::unique_ptr<relay::EdgeHub>> edges;
  std::vector<int> ports;
  for (int e = 0; e < n_edges; ++e) {
    relay::EdgeHubConfig ec;
    ec.upstream_port = root.port();
    ec.hub = cfg;
    ec.edge_id = "edge-" + std::to_string(e);
    edges.push_back(std::make_unique<relay::EdgeHub>(ec));
    ports.push_back(edges.back()->port());
  }
  if (ports.empty()) ports.push_back(root.port());

  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> viewer_bytes{0};
  std::atomic<int> short_runs{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(viewers));
  for (int k = 0; k < viewers; ++k) {
    const int port = ports[static_cast<std::size_t>(k) % ports.size()];
    threads.emplace_back([&, port, k, steps] {
      hub::HubTcpViewer::Options options;
      options.client_id = std::string("v").append(std::to_string(k));
      options.queue_frames = static_cast<std::uint32_t>(2 * steps);
      hub::HubTcpViewer viewer(port, options);
      int got = 0;
      while (auto msg = viewer.next()) {
        if (msg->type == net::MsgType::kShutdown) break;
        if (msg->type != net::MsgType::kFrame) continue;
        viewer.ack(msg->frame_index);
        ++got;
      }
      frames.fetch_add(static_cast<std::uint64_t>(got));
      viewer_bytes.fetch_add(viewer.bytes_received());
      if (got != steps) short_runs.fetch_add(1);
    });
  }

  // Stream only once every handshake has landed, or early viewers get a
  // head start and late ones miss leading steps.
  {
    const auto connected = [&] {
      if (edges.empty()) return root.hub().connected_clients();
      std::size_t n = 0;
      for (const auto& e : edges) n += e->hub().connected_clients();
      return n;
    };
    util::WallTimer settle;
    while (connected() < static_cast<std::size_t>(viewers) &&
           settle.seconds() < 10.0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto renderer = root.hub().connect_renderer();
  util::WallTimer clock;
  for (int s = 0; s < steps; ++s) {
    net::NetMessage msg;
    msg.type = net::MsgType::kFrame;
    msg.frame_index = s;
    msg.codec = "raw";
    msg.payload = util::Bytes(frame_bytes, static_cast<std::uint8_t>(s + 1));
    renderer->send(std::move(msg));
  }
  net::NetMessage bye;
  bye.type = net::MsgType::kShutdown;
  renderer->send(std::move(bye));
  for (auto& t : threads) t.join();

  RunResult result;
  result.name = std::move(name);
  result.viewers = viewers;
  result.edges = n_edges;
  result.stream_s = clock.seconds();
  result.frames = frames.load();
  result.lossless = short_runs.load() == 0;
  if (edges.empty())
    result.root_egress_bytes = viewer_bytes.load();
  else
    for (const auto& e : edges)
      result.root_egress_bytes += e->stats().upstream_bytes;
  for (auto& e : edges) e->shutdown();
  root.shutdown();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int steps = static_cast<int>(flags.get_int("steps", 24));
  const auto bytes = static_cast<std::size_t>(flags.get_int("bytes", 32768));
  const int n_edges = static_cast<int>(flags.get_int("edges", 4));
  const int small = static_cast<int>(flags.get_int("small-viewers", 8));
  const int large = static_cast<int>(flags.get_int("large-viewers", 32));
  const std::string json_path = flags.get("json", "");
  bench::init_observability(flags);
  bench::reject_unused(flags);

  bench::print_header("relay-tree root egress",
                      "1 root -> " + std::to_string(n_edges) +
                          " edges; egress per edge, not per viewer");

  std::vector<RunResult> runs;
  runs.push_back(run_case("direct-" + std::to_string(small), 0, small, steps,
                          bytes));
  runs.push_back(run_case("direct-" + std::to_string(large), 0, large, steps,
                          bytes));
  runs.push_back(run_case("tree-" + std::to_string(small), n_edges, small,
                          steps, bytes));
  runs.push_back(run_case("tree-" + std::to_string(large), n_edges, large,
                          steps, bytes));

  std::printf("%-12s %8s %6s %10s %16s %10s %9s\n", "run", "viewers", "edges",
              "frames", "root egress", "stream", "lossless");
  for (const auto& r : runs)
    std::printf("%-12s %8d %6d %10llu %16s %8.3fs %9s\n", r.name.c_str(),
                r.viewers, r.edges, static_cast<unsigned long long>(r.frames),
                bench::fmt_bytes(static_cast<double>(r.root_egress_bytes))
                    .c_str(),
                r.stream_s, r.lossless ? "yes" : "NO");

  const double direct_ratio =
      static_cast<double>(runs[1].root_egress_bytes) /
      static_cast<double>(runs[0].root_egress_bytes);
  const double tree_ratio = static_cast<double>(runs[3].root_egress_bytes) /
                            static_cast<double>(runs[2].root_egress_bytes);
  std::printf(
      "\ndirect egress ratio (%dx -> %dx viewers): %.3f (scales with "
      "viewers)\n",
      small, large, direct_ratio);
  std::printf(
      "tree egress ratio   (%dx -> %dx viewers): %.3f (stays flat: root "
      "pays per edge)\n",
      small, large, tree_ratio);

  bool ok = true;
  for (const auto& r : runs)
    if (!r.lossless) ok = false;

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ablation_relay_tree\",\n");
    std::fprintf(f, "  \"steps\": %d,\n  \"bytes\": %zu,\n  \"edges\": %d,\n",
                 steps, bytes, n_edges);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"viewers\": %d, \"edges\": %d, "
                   "\"frames\": %llu, \"root_egress_bytes\": %llu, "
                   "\"stream_s\": %.4f, \"lossless\": %s}%s\n",
                   r.name.c_str(), r.viewers, r.edges,
                   static_cast<unsigned long long>(r.frames),
                   static_cast<unsigned long long>(r.root_egress_bytes),
                   r.stream_s, r.lossless ? "true" : "false",
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"root_egress_ratio\": %.4f,\n", tree_ratio);
    std::fprintf(f, "  \"direct_egress_ratio\": %.4f\n", direct_ratio);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  bench::finish_observability();

  if (!ok) {
    std::fprintf(stderr, "FAIL: at least one run lost frames\n");
    return 1;
  }
  return 0;
}
