// Relay-tree session: one renderer stream served to distant viewers
// through edge hubs, the paper's WAN deployment shape (caches near the
// viewers rather than every viewer on the renderer's hub). Demonstrates
// what the flat fan-out cannot do:
//
//   * the root serves 2 edges, the 4 viewers hang off the edges — root
//     egress pays per edge, not per viewer;
//   * each frame crosses the root link once per edge, as the same kFrame a
//     viewer gets, and each edge re-serves it to its viewers from its own
//     hub;
//   * a viewer joining late is caught up entirely from its edge's cache —
//     zero extra bytes from the root.
//
//   ./relay_tree [--steps 10] [--size 128] [--codec jpeg+lzo]
#include <cstdio>
#include <thread>
#include <vector>

#include "codec/image_codec.hpp"
#include "field/generators.hpp"
#include "hub/tcp_hub.hpp"
#include "relay/relay.hpp"
#include "render/raycast.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int steps = static_cast<int>(flags.get_int("steps", 10));
  const int size = static_cast<int>(flags.get_int("size", 128));
  const std::string codec_name = flags.get("codec", "jpeg+lzo");
  try {
    flags.reject_unused();
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  hub::HubConfig hub_cfg;
  hub_cfg.cache_steps = 64;
  hub::HubTcpServer root(0, hub_cfg);
  std::printf("root hub on 127.0.0.1:%d\n", root.port());

  // ---- two edge hubs, as if placed near two viewer sites ------------------
  std::vector<std::unique_ptr<relay::EdgeHub>> edges;
  for (int e = 0; e < 2; ++e) {
    relay::EdgeHubConfig cfg;
    cfg.upstream_port = root.port();
    cfg.hub = hub_cfg;
    cfg.edge_id = "edge-" + std::to_string(e);
    edges.push_back(std::make_unique<relay::EdgeHub>(cfg));
    std::printf("edge-%d serving viewers on 127.0.0.1:%d\n", e,
                edges.back()->port());
  }

  // ---- four viewers, two per edge -----------------------------------------
  auto viewer_main = [&](int e, int k) {
    hub::HubTcpViewer::Options o;
    o.client_id =
        std::string("v").append(std::to_string(e)).append(std::to_string(k));
    hub::HubTcpViewer viewer(edges[static_cast<std::size_t>(e)]->port(), o);
    const auto codec = codec::make_image_codec(codec_name, 75);
    int frames = 0;
    while (auto msg = viewer.next()) {
      if (msg->type == net::MsgType::kShutdown) break;
      if (msg->type != net::MsgType::kFrame) continue;
      codec->decode(msg->payload);  // display
      viewer.ack(msg->frame_index);
      ++frames;
    }
    std::printf("  [%s] displayed %d frames via edge-%d\n", o.client_id.c_str(),
                frames, e);
  };
  std::vector<std::thread> viewers;
  for (int e = 0; e < 2; ++e)
    for (int k = 0; k < 2; ++k) viewers.emplace_back(viewer_main, e, k);

  // ---- the renderer, attached to the ROOT only ----------------------------
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto renderer = root.hub().connect_renderer();
  const auto desc = field::scaled(field::turbulent_jet_desc(), 3, steps);
  const auto codec = codec::make_image_codec(codec_name, 75);
  const auto tf = render::TransferFunction::fire();
  render::RayCaster caster;
  for (int s = 0; s < steps; ++s) {
    const auto volume = field::generate(desc, s);
    const render::Camera camera(size, size, 0.6 + 0.05 * s, 0.35, 1.0);
    const render::Image frame = caster.render_full(volume, camera, tf, true);
    net::NetMessage msg;
    msg.type = net::MsgType::kFrame;
    msg.frame_index = s;
    msg.codec = codec_name;
    msg.payload = codec->encode(frame);
    renderer->send(std::move(msg));
  }
  net::NetMessage bye;
  bye.type = net::MsgType::kShutdown;
  renderer->send(std::move(bye));

  for (auto& v : viewers) v.join();
  std::printf("root served %zu clients (the edges) for %d viewers\n",
              root.hub().client_stats().size(), static_cast<int>(viewers.size()));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto s = edges[e]->stats();
    std::printf("  [edge-%zu] forwarded %llu | upstream %.1f kB\n", e,
                static_cast<unsigned long long>(s.frames_forwarded),
                static_cast<double>(s.upstream_bytes) / 1024.0);
    edges[e]->shutdown();
  }
  root.shutdown();
  std::printf("done — every payload crossed the root link once per edge.\n");
  return 0;
}
