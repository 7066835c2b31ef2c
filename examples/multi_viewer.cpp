// Multi-viewer session: one renderer stream fanned out by the hub to
// several display clients over REAL sockets. Demonstrates the pieces the
// single-client daemon cannot do:
//
//   * three viewers attached to one stream — the frame is encoded once,
//     cached, and fanned out by reference;
//   * one slow viewer (it sleeps between receives): its queue overflows
//     and the hub drops its oldest steps while the fast viewers keep
//     every frame;
//   * a disconnect mid-run and a reconnect under the same client id,
//     resumed from the last acknowledged step out of the frame cache.
//
//   ./multi_viewer [--steps 12] [--size 128] [--codec jpeg+lzo]
#include <cstdio>
#include <thread>
#include <vector>

#include "codec/image_codec.hpp"
#include "field/generators.hpp"
#include "hub/tcp_hub.hpp"
#include "net/tcp.hpp"
#include "render/raycast.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int steps = static_cast<int>(flags.get_int("steps", 12));
  const int size = static_cast<int>(flags.get_int("size", 128));
  const std::string codec_name = flags.get("codec", "jpeg+lzo");
  try {
    flags.reject_unused();
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  hub::HubConfig hub_cfg;
  hub_cfg.cache_steps = 64;      // wide resume window for the reconnect demo
  hub_cfg.client_queue_frames = 3;  // small bound so the slow viewer drops
  hub::HubTcpServer server(0, hub_cfg);
  std::printf("hub listening on 127.0.0.1:%d\n", server.port());

  // ---- fast viewer: sees every frame --------------------------------------
  std::thread fast_thread([&] {
    hub::HubTcpViewer::Options o;
    o.client_id = "fast";
    hub::HubTcpViewer viewer(server.port(), o);
    const auto codec = codec::make_image_codec(codec_name, 75);
    int frames = 0;
    while (auto msg = viewer.next()) {
      if (msg->type == net::MsgType::kShutdown) break;
      if (msg->type != net::MsgType::kFrame) continue;
      codec->decode(msg->payload);
      viewer.ack(msg->frame_index);
      ++frames;
    }
    std::printf("  [fast  ] displayed %d/%d frames\n", frames, steps);
  });

  // ---- slow viewer: ~10x slower than the stream ---------------------------
  std::thread slow_thread([&] {
    hub::HubTcpViewer::Options o;
    o.client_id = "slow";
    hub::HubTcpViewer viewer(server.port(), o);
    int frames = 0;
    while (auto msg = viewer.next()) {
      if (msg->type == net::MsgType::kShutdown) break;
      if (msg->type != net::MsgType::kFrame) continue;
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      viewer.ack(msg->frame_index);
      ++frames;
    }
    std::printf("  [slow  ] displayed %d/%d frames (the rest were "
                "dropped for it, nobody else stalled)\n",
                frames, steps);
  });

  // ---- flaky viewer: disconnects, then resumes from its last ack ----------
  std::thread flaky_thread([&] {
    int last_acked = -1;
    {
      hub::HubTcpViewer::Options o;
      o.client_id = "flaky";
      hub::HubTcpViewer viewer(server.port(), o);
      for (int n = 0; n < 3; ++n) {
        auto msg = viewer.next();
        if (!msg || msg->type != net::MsgType::kFrame) break;
        viewer.ack(msg->frame_index);
        last_acked = msg->frame_index;
      }
      viewer.close();  // connection drops mid-run
      std::printf("  [flaky ] vanished after acking step %d\n", last_acked);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    hub::HubTcpViewer::Options o;
    o.client_id = "flaky";  // same identity -> resume
    o.last_acked_step = last_acked;
    hub::HubTcpViewer viewer(server.port(), o);
    int resumed = 0;
    while (auto msg = viewer.next()) {
      if (msg->type == net::MsgType::kShutdown) break;
      if (msg->type != net::MsgType::kFrame) continue;
      viewer.ack(msg->frame_index);
      ++resumed;
    }
    std::printf("  [flaky ] reconnected and received %d more frames "
                "(replayed from the cache, no re-encode)\n",
                resumed);
  });

  // ---- the renderer (stand-in: one node) ----------------------------------
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  net::TcpRendererLink renderer(server.port());
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
    msg.payload = codec->encode(frame);  // encoded ONCE, fanned out shared
    renderer.send(msg);
  }
  net::NetMessage bye;
  bye.type = net::MsgType::kShutdown;
  renderer.send(bye);

  fast_thread.join();
  slow_thread.join();
  flaky_thread.join();
  server.shutdown();
  for (const auto& c : server.hub().client_stats())
    std::printf("  [hub   ] %-6s delivered=%llu skipped=%llu resumed=%llu "
                "last-ack=%d\n",
                c.id.c_str(),
                static_cast<unsigned long long>(c.messages_delivered),
                static_cast<unsigned long long>(c.steps_skipped),
                static_cast<unsigned long long>(c.messages_resumed),
                c.last_acked_step);
  std::printf("done — one encode per step, three viewers, one resume.\n");
  return 0;
}
