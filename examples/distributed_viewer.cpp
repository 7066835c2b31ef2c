// Distributed viewer: the §4.1 framework over REAL sockets. The display
// daemon (a FrameHub behind a HubTcpServer) listens on localhost; a
// renderer endpoint connects and streams compressed frames; a display
// endpoint connects, decodes, and steers the view through the control
// backchannel — three independent actors speaking the wire protocol,
// exactly how a multi-machine deployment would.
//
//   ./distributed_viewer [--steps 10] [--size 128] [--codec jpeg+lzo]
#include <algorithm>
#include <cstdio>
#include <thread>

#include "codec/image_codec.hpp"
#include "field/generators.hpp"
#include "hub/tcp_hub.hpp"
#include "render/raycast.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

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

  hub::HubConfig config;
  // One lossless display: a queue bound the run cannot reach.
  config.client_queue_frames = static_cast<std::size_t>(std::max(1, steps));
  hub::HubTcpServer server(0, config);
  std::printf("display daemon listening on 127.0.0.1:%d\n", server.port());

  // ---- the display client -------------------------------------------------
  // Connected (hello acknowledged) before the renderer sends anything.
  hub::HubTcpViewer display(server.port());
  std::thread display_thread([&] {
    const auto codec = codec::make_image_codec(codec_name, 75);
    util::WallTimer clock;
    std::size_t bytes = 0;
    for (int received = 0; received < steps; ++received) {
      const auto msg = display.next();
      if (!msg) return;
      bytes += msg->payload.size();
      const render::Image frame = codec->decode(msg->payload);
      std::printf("  [display] frame %2d: %5zu bytes, %dx%d, t=%.2fs\n",
                  msg->frame_index, msg->payload.size(), frame.width(),
                  frame.height(), clock.seconds());
      if (msg->frame_index == 2) {
        net::ControlEvent e;
        e.kind = net::ControlKind::kSetView;
        e.azimuth = 2.2;
        e.elevation = 0.1;
        e.zoom = 1.2;
        display.send_control(e);
        std::printf("  [display] -> control: rotate view\n");
      }
    }
    std::printf("  [display] %d frames, %.1f kB total, %.1f fps\n", steps,
                bytes / 1024.0, steps / clock.seconds());
  });

  // ---- the parallel renderer (stand-in: one node) --------------------------
  net::TcpRendererLink renderer(server.port());
  const auto desc = field::scaled(field::turbulent_jet_desc(), 3, steps);
  const auto codec = codec::make_image_codec(codec_name, 75);
  const auto tf = render::TransferFunction::fire();
  render::RayCaster caster;
  double azimuth = 0.6, elevation = 0.35, zoom = 1.0;
  for (int s = 0; s < steps; ++s) {
    while (auto event = renderer.poll_control()) {
      if (event->kind == net::ControlKind::kSetView) {
        azimuth = event->azimuth;
        elevation = event->elevation;
        zoom = event->zoom;
        std::printf("  [render ] applied view change before step %d\n", s);
      }
    }
    const auto volume = field::generate(desc, s);
    const render::Camera camera(size, size, azimuth, elevation, zoom);
    const render::Image frame = caster.render_full(volume, camera, tf, true);
    net::NetMessage msg;
    msg.type = net::MsgType::kFrame;
    msg.frame_index = s;
    msg.codec = codec_name;
    msg.payload = codec->encode(frame);
    renderer.send(msg);
  }

  display_thread.join();
  server.shutdown();
  std::printf("done — every byte crossed real TCP sockets.\n");
  return 0;
}
