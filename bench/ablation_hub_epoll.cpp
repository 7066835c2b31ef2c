// Ablation: the event-driven hub core at wide-area fan-out scale. A
// single-threaded epoll client swarm drives the HubTcpServer with
// thousands of simulated viewers over real loopback sockets — each one
// completes the hello handshake, receives every streamed step, and
// disconnects — while the hub runs its own readiness loop + worker pool.
// The claims under test:
//
//   * the epoll transport sustains 10k concurrent viewers on O(1) hub
//     threads, losslessly (every client sees every step + the shutdown);
//   * per-client fan-out cost is flat in the client count: us/client/step
//     at the large count stays within the gate's budget of the small-count
//     cost (`fanout_scaling_ratio`, gated by tools/bench_gate.py).
//
// The WAN leg is analytic: loopback measures the hub's own per-client
// cost, and the report folds in the paper's link presets
// (wan_nasa_ucd/wan_japan_ucd) as the modeled per-frame transfer each
// remote viewer would add on top — the same first-order model the other
// benches use, with no sleeps distorting the scaling measurement.
//
//   ./ablation_hub_epoll [--clients 10000] [--small-clients 500]
//                        [--steps 16] [--bytes 4096]
//                        [--json BENCH_hub_epoll.json]
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "hub/tcp_hub.hpp"
#include "net/link.hpp"
#include "net/protocol.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

namespace {

/// Raise RLIMIT_NOFILE to fit `requested` viewers (each needs a swarm-side
/// and a hub-side descriptor). Returns the viewer count that actually fits.
int cap_clients(int requested) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return std::min(requested, 256);
  const rlim_t need = 2 * static_cast<rlim_t>(requested) + 4096;
  if (rl.rlim_cur >= need) return requested;
  rlimit want = rl;
  want.rlim_cur = need;
  if (want.rlim_max < need) want.rlim_max = need;  // root may raise the cap
  if (::setrlimit(RLIMIT_NOFILE, &want) == 0) return requested;
  want = rl;
  want.rlim_cur = rl.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &want);
  ::getrlimit(RLIMIT_NOFILE, &rl);
  const rlim_t fit = rl.rlim_cur > 4096 ? (rl.rlim_cur - 4096) / 2 : 64;
  return static_cast<int>(std::min<rlim_t>(requested, fit));
}

util::Bytes frame_wire_bytes(const net::NetMessage& msg) {
  const util::Bytes body = net::serialize_message(msg);
  util::Bytes out;
  out.reserve(body.size() + 4);
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  out.push_back(static_cast<std::uint8_t>(len));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len >> 16));
  out.push_back(static_cast<std::uint8_t>(len >> 24));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

struct SwarmClient {
  int fd = -1;
  enum Phase { kIdle, kConnecting, kHello, kStream, kDone } phase = kIdle;
  util::Bytes hello;
  std::size_t sent = 0;
  std::vector<std::uint8_t> in;
  std::size_t consumed = 0;
  int frames = 0;
  bool acked = false;
  bool clean_end = false;  ///< Saw kShutdown (vs an unexpected EOF/error).
};

struct RunResult {
  std::string name;
  int clients = 0;
  int steps = 0;
  double connect_s = 0.0;
  double stream_s = 0.0;
  long long frames = 0;
  bool lossless = false;
  double us_per_client_step = 0.0;
};

/// One swarm run against a fresh hub.
RunResult run_swarm(const std::string& name, int clients, int steps,
                    std::size_t frame_bytes) {
  hub::HubConfig cfg;
  cfg.max_clients = static_cast<std::size_t>(clients) + 8;
  cfg.client_queue_frames = static_cast<std::size_t>(steps) + 4;
  cfg.cache_steps = 4;
  hub::HubTcpServer server(0, cfg);
  const int port = server.port();

  RunResult result;
  result.name = name;
  result.clients = clients;
  result.steps = steps;

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) {
    std::perror("epoll_create1");
    return result;
  }
  std::vector<SwarmClient> swarm(static_cast<std::size_t>(clients));
  const auto watch = [&](int index, std::uint32_t events, bool add) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u32 = static_cast<std::uint32_t>(index);
    ::epoll_ctl(ep, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, swarm[index].fd, &ev);
  };

  int started = 0, handshaking = 0, acked = 0, done = 0;
  bool trouble = false;
  const int kMaxInflight = 512;

  const auto start_one = [&](int index) {
    SwarmClient& c = swarm[index];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) {
      trouble = true;
      c.phase = SwarmClient::kDone;
      ++done;
      return;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    net::HelloInfo info;
    info.role = "display";
    info.client_id = std::string("v").append(std::to_string(index));
    info.queue_frames = static_cast<std::uint32_t>(steps) + 4;
    c.hello = frame_wire_bytes(net::make_hello(info));
    c.phase = SwarmClient::kConnecting;
    ++handshaking;
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0)
      c.phase = SwarmClient::kHello;
    else if (errno != EINPROGRESS) {
      trouble = true;
      ::close(c.fd);
      c.fd = -1;
      c.phase = SwarmClient::kDone;
      --handshaking;
      ++done;
      return;
    }
    watch(index, EPOLLOUT, /*add=*/true);
  };

  const auto finish = [&](int index, bool clean) {
    SwarmClient& c = swarm[index];
    if (c.phase == SwarmClient::kDone) return;
    if (c.phase == SwarmClient::kConnecting || c.phase == SwarmClient::kHello)
      --handshaking;
    c.clean_end = clean;
    if (!clean) trouble = true;
    c.phase = SwarmClient::kDone;
    ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
    ++done;
  };

  const auto parse_stream = [&](int index) {
    SwarmClient& c = swarm[index];
    while (c.phase != SwarmClient::kDone) {
      if (c.in.size() - c.consumed < 4) break;
      const std::uint8_t* p = c.in.data() + c.consumed;
      const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                                (static_cast<std::uint32_t>(p[1]) << 8) |
                                (static_cast<std::uint32_t>(p[2]) << 16) |
                                (static_cast<std::uint32_t>(p[3]) << 24);
      if (c.in.size() - c.consumed < 4 + static_cast<std::size_t>(len)) break;
      net::NetMessage msg;
      try {
        msg = net::deserialize_message(std::span(p + 4, len));
      } catch (const std::exception&) {
        finish(index, /*clean=*/false);
        return;
      }
      c.consumed += 4 + len;
      switch (msg.type) {
        case net::MsgType::kHelloAck:
          if (!c.acked) {
            c.acked = true;
            ++acked;
            --handshaking;
          }
          break;
        case net::MsgType::kFrame:
          ++c.frames;
          break;
        case net::MsgType::kShutdown:
          finish(index, /*clean=*/true);
          return;
        case net::MsgType::kError:
          finish(index, /*clean=*/false);
          return;
        default:
          break;
      }
    }
    if (c.consumed == c.in.size()) {
      c.in.clear();
      c.consumed = 0;
    } else if (c.consumed > (1u << 16)) {
      c.in.erase(c.in.begin(),
                 c.in.begin() + static_cast<std::ptrdiff_t>(c.consumed));
      c.consumed = 0;
    }
  };

  // Pump connects and readiness until `predicate` holds (or nothing moves
  // for 60 s — a wedged run fails loudly instead of hanging CI).
  epoll_event events[256];
  std::uint8_t rdbuf[64 * 1024];
  const auto pump = [&](auto predicate) {
    util::WallTimer idle;
    while (!predicate()) {
      while (started < clients && handshaking < kMaxInflight)
        start_one(started++);
      const int n = ::epoll_wait(ep, events, 256, 100);
      if (n < 0 && errno != EINTR) {
        trouble = true;
        return;
      }
      if (n > 0) idle = util::WallTimer();
      for (int i = 0; i < n; ++i) {
        const int index = static_cast<int>(events[i].data.u32);
        SwarmClient& c = swarm[index];
        if (c.phase == SwarmClient::kDone) continue;
        if (events[i].events & (EPOLLERR | EPOLLHUP)) {
          finish(index, /*clean=*/false);
          continue;
        }
        if (c.phase == SwarmClient::kConnecting) {
          int err = 0;
          socklen_t len = sizeof err;
          ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            finish(index, /*clean=*/false);
            continue;
          }
          c.phase = SwarmClient::kHello;
        }
        if (c.phase == SwarmClient::kHello && (events[i].events & EPOLLOUT)) {
          while (c.sent < c.hello.size()) {
            const ssize_t w = ::send(c.fd, c.hello.data() + c.sent,
                                     c.hello.size() - c.sent, MSG_NOSIGNAL);
            if (w > 0) {
              c.sent += static_cast<std::size_t>(w);
            } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
              break;
            } else {
              finish(index, /*clean=*/false);
              break;
            }
          }
          if (c.phase != SwarmClient::kDone && c.sent == c.hello.size()) {
            c.phase = SwarmClient::kStream;
            watch(index, EPOLLIN, /*add=*/false);
          }
          continue;
        }
        if (c.phase == SwarmClient::kStream && (events[i].events & EPOLLIN)) {
          for (;;) {
            const ssize_t r = ::read(c.fd, rdbuf, sizeof rdbuf);
            if (r > 0) {
              c.in.insert(c.in.end(), rdbuf, rdbuf + r);
              if (r < static_cast<ssize_t>(sizeof rdbuf)) break;
            } else if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
              break;
            } else {
              finish(index, /*clean=*/false);
              break;
            }
          }
          if (c.phase != SwarmClient::kDone) parse_stream(index);
        }
      }
      if (idle.seconds() > 60.0) {
        trouble = true;
        return;
      }
    }
  };

  util::WallTimer connect_clock;
  pump([&] { return trouble || acked + done >= clients; });
  result.connect_s = connect_clock.seconds();
  if (trouble || done >= clients) {
    std::fprintf(stderr, "%s: handshake phase failed (acked %d, done %d)\n",
                 name.c_str(), acked, done);
    ::close(ep);
    return result;
  }

  // Stream: the renderer is in-process (the measurement isolates the TCP
  // fan-out, not a renderer socket), unpaced, shutdown marker at the end.
  auto renderer = server.hub().connect_renderer();
  const util::Bytes payload(frame_bytes, 0x5a);
  util::WallTimer stream_clock;
  for (int s = 0; s < steps; ++s) {
    net::NetMessage msg;
    msg.type = net::MsgType::kFrame;
    msg.frame_index = s;
    msg.codec = "raw";
    msg.payload = payload;
    renderer->send(std::move(msg));
  }
  {
    net::NetMessage bye;
    bye.type = net::MsgType::kShutdown;
    renderer->send(std::move(bye));
  }
  pump([&] { return done >= clients; });
  result.stream_s = stream_clock.seconds();
  ::close(ep);

  result.lossless = !trouble;
  for (const auto& c : swarm) {
    result.frames += c.frames;
    if (c.frames != steps || !c.clean_end) result.lossless = false;
  }
  result.us_per_client_step =
      result.stream_s * 1e6 /
      (static_cast<double>(clients) * static_cast<double>(steps));
  server.shutdown();
  return result;
}

void print_run(const RunResult& r) {
  std::printf("%-14s %7d clients  connect %6.2fs  stream %6.2fs  "
              "%7.3f us/client/step  %s\n",
              r.name.c_str(), r.clients, r.connect_s, r.stream_s,
              r.us_per_client_step, r.lossless ? "lossless" : "LOSSY");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int requested = static_cast<int>(flags.get_int("clients", 10000));
  const int small = static_cast<int>(flags.get_int("small-clients", 500));
  const int steps = static_cast<int>(flags.get_int("steps", 16));
  const auto bytes = static_cast<std::size_t>(flags.get_int("bytes", 4096));
  const std::string json_path = flags.get("json", "");
  bench::reject_unused(flags);

  const int clients = cap_clients(requested);
  if (clients < requested)
    std::printf("fd limit caps the swarm at %d clients (asked %d)\n", clients,
                requested);

  std::vector<RunResult> runs;
  runs.push_back(
      run_swarm("epoll-small", std::min(small, clients), steps, bytes));
  print_run(runs.back());
  runs.push_back(run_swarm("epoll-large", clients, steps, bytes));
  print_run(runs.back());

  const double small_cost = runs[0].us_per_client_step;
  const double large_cost = runs[1].us_per_client_step;
  const double scaling =
      small_cost > 0.0 ? large_cost / small_cost : 0.0;
  std::printf("\nfanout_scaling_ratio (epoll large/small): %.3f\n", scaling);

  // Analytic WAN leg: what each remote viewer would add per frame on the
  // paper's two wide-area paths (latency + bytes/bandwidth; link.hpp).
  const net::LinkModel nasa = net::wan_nasa_ucd();
  const net::LinkModel japan = net::wan_japan_ucd();
  const double nasa_frame_s = nasa.transfer_seconds(bytes);
  const double japan_frame_s = japan.transfer_seconds(bytes);
  std::printf("\nmodeled WAN per-frame transfer on top of hub cost:\n"
              "  %-14s %8.2f ms/frame\n  %-14s %8.2f ms/frame\n",
              nasa.name.c_str(), nasa_frame_s * 1e3, japan.name.c_str(),
              japan_frame_s * 1e3);

  bool ok = true;
  for (const auto& r : runs)
    if (!r.lossless) ok = false;

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ablation_hub_epoll\",\n");
    std::fprintf(f, "  \"steps\": %d,\n  \"bytes\": %zu,\n", steps, bytes);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"clients\": %d, \"connect_s\": %.4f, "
          "\"stream_s\": %.4f, \"frames\": %lld, "
          "\"us_per_client_step\": %.4f, \"lossless\": %s}%s\n",
          r.name.c_str(), r.clients, r.connect_s, r.stream_s, r.frames,
          r.us_per_client_step, r.lossless ? "true" : "false",
          i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"fanout_scaling_ratio\": %.4f,\n", scaling);
    std::fprintf(f,
                 "  \"wan_model\": {\"%s_ms_per_frame\": %.3f, "
                 "\"%s_ms_per_frame\": %.3f}\n",
                 nasa.name.c_str(), nasa_frame_s * 1e3, japan.name.c_str(),
                 japan_frame_s * 1e3);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: at least one run was not lossless\n");
    return 1;
  }
  return 0;
}
