#include "relay/relay.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace tvviz::relay {

using net::MsgType;
using net::NetMessage;

namespace {

obs::Counter& reconnects_ctr() {
  static obs::Counter& c = obs::counter("net.relay.upstream_reconnects");
  return c;
}
obs::Counter& forwarded_ctr() {
  static obs::Counter& c = obs::counter("net.relay.frames_forwarded");
  return c;
}
obs::Gauge& tree_depth_gauge() {
  static obs::Gauge& g = obs::gauge("net.relay.tree_depth");
  return g;
}

hub::HubTcpViewer::Options upstream_options(const EdgeHubConfig& config) {
  hub::HubTcpViewer::Options options;
  options.client_id = config.edge_id;
  options.auto_reconnect = true;
  options.retry = config.upstream_retry;
  // A bound no stream reaches: the upstream hub's newest-frame-wins never
  // drops a step on this edge's behalf, so the whole subtree sees every
  // step. A stalled edge holds its backlog at the upstream hub until the
  // reaper or an I/O timeout removes it, like any stalled client.
  options.queue_frames = std::numeric_limits<std::uint32_t>::max();
  return options;
}

}  // namespace

EdgeHub::EdgeHub(EdgeHubConfig config)
    : config_(std::move(config)),
      server_(config_.listen_port, config_.hub),
      injector_(server_.hub().connect_renderer()),
      upstream_(config_.upstream_port, upstream_options(config_)) {
  tree_depth_gauge().update_max(config_.tree_depth);
  // Viewer control events reach the downstream hub's renderer interfaces;
  // this edge's interface forwards them up the tree. The callback only
  // wakes the control thread — it runs on the hub's broadcast path and
  // must not block on an upstream send.
  injector_->set_control_callback([this] {
    {
      util::LockGuard lock(control_mutex_);
      control_signal_ = true;
    }
    control_cv_.notify_one();
  });
  control_thread_ = std::thread([this] { control_loop(); });
  pump_ = std::thread([this] { pump_loop(); });
}

EdgeHub::~EdgeHub() { shutdown(); }

void EdgeHub::control_loop() {
  obs::set_thread_lane("relay control");
  for (;;) {
    {
      util::LockGuard lock(control_mutex_);
      while (!control_signal_ && running_.load())
        control_cv_.wait(control_mutex_);
      if (!running_.load()) return;
      control_signal_ = false;
    }
    while (auto event = injector_->poll_control()) {
      try {
        upstream_.send_control(*event);
      } catch (const std::exception&) {
        // Upstream mid-reconnect: the event is dropped, like any control
        // event racing a dead link. Steering state is re-sent by users.
      }
    }
  }
}

void EdgeHub::pump_loop() {
  obs::set_thread_lane("relay pump");
  while (running_.load()) {
    std::optional<NetMessage> msg;
    try {
      msg = upstream_.next();
    } catch (const std::exception&) {
      break;  // closed under us mid-recv (shutdown)
    }
    if (!msg) break;  // upstream gone for good (retry attempts exhausted)

    // A reconnect happened inside next(): the resume replay re-ships every
    // step after the last upstream ack, and forward() skips the ones this
    // edge already injected.
    const std::uint64_t rc = upstream_.reconnects();
    if (rc != seen_reconnects_) {
      reconnects_ctr().add(rc - seen_reconnects_);
      upstream_reconnects_.fetch_add(rc - seen_reconnects_);
      seen_reconnects_ = rc;
    }

    switch (msg->type) {
      case MsgType::kFrame:
        forward(std::move(*msg));
        break;
      case MsgType::kShutdown:
        // End of stream: propagate so downstream viewers see it, then stop
        // pumping (reconnecting to a root that signed off is pointless).
        stream_ended_.store(true);
        inject(std::move(*msg));
        return;
      case MsgType::kError:
        return;  // fatal refusal mid-stream
      default:
        // The upstream hub sends a display only frames and the end-of-stream
        // marker, never hello/ack/control types; log so an unexpected type
        // is visible instead of vanishing into the pump (wire-switch-default,
        // DESIGN.md §18).
        TVVIZ_LOG(kWarn) << "relay: ignoring unexpected upstream message "
                         << "type " << static_cast<int>(msg->type);
        break;
    }
  }
}

void EdgeHub::forward(NetMessage frame) {
  const int step = frame.frame_index;
  if (injected_.insert(step).second) {
    max_injected_step_ = std::max(max_injected_step_, step);
    inject(std::move(frame));
  }
  // Also on a skip: a replay of nothing but injected steps must still move
  // the ack up to what the viewers displayed, or the next replay repeats it.
  maybe_ack();
}

void EdgeHub::inject(NetMessage msg) {
  forwarded_ctr().add(1);
  frames_forwarded_.fetch_add(1);
  injector_->send(std::move(msg));
}

int EdgeHub::ack_floor() {
  int floor = max_injected_step_;
  bool any_viewer = false;
  for (const auto& stats : server_.hub().client_stats()) {
    if (!stats.connected) continue;
    any_viewer = true;
    floor = std::min(floor, stats.last_acked_step);
  }
  return any_viewer ? floor : max_injected_step_;
}

void EdgeHub::maybe_ack() {
  const int floor = ack_floor();
  if (floor <= last_acked_step_) return;
  last_acked_step_ = floor;
  upstream_.ack(last_acked_step_);
  injected_.erase(injected_.begin(), injected_.upper_bound(last_acked_step_));
}

EdgeHub::Stats EdgeHub::stats() const {
  Stats s;
  s.frames_forwarded = frames_forwarded_.load();
  s.upstream_bytes = upstream_.bytes_received();
  s.upstream_reconnects = upstream_reconnects_.load();
  return s;
}

void EdgeHub::shutdown() {
  if (!running_.exchange(false)) return;
  // Wake both service threads: closing the upstream socket unblocks the
  // pump's recv; the signal unblocks the control wait.
  upstream_.close();
  {
    util::LockGuard lock(control_mutex_);
    control_signal_ = true;
  }
  control_cv_.notify_all();
  if (pump_.joinable()) pump_.join();
  if (control_thread_.joinable()) control_thread_.join();
  // Downstream last: the flush guarantee drains every frame the pump
  // already injected out to the viewers before their sockets close.
  server_.shutdown();
}

}  // namespace tvviz::relay
