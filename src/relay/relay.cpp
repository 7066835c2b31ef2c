#include "relay/relay.hpp"

#include <algorithm>
#include <utility>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace tvviz::relay {

using net::MsgType;
using net::NetMessage;

namespace {

/// Advertisements parked awaiting a kFrameData. Beyond this, the oldest
/// parked advertisement is dropped (net.relay.pending_dropped) — the same
/// skip-a-step outcome as a backpressure drop.
constexpr std::size_t kMaxPendingFetches = 256;

obs::Counter& ref_hits_ctr() {
  static obs::Counter& c = obs::counter("net.relay.ref_hits");
  return c;
}
obs::Counter& ref_misses_ctr() {
  static obs::Counter& c = obs::counter("net.relay.ref_misses");
  return c;
}
obs::Counter& bytes_saved_ctr() {
  static obs::Counter& c = obs::counter("net.relay.fetch_bytes_saved");
  return c;
}
obs::Counter& reconnects_ctr() {
  static obs::Counter& c = obs::counter("net.relay.upstream_reconnects");
  return c;
}
obs::Counter& forwarded_ctr() {
  static obs::Counter& c = obs::counter("net.relay.frames_forwarded");
  return c;
}
obs::Counter& pending_dropped_ctr() {
  static obs::Counter& c = obs::counter("net.relay.pending_dropped");
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
  options.wants_frame_refs = true;
  return options;
}

/// Reconstruct the kFrame an advertisement stands for: the ref carries the
/// frame's header fields, and the payload arrived some other way (the local
/// cache or a kFrameData). The payload handle is shared, never copied.
NetMessage materialize(NetMessage ref, const util::SharedBytes& payload) {
  ref.type = MsgType::kFrame;
  ref.payload = payload;
  return ref;
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
  // End-of-stream marker held back while fetches are still in flight: the
  // replies for parked advertisements ride the same upstream queue *behind*
  // the marker, so propagating it immediately would drop the stream's tail.
  std::optional<NetMessage> eos;
  while (running_.load()) {
    std::optional<NetMessage> msg;
    try {
      msg = upstream_.next();
    } catch (const std::exception&) {
      break;  // closed under us mid-recv (shutdown)
    }
    if (!msg) break;  // upstream gone for good (retry attempts exhausted)

    // A reconnect happened inside next(): every in-flight fetch died with
    // the old socket. Drop the parked advertisements — the resume already
    // replayed every unacked step's ref, so the re-requests are underway.
    const std::uint64_t rc = upstream_.reconnects();
    if (rc != seen_reconnects_) {
      reconnects_ctr().add(rc - seen_reconnects_);
      upstream_reconnects_.fetch_add(rc - seen_reconnects_);
      seen_reconnects_ = rc;
      queue_.clear();
      arrived_.clear();
      fetched_.clear();
    }

    switch (msg->type) {
      case MsgType::kFrameRef:
        handle_ref(*msg);
        break;
      case MsgType::kFrameData:
        handle_data(*msg);
        break;
      case MsgType::kShutdown:
        // End of stream: propagate so downstream viewers see it, then stop
        // pumping (reconnecting to a root that signed off is pointless) —
        // but only after every parked advertisement resolves.
        stream_ended_.store(true);
        eos = std::move(*msg);
        break;
      case MsgType::kError:
        return;  // fatal refusal mid-stream
      default:
        // The upstream hub sends every image to this edge as a kFrameRef
        // (wants_frame_refs), and never hello/ack/control types; log so an
        // unexpected type is visible instead of vanishing into the pump
        // (wire-switch-default, DESIGN.md §18).
        TVVIZ_LOG(kWarn) << "relay: ignoring unexpected upstream message "
                         << "type " << static_cast<int>(msg->type);
        break;
    }
    if (eos && queue_.empty()) {
      inject(std::move(*eos));
      return;
    }
  }
  // Upstream died with the marker in hand: viewers still get their
  // end-of-stream (minus whatever the dead link swallowed).
  if (eos) inject(std::move(*eos));
}

void EdgeHub::inject(NetMessage msg) {
  const bool frame = msg.type == MsgType::kFrame;
  const int step = msg.frame_index;
  forwarded_ctr().add(1);
  frames_forwarded_.fetch_add(1);
  // The downstream hub caches image traffic under this edge's own
  // ContentId index (recomputed once, at its insert) and fans out to the
  // edge's viewers with the root's exact delivery semantics.
  injector_->send(std::move(msg));
  if (frame) {
    max_ready_step_ = std::max(max_ready_step_, step);
    maybe_ack();
  }
}

void EdgeHub::handle_ref(const NetMessage& ref) {
  refs_seen_.fetch_add(1);
  net::FrameRefInfo info;
  try {
    info = net::parse_frame_ref(ref);
  } catch (const std::exception&) {
    return;  // malformed advertisement: skip it, keep the stream alive
  }
  // A resume replay re-advertises steps this edge already injected (the
  // upstream ack floor deliberately trails the viewers): the overlap is a
  // dedup win — nothing is fetched and nothing is re-delivered downstream.
  if (ref.frame_index <= max_ready_step_) {
    ref_hits_ctr().add(1);
    ref_hits_.fetch_add(1);
    bytes_saved_ctr().add(info.payload_bytes);
    bytes_saved_.fetch_add(info.payload_bytes);
    return;
  }
  const auto cached = server_.hub().cache().lookup_content(info.content);
  if (cached) {
    // Dedup win: the payload never crosses the upstream link again — an
    // identical frame, a resumed replay, or a late-joiner catch-up.
    ref_hits_ctr().add(1);
    ref_hits_.fetch_add(1);
    bytes_saved_ctr().add(info.payload_bytes);
    bytes_saved_.fetch_add(info.payload_bytes);
    if (queue_.empty()) {  // nothing ahead of it: inject right away
      inject(materialize(ref, cached->payload));
      return;
    }
  } else {
    ref_misses_.fetch_add(1);
    ref_misses_ctr().add(1);
    // One fetch per distinct content, no matter how many parked steps
    // advertise it.
    if (!arrived_.count(info.content) && fetched_.insert(info.content).second)
      upstream_.request_frame(info.content);
  }
  // Park in arrival order behind whatever is still waiting for its body;
  // drain_queue injects strictly from the front, so steps never reorder.
  queue_.push_back({ref, info});
  while (queue_.size() > kMaxPendingFetches) {
    // Same outcome as a backpressure drop: that step is skipped here.
    pending_dropped_ctr().add(1);
    queue_.pop_front();
  }
  drain_queue();
}

void EdgeHub::handle_data(const NetMessage& data) {
  // Match by recomputed hash, not by trusting any field: a body corrupted
  // in flight hashes to an unknown id and is discarded (the fetch entry
  // stays; an upstream reconnect replays the ref and refetches).
  const net::ContentId content = net::content_id_of(data);
  if (fetched_.erase(content) == 0) {
    return;  // unsolicited, stale, or corrupt
  }
  arrived_[content] = data.payload;
  drain_queue();
}

void EdgeHub::drain_queue() {
  while (!queue_.empty()) {
    const Parked& front = queue_.front();
    util::SharedBytes payload;
    if (const auto it = arrived_.find(front.info.content); it != arrived_.end())
      payload = it->second;
    else if (const auto cached =
                 server_.hub().cache().lookup_content(front.info.content))
      payload = cached->payload;
    else
      break;  // body still in flight: later steps wait their turn
    inject(materialize(front.ref, payload));
    queue_.pop_front();
  }
  if (queue_.empty()) arrived_.clear();
}

int EdgeHub::ack_floor() {
  int floor = max_ready_step_;
  bool any_viewer = false;
  for (const auto& stats : server_.hub().client_stats()) {
    if (!stats.connected) continue;
    any_viewer = true;
    floor = std::min(floor, stats.last_acked_step);
  }
  return any_viewer ? floor : max_ready_step_;
}

void EdgeHub::maybe_ack() {
  // Never ack past an advertisement whose body is still in flight: an
  // upstream resume replays everything after the acked step, so acking a
  // newer step while an older fetch is pending could skip the older one.
  if (!queue_.empty()) return;
  const int floor = ack_floor();
  if (floor <= last_acked_step_) return;
  last_acked_step_ = floor;
  upstream_.ack(last_acked_step_);
}

EdgeHub::Stats EdgeHub::stats() const {
  Stats s;
  s.refs_seen = refs_seen_.load();
  s.ref_hits = ref_hits_.load();
  s.ref_misses = ref_misses_.load();
  s.fetch_bytes_saved = bytes_saved_.load();
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
