#include "core/session.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <thread>

#include "codec/image_codec.hpp"
#include "compositing/binary_swap.hpp"
#include "compositing/collective_compress.hpp"
#include "core/adaptive.hpp"
#include "core/partition.hpp"
#include "field/decompose.hpp"
#include "field/store.hpp"
#include "hub/hub.hpp"
#include "hub/tcp_hub.hpp"
#include "net/link.hpp"
#include "net/tcp.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"
#include "vmp/communicator.hpp"

namespace tvviz::core {

namespace {

render::TransferFunction colormap_by_name(const std::string& name) {
  if (name == "fire") return render::TransferFunction::fire();
  if (name == "dense") return render::TransferFunction::dense_cool_warm();
  if (name == "shock") return render::TransferFunction::shock();
  throw std::invalid_argument("session: unknown colormap " + name);
}

/// Mutable view/codec state, updated by buffered control events between
/// frames (§5) — never mid-frame.
struct ViewState {
  double azimuth, elevation, zoom;
  std::string colormap;
  std::string codec;
  bool stopped = false;

  /// Throws std::invalid_argument, leaving the state unchanged, for an
  /// event the renderers cannot honour: a view render::Camera rejects, or
  /// an unknown colormap or codec.
  void apply(const net::ControlEvent& e, int jpeg_quality) {
    switch (e.kind) {
      case net::ControlKind::kSetView:
        render::Camera::check_view(e.azimuth, e.elevation, e.zoom);
        azimuth = e.azimuth;
        elevation = e.elevation;
        zoom = e.zoom;
        break;
      case net::ControlKind::kSetColorMap:
        (void)colormap_by_name(e.name);
        colormap = e.name;
        break;
      case net::ControlKind::kSetCodec:
        (void)codec::make_image_codec(e.name, jpeg_quality);
        codec = e.name;
        break;
      case net::ControlKind::kStop:
        stopped = true;
        break;
      case net::ControlKind::kStart:
        break;
    }
  }

  util::Bytes serialize() const {
    util::ByteWriter w;
    w.f64(azimuth);
    w.f64(elevation);
    w.f64(zoom);
    w.str(colormap);
    w.str(codec);
    w.u8(stopped ? 1 : 0);
    return w.take();
  }

  static ViewState deserialize(std::span<const std::uint8_t> data) {
    util::ByteReader r(data);
    ViewState v{r.f64(), r.f64(), r.f64(), "", "", false};
    v.colormap = r.str();
    v.codec = r.str();
    v.stopped = r.u8() != 0;
    return v;
  }
};

/// A binary-swap slice as a stand-alone opaque 8-bit image of its owned
/// band: the slice's rectangle over black.
render::Image slice_rows(const compositing::FrameSlice& slice, int width) {
  render::Image own(width, slice.row1 - slice.row0);
  auto bytes = own.bytes();
  for (std::size_t i = 3; i < bytes.size(); i += 4) bytes[i] = 255;
  const render::PartialImage& part = slice.image;
  for (int y = 0; y < part.height(); ++y)
    for (int x = 0; x < part.width(); ++x) {
      const auto& px = part.at(x, y);
      own.set(part.x0() + x, part.y0() - slice.row0 + y,
              render::quantize(px.r), render::quantize(px.g),
              render::quantize(px.b), 255);
    }
  return own;
}

// Fitted per-unit costs of a slab render; see slab_cost_ns.
constexpr double kNsPerSample = 100.0;
constexpr double kNsPerGhostVoxel = 3.5;

}  // namespace

double slab_cost_ns(const render::RenderCounts& counts,
                    const field::Box& ghost_box) {
  return kNsPerSample * static_cast<double>(counts.samples) +
         kNsPerGhostVoxel * static_cast<double>(ghost_box.voxels());
}

SessionResult run_session(const SessionConfig& cfg) {
  if (cfg.processors < 1 || cfg.groups < 1 || cfg.groups > cfg.processors)
    throw std::invalid_argument("session: bad processors/groups");
  for (int mapped : cfg.step_map)
    if (mapped < 0 || mapped >= cfg.dataset.steps)
      throw std::invalid_argument("session: step_map entry out of range");
  if (cfg.wait_for_store && !cfg.store_dir)
    throw std::invalid_argument(
        "session: wait_for_store requires store_dir (only a store can be "
        "waited on)");
  const Partition partition(cfg.processors, cfg.groups);
  const int steps = cfg.effective_steps();
  const std::size_t pixels =
      static_cast<std::size_t>(cfg.image_width) * cfg.image_height;

  // Transport: one FrameHub, the §4.1 display daemon — in process, or
  // behind a HubTcpServer on localhost (`use_tcp`). Renderers and viewers
  // reach it through two seams with one in-process and one TCP form each.
  struct RendererPortIface {
    virtual ~RendererPortIface() = default;
    virtual void send(net::NetMessage msg) = 0;
    virtual std::optional<net::ControlEvent> poll_control() = 0;
  };
  struct DisplayPortIface {
    virtual ~DisplayPortIface() = default;
    /// Next message; std::nullopt once the hub closed this viewer.
    virtual std::optional<net::NetMessage> next() = 0;
    virtual void send_control(const net::ControlEvent& event) = 0;
    /// Acknowledge a displayed step (the resume point).
    virtual void ack(int step) = 0;
  };
  struct HubRendererPort final : RendererPortIface {
    std::shared_ptr<hub::FrameHub::RendererPort> port;
    void send(net::NetMessage msg) override { port->send(std::move(msg)); }
    std::optional<net::ControlEvent> poll_control() override {
      return port->poll_control();
    }
  };
  struct TcpRendererPort final : RendererPortIface {
    std::unique_ptr<net::TcpRendererLink> link;
    void send(net::NetMessage msg) override { link->send(msg); }
    std::optional<net::ControlEvent> poll_control() override {
      return link->poll_control();
    }
  };
  struct HubDisplayPort final : DisplayPortIface {
    std::shared_ptr<hub::FrameHub::ClientPort> port;
    std::optional<net::NetMessage> next() override {
      hub::FramePtr msg = port->next();
      if (!msg) return std::nullopt;
      return *msg;  // the decode path owns a mutable copy
    }
    void send_control(const net::ControlEvent& event) override {
      port->send_control(event);
    }
    void ack(int step) override { port->ack(step); }
  };
  struct HubTcpDisplayPort final : DisplayPortIface {
    std::unique_ptr<hub::HubTcpViewer> viewer;
    std::optional<net::NetMessage> next() override { return viewer->next(); }
    void send_control(const net::ControlEvent& event) override {
      viewer->send_control(event);
    }
    void ack(int step) override { viewer->ack(step); }
  };

  hub::HubConfig hub_cfg;
  if (cfg.use_hub) {
    hub_cfg.cache_steps = cfg.hub_cache_steps;
    hub_cfg.client_queue_frames = cfg.hub_queue_frames;
    hub_cfg.heartbeat_timeout_s = cfg.hub_heartbeat_timeout_s;
  } else {
    // One lossless viewer: a step ships as one message and every renderer
    // port ends with one kShutdown, so no session fills this bound and
    // newest-frame-wins never drops.
    hub_cfg.client_queue_frames =
        static_cast<std::size_t>(steps) + static_cast<std::size_t>(cfg.groups);
  }
  const int aux_clients = cfg.use_hub ? std::max(0, cfg.hub_clients - 1) : 0;
  std::unique_ptr<hub::FrameHub> local_hub;
  std::unique_ptr<hub::HubTcpServer> hub_server;
  if (cfg.use_tcp)
    hub_server = std::make_unique<hub::HubTcpServer>(0, hub_cfg);
  else
    local_hub = std::make_unique<hub::FrameHub>(hub_cfg);
  hub::FrameHub& frame_hub = local_hub ? *local_hub : hub_server->hub();

  std::vector<std::unique_ptr<RendererPortIface>> ports;
  for (int g = 0; g < cfg.groups; ++g) {
    if (hub_server) {
      auto port = std::make_unique<TcpRendererPort>();
      port->link = std::make_unique<net::TcpRendererLink>(hub_server->port());
      ports.push_back(std::move(port));
    } else {
      auto port = std::make_unique<HubRendererPort>();
      port->port = frame_hub.connect_renderer();
      ports.push_back(std::move(port));
    }
  }
  // The primary viewer decodes, records metrics, runs on_frame and acks;
  // auxiliary viewers (use_hub fan-out) drain and count.
  const auto connect_viewer =
      [&](const std::string& id,
          bool slow) -> std::unique_ptr<DisplayPortIface> {
    if (hub_server) {
      hub::HubTcpViewer::Options vo;
      vo.client_id = id;
      auto dp = std::make_unique<HubTcpDisplayPort>();
      dp->viewer = std::make_unique<hub::HubTcpViewer>(hub_server->port(), vo);
      return dp;
    }
    hub::ClientOptions co;
    co.id = id;
    if (slow) {
      // The slow client of the fan-out experiments (in-process hub only).
      co.link = net::wan_nasa_ucd();
      co.link_time_scale = cfg.hub_slow_client_scale;
    }
    auto dp = std::make_unique<HubDisplayPort>();
    dp->port = frame_hub.connect_client(co);
    return dp;
  };
  const std::unique_ptr<DisplayPortIface> display =
      connect_viewer("primary", false);
  std::vector<std::thread> aux_threads;
  for (int k = 0; k < aux_clients; ++k) {
    const bool slow = cfg.hub_slow_client_scale > 0.0 && k == aux_clients - 1;
    aux_threads.emplace_back([viewer = connect_viewer(
                                  "viewer-" + std::to_string(k), slow),
                              groups = cfg.groups] {
      int shutdowns = 0;
      while (auto msg = viewer->next()) {
        if (msg->type == net::MsgType::kShutdown) {
          if (++shutdowns >= groups) break;
        } else if (msg->type == net::MsgType::kFrame) {
          viewer->ack(msg->frame_index);
        }
      }
    });
  }

  util::WallTimer clock;
  util::Mutex records_mutex;
  std::map<int, FrameRecord> records;  // keyed by step
  std::atomic<int> adaptive_switches{0};

  SessionResult result;

  // ---- display client ------------------------------------------------------
  // Frames can arrive out of step order (groups finish independently);
  // keep them keyed by step so SessionResult::displayed is step-ordered.
  std::map<int, render::Image> kept_frames;
  std::thread client([&] {
    obs::set_thread_lane("display");
    int frames_done = 0;
    int shutdowns_seen = 0;
    const int total_frames = steps;
    // §4.1 adaptive quality: watch the display-path budget and feed codec
    // switches back toward the renderers as control events.
    std::optional<AdaptiveCodecController> adaptive;
    if (cfg.adaptive_target_frame_s > 0.0)
      adaptive.emplace(cfg.adaptive_target_frame_s);
    double last_display_s = clock.seconds();
    while (frames_done < total_frames) {
      auto msg = display->next();
      if (!msg) break;  // hub shut down
      if (msg->type == net::MsgType::kShutdown) {
        // One shutdown arrives per renderer port. Frames from port g are
        // relayed in order ahead of port g's shutdown, so only once every
        // port has said goodbye can no more frames be in flight.
        if (++shutdowns_seen >= cfg.groups) break;
        continue;
      }
      if (msg->type != net::MsgType::kFrame) continue;
      obs::Span display_span("display", msg->frame_index);

      render::Image frame;
      if (net::is_pieces_frame(*msg)) {
        // Parallel compression: decode every node's piece on its own and
        // copy its rows into place.
        const auto parts = net::split_pieces_frame(*msg);
        const auto codec =
            codec::make_image_codec(parts.codec, cfg.jpeg_quality);
        frame = render::Image(cfg.image_width, cfg.image_height);
        for (const auto& piece : parts.pieces) {
          const render::Image rows = codec->decode(piece.encoded);
          for (int y = 0; y < rows.height(); ++y) {
            // 64-bit: row0 comes off the wire and may sit near INT_MAX.
            const std::int64_t fy = std::int64_t{piece.row0} + y;
            if (fy < 0 || fy >= frame.height()) continue;
            for (int x = 0; x < rows.width() && x < frame.width(); ++x) {
              const auto* p = rows.pixel(x, y);
              frame.set(x, static_cast<int>(fy), p[0], p[1], p[2], p[3]);
            }
          }
        }
      } else {
        const auto codec =
            codec::make_image_codec(msg->codec, cfg.jpeg_quality);
        frame = codec->decode(msg->payload);
      }

      const double now = clock.seconds();
      {
        util::LockGuard lock(records_mutex);
        records[msg->frame_index].displayed = now;
        records[msg->frame_index].step = msg->frame_index;
      }
      display->ack(msg->frame_index);
      if (adaptive) {
        for (const auto& event : adaptive->on_frame(now - last_display_s))
          display->send_control(event);
      }
      last_display_s = now;
      if (cfg.on_frame) {
        for (const auto& event : cfg.on_frame(msg->frame_index, frame))
          display->send_control(event);
      }
      if (cfg.keep_frames) kept_frames[msg->frame_index] = std::move(frame);
      ++frames_done;
    }
    if (adaptive) adaptive_switches.store(adaptive->switches());
  });

  // ---- parallel renderer ----------------------------------------------------
  std::atomic<int> control_events{0};
  std::atomic<std::uint64_t> wire_bytes{0};
  // If a rank fails, the client thread must still be unblocked and joined
  // before the exception leaves this frame.
  std::exception_ptr renderer_error;
  const auto run_ranks = [&](const vmp::Cluster::RankFn& fn) {
    try {
      vmp::Cluster::run(cfg.processors, fn);
    } catch (...) {
      renderer_error = std::current_exception();
    }
  };
  // Counted render work (RayCaster::last_counts) of every rank and step.
  obs::Counter& render_samples = obs::counter("render.samples");
  obs::Counter& render_rays = obs::counter("render.rays");
  obs::Counter& render_leaps = obs::counter("render.leaps");
  run_ranks([&](vmp::Communicator& world) {
    obs::set_thread_lane("rank " + std::to_string(world.rank()));
    const int g = partition.group_of_rank(world.rank());
    vmp::Communicator group = world.split(g);
    const bool leader = group.rank() == 0;

    ViewState view{cfg.camera_azimuth, cfg.camera_elevation, cfg.camera_zoom,
                   cfg.colormap, cfg.codec, false};

    // Slab decomposition keeps subvolume depths monotone in rank, which the
    // binary-swap compositor requires for exact visibility ordering. The
    // group's first step splits z evenly; every later step's slabs come
    // from the previous step's counted cost (field::rebalance_slabs).
    std::vector<field::Box> slabs =
        field::decompose_slabs(cfg.dataset.dims, group.size(), /*axis=*/2);

    std::optional<field::VolumeStore> store;
    if (cfg.store_dir) store.emplace(*cfg.store_dir);

    render::RayCaster caster(cfg.render_options);

    const auto my_steps = partition.steps_for_group(g, steps);
    for (std::size_t idx = 0; idx < my_steps.size(); ++idx) {
      const int step = my_steps[idx];
      // Preview mode renders a planned subset of the dataset's steps.
      const int dataset_step =
          cfg.step_map.empty() ? step
                               : cfg.step_map[static_cast<std::size_t>(step)];

      // Leader drains buffered control events and broadcasts the resulting
      // state so every node of the group renders consistently (§5). An
      // event the renderers cannot honour is logged and skipped: one
      // viewer's bad request must not stop the session.
      if (leader) {
        while (auto event = ports[static_cast<std::size_t>(g)]->poll_control()) {
          try {
            view.apply(*event, cfg.jpeg_quality);
            control_events.fetch_add(1);
          } catch (const std::invalid_argument& e) {
            TVVIZ_LOG(kWarn) << "session: skipping control event: "
                             << e.what();
          }
        }
      }
      view = ViewState::deserialize(group.bcast(0, view.serialize()));
      if (view.stopped) break;
      const render::TransferFunction tf = colormap_by_name(view.colormap);

      const field::Box my_box = slabs[static_cast<std::size_t>(group.rank())];

      const double input_start = clock.seconds();
      obs::Span input_span("input", step, g);
      // Data input: read (or generate) this node's subvolume with a ghost
      // layer for seamless interpolation across node boundaries.
      const field::Box ghost_box =
          field::with_ghost(my_box, cfg.dataset.dims, 1);
      // Run-time tracking (§2.1): the simulation may still be computing
      // this step; poll the store until the (atomically renamed) file lands.
      if (cfg.wait_for_store) {
        util::WallTimer waited;
        while (!store->has(dataset_step)) {
          if (waited.seconds() > cfg.input_wait_timeout_s)
            throw std::runtime_error(
                "session: timed out waiting for step " +
                std::to_string(dataset_step));
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      render::Subvolume sub;
      sub.data = store ? store->read_box(dataset_step, ghost_box,
                                         cfg.dataset.dims)
                       : field::generate_box(cfg.dataset, dataset_step,
                                             ghost_box);
      sub.storage_box = ghost_box;
      sub.render_box = my_box;
      input_span.end();
      const double input_done = clock.seconds();

      // Local rendering.
      obs::Span render_span("render", step, g);
      render::Camera camera(cfg.image_width, cfg.image_height,
                            view.azimuth + cfg.azimuth_per_step * dataset_step,
                            view.elevation, view.zoom);
      // §7.1 space leaping: a min-max block structure per step lets rays
      // leap over transparent blocks (identical images, less work).
      sub.attach_skipper(tf);
      const render::PartialImage partial =
          caster.render(sub, cfg.dataset.dims, camera, tf);
      const render::RenderCounts counts = caster.last_counts();
      render_samples.add(counts.samples);
      render_rays.add(counts.rays);
      render_leaps.add(counts.leaps);
      render_span.end();
      const double render_done = clock.seconds();

      // Global compositing (binary-swap) leaves each node a frame slice.
      obs::Span composite_span("composite", step, g);
      const compositing::FrameSlice slice = compositing::binary_swap(
          group, partial, cfg.image_width, cfg.image_height);
      // One allreduce gives every rank each slab's counted cost, bit for
      // bit the same everywhere (each entry is one rank's value plus
      // zeros), so all ranks place the same next boundaries. Waiting here
      // for the slowest slab is charged to compositing, as binary swap's is.
      std::vector<double> costs(slabs.size(), 0.0);
      costs[static_cast<std::size_t>(group.rank())] =
          slab_cost_ns(counts, ghost_box);
      slabs = field::rebalance_slabs(cfg.dataset.dims, slabs,
                                     group.allreduce(std::move(costs)));
      composite_span.end();
      const double composite_done = clock.seconds();

      if (cfg.compression == SessionConfig::Compression::kCollective) {
        // §4.1 collective compression: slices are transformed and entropy
        // coded in place with Huffman tables fitted to the whole frame; the
        // leader ships an ordinary JpegCodec stream.
        obs::Span compress_span("compress", step, g);
        util::SharedBytes encoded = compositing::collective_jpeg_encode_shared(
            group, slice_rows(slice, cfg.image_width), slice.row0,
            cfg.image_width, cfg.image_height, cfg.jpeg_quality,
            util::BufferPool::global());
        compress_span.end();
        if (leader) {
          obs::Span send_span("send", step, g);
          net::NetMessage msg;
          msg.type = net::MsgType::kFrame;
          msg.frame_index = step;
          msg.codec = "jpeg";
          msg.payload = std::move(encoded);
          wire_bytes.fetch_add(msg.payload.size());
          ports[static_cast<std::size_t>(g)]->send(std::move(msg));
        }
      } else if (cfg.compression ==
                 SessionConfig::Compression::kParallelPieces) {
        const auto image_codec =
            codec::make_image_codec(view.codec, cfg.jpeg_quality);
        // Each node compresses its own slice; the leader ships the pieces
        // in rank order inside one pieces-container frame.
        obs::Span compress_span("compress", step, g);
        util::Bytes piece;
        if (slice.row1 > slice.row0)
          piece = net::pack_piece(
              slice.row0,
              image_codec->encode(slice_rows(slice, cfg.image_width)));
        compress_span.end();
        obs::Span send_span("send", step, g);
        const auto gathered = group.gather(0, std::move(piece));
        if (leader) {
          net::NetMessage msg =
              net::make_pieces_frame(step, view.codec, gathered);
          wire_bytes.fetch_add(msg.payload.size());
          ports[static_cast<std::size_t>(g)]->send(std::move(msg));
        }
      } else {
        const render::Image frame = compositing::gather_frame(
            group, slice, cfg.image_width, cfg.image_height);
        if (leader) {
          obs::Span compress_span("compress", step, g);
          const auto image_codec =
              codec::make_image_codec(view.codec, cfg.jpeg_quality);
          net::NetMessage msg;
          msg.type = net::MsgType::kFrame;
          msg.frame_index = step;
          msg.codec = view.codec;
          msg.payload =
              image_codec->encode_shared(frame, util::BufferPool::global());
          compress_span.end();
          obs::Span send_span("send", step, g);
          wire_bytes.fetch_add(msg.payload.size());
          ports[static_cast<std::size_t>(g)]->send(std::move(msg));
        }
      }

      if (leader) {
        const double sent = clock.seconds();
        util::LockGuard lock(records_mutex);
        auto& rec = records[step];
        rec.step = step;
        rec.group = g;
        rec.input_start = input_start;
        rec.input_done = input_done;
        rec.render_done = render_done;
        rec.composite_done = composite_done;
        rec.sent = sent;
      }
    }
  });

  // Renderers are done; tell the client in case it is short of frames
  // (e.g. a kStop control event ended the run early). Every port gets a
  // shutdown: over TCP each renderer port is its own connection, and a
  // frame from one connection can still be in flight when another
  // connection's shutdown reaches the hub — the client must hear from all
  // of them before concluding the stream is over.
  for (auto& port : ports) {
    net::NetMessage bye;
    bye.type = net::MsgType::kShutdown;
    port->send(std::move(bye));
  }
  client.join();
  for (auto& t : aux_threads) t.join();
  if (hub_server)
    hub_server->shutdown();
  else
    local_hub->shutdown();
  result.hub_client_stats = frame_hub.client_stats();
  if (renderer_error) std::rethrow_exception(renderer_error);
  result.adaptive_codec_switches = adaptive_switches.load();

  result.wire_bytes = wire_bytes.load();
  for (auto& [step, image] : kept_frames)
    result.displayed.push_back(std::move(image));
  result.control_events_applied = control_events.load();
  result.raw_bytes = static_cast<std::uint64_t>(pixels) * 3 *
                     static_cast<std::uint64_t>(steps);
  // Keep only frames that actually reached the display.
  for (auto& [step, rec] : records)
    if (rec.displayed > 0.0) result.frames.push_back(rec);
  if (result.frames.empty())
    for (auto& [step, rec] : records) result.frames.push_back(rec);
  result.metrics = Metrics::from_records(result.frames);
  return result;
}

}  // namespace tvviz::core
