// tvviz — command-line front end to the library. Subcommands cover the
// workflows a user of the paper's system runs: materializing datasets,
// rendering stills, playing a remote session, choosing a partitioning,
// planning previews and comparing codecs.
//
//   tvviz info
//   tvviz materialize --dataset jet --scale 4 --steps 16 --dir data
//   tvviz render      --dataset jet --step 75 --size 256 --out jet.ppm
//                     [--renderer shearwarp] [--azimuth 0.6] [--elevation 0.35]
//   tvviz play        --dataset jet --processors 6 --groups 2 --steps 8
//                     [--codec jpeg+lzo] [--size 128] [--outdir frames]
//   tvviz hub         --dataset jet --clients 3 [--tcp] [--slow-client 10]
//   tvviz relay       --upstream-port P [--listen-port P] [--edge-id NAME]
//   tvviz sweep       --processors 32 [--machine rwcp|o2k] [--steps 128]
//   tvviz analyze     --dataset jet --steps 32 [--budget 8]
//   tvviz codecs      [--size 256] [--quality 75]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "codec/image_codec.hpp"
#include "core/perfmodel.hpp"
#include "fault/fault.hpp"
#include "core/pipesim.hpp"
#include "core/session.hpp"
#include "field/preview.hpp"
#include "field/store.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "relay/relay.hpp"
#include "render/shearwarp.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

namespace {

field::DatasetDesc dataset_from_flags(const util::Flags& flags) {
  const std::string name =
      flags.get_choice("dataset", "jet", {"jet", "vortex", "mixing"});
  const int scale = static_cast<int>(flags.get_int("scale", 1));
  const int steps = static_cast<int>(flags.get_int("steps", 0));
  field::DatasetDesc desc = name == "vortex" ? field::turbulent_vortex_desc()
                            : name == "mixing" ? field::shock_mixing_desc()
                                               : field::turbulent_jet_desc();
  if (scale > 1 || steps > 0)
    desc = field::scaled(desc, std::max(1, scale),
                         steps > 0 ? steps : desc.steps);
  return desc;
}

render::TransferFunction colormap_for(const field::DatasetDesc& desc) {
  switch (desc.kind) {
    case field::DatasetKind::kTurbulentVortex:
      return render::TransferFunction::dense_cool_warm();
    case field::DatasetKind::kShockMixing:
      return render::TransferFunction::shock();
    default:
      return render::TransferFunction::fire();
  }
}

int cmd_info(const util::Flags& flags) {
  flags.reject_unused();
  std::printf("datasets (paper presets; shrink with --scale/--steps):\n");
  for (const auto& desc :
       {field::turbulent_jet_desc(), field::turbulent_vortex_desc(),
        field::shock_mixing_desc()}) {
    std::printf("  %-18s %4d x %3d x %3d, %3d steps, %7.1f MB/step\n",
                field::dataset_name(desc.kind), desc.dims.nx, desc.dims.ny,
                desc.dims.nz, desc.steps,
                static_cast<double>(desc.bytes_per_step()) / 1e6);
  }
  std::printf("\ncodecs:");
  for (const auto& name : codec::image_codec_names())
    std::printf(" %s", name.c_str());
  std::printf("\n");
  std::printf("machine profiles: rwcp (Japan cluster), o2k (NASA Ames)\n");
  std::printf("colormaps: fire dense shock\n");
  return 0;
}

int cmd_materialize(const util::Flags& flags) {
  const auto desc = dataset_from_flags(flags);
  const std::filesystem::path dir = flags.get("dir", "data");
  flags.reject_unused();
  util::WallTimer timer;
  const std::size_t bytes = field::VolumeStore(dir).materialize(desc);
  std::printf("materialized %s: %d steps, %.1f MB -> %s in %.1f s\n",
              field::dataset_name(desc.kind), desc.steps,
              static_cast<double>(bytes) / 1e6, dir.string().c_str(),
              timer.seconds());
  return 0;
}

int cmd_render(const util::Flags& flags) {
  const auto desc = dataset_from_flags(flags);
  const int step = static_cast<int>(flags.get_int("step", desc.steps / 2));
  const int size = static_cast<int>(flags.get_int("size", 256));
  const std::string out = flags.get("out", "frame.ppm");
  const std::string renderer =
      flags.get_choice("renderer", "raycast", {"raycast", "shearwarp"});
  const render::Camera camera(size, size, flags.get_double("azimuth", 0.6),
                              flags.get_double("elevation", 0.35),
                              flags.get_double("zoom", 1.0));
  const bool space_leap = flags.get_bool("space-leap", true);
  const std::string codec_name = flags.get("codec", "jpeg+lzo");
  const int quality = static_cast<int>(flags.get_int("quality", 75));
  flags.reject_unused();

  const auto volume = field::generate(desc, step);
  const auto tf = colormap_for(desc);
  util::WallTimer timer;
  render::Image frame;
  if (renderer == "shearwarp") {
    render::ShearWarpRenderer sw;
    frame = sw.render(sw.preprocess(volume, tf), camera);
  } else {
    render::RayCaster caster;
    frame = caster.render_full(volume, camera, tf, space_leap);
  }
  const double t = timer.seconds();
  frame.write_ppm(out);

  const auto codec = codec::make_image_codec(codec_name, quality);
  const auto packed = codec->encode(frame);
  std::printf("%s step %d -> %s (%dx%d, %s, %.2f s); %s: %zu bytes "
              "(%.1f%% reduction)\n",
              field::dataset_name(desc.kind), step, out.c_str(), size, size,
              renderer.c_str(), t, codec_name.c_str(), packed.size(),
              100.0 * (1.0 - static_cast<double>(packed.size()) /
                                 (static_cast<double>(size) * size * 3)));
  return 0;
}

int cmd_play(const util::Flags& flags) {
  core::SessionConfig cfg;
  cfg.dataset = dataset_from_flags(flags);
  if (cfg.dataset.dims.voxels() > 64ull << 20)
    std::printf("note: large dataset; consider --scale\n");
  cfg.processors = static_cast<int>(flags.get_int("processors", 4));
  cfg.groups = static_cast<int>(flags.get_int("groups", 2));
  cfg.image_width = cfg.image_height =
      static_cast<int>(flags.get_int("size", 128));
  cfg.codec = flags.get("codec", "jpeg+lzo");
  cfg.jpeg_quality = static_cast<int>(flags.get_int("quality", 75));
  cfg.colormap = cfg.dataset.kind == field::DatasetKind::kTurbulentVortex
                     ? "dense"
                 : cfg.dataset.kind == field::DatasetKind::kShockMixing
                     ? "shock"
                     : "fire";
  cfg.azimuth_per_step = flags.get_double("spin", 0.0);
  if (flags.has("store")) cfg.store_dir = flags.get("store", "data");
  cfg.wait_for_store = flags.get_bool("follow", false);
  cfg.use_tcp = flags.get_bool("tcp", false);
  const std::string compression = flags.get_choice(
      "compression", "assembled", {"assembled", "pieces", "collective"});
  if (compression == "pieces")
    cfg.compression = core::SessionConfig::Compression::kParallelPieces;
  if (compression == "collective")
    cfg.compression = core::SessionConfig::Compression::kCollective;
  const bool save = flags.has("outdir");
  const std::filesystem::path outdir = flags.get("outdir", "frames");
  cfg.keep_frames = save;
  flags.reject_unused();

  const auto result = core::run_session(cfg);
  std::printf("frames: %zu | startup %.3f s | overall %.3f s | "
              "inter-frame %.3f s (%.1f fps) | wire %.1f kB (%.1fx reduction)\n",
              result.frames.size(), result.metrics.startup_latency,
              result.metrics.overall_time, result.metrics.inter_frame_delay,
              result.metrics.frames_per_second(),
              static_cast<double>(result.wire_bytes) / 1024.0,
              static_cast<double>(result.raw_bytes) /
                  static_cast<double>(std::max<std::uint64_t>(1, result.wire_bytes)));
  if (save) {
    std::filesystem::create_directories(outdir);
    for (std::size_t i = 0; i < result.displayed.size(); ++i) {
      char name[32];
      std::snprintf(name, sizeof name, "frame_%04zu.ppm", i);
      result.displayed[i].write_ppm(outdir / name);
    }
    std::printf("wrote %zu frames to %s/\n", result.displayed.size(),
                outdir.string().c_str());
  }
  return 0;
}

int cmd_hub(const util::Flags& flags) {
  core::SessionConfig cfg;
  cfg.dataset = dataset_from_flags(flags);
  cfg.processors = static_cast<int>(flags.get_int("processors", 4));
  cfg.groups = static_cast<int>(flags.get_int("groups", 2));
  cfg.image_width = cfg.image_height =
      static_cast<int>(flags.get_int("size", 128));
  cfg.codec = flags.get("codec", "jpeg+lzo");
  cfg.jpeg_quality = static_cast<int>(flags.get_int("quality", 75));
  cfg.use_hub = true;
  cfg.use_tcp = flags.get_bool("tcp", false);
  cfg.hub_clients = static_cast<int>(flags.get_int("clients", 3));
  cfg.hub_cache_steps =
      static_cast<std::size_t>(flags.get_int("cache-steps", 32));
  cfg.hub_queue_frames =
      static_cast<std::size_t>(flags.get_int("queue-frames", 8));
  cfg.hub_heartbeat_timeout_s = flags.get_double("heartbeat-timeout", 0.0);
  cfg.hub_slow_client_scale = flags.get_double("slow-client", 0.0);
  cfg.adaptive_target_frame_s = flags.get_double("adaptive", 0.0);
  flags.reject_unused();

  const auto result = core::run_session(cfg);
  std::printf("frames: %zu | startup %.3f s | overall %.3f s | "
              "inter-frame %.3f s (%.1f fps) | wire %.1f kB\n",
              result.frames.size(), result.metrics.startup_latency,
              result.metrics.overall_time, result.metrics.inter_frame_delay,
              result.metrics.frames_per_second(),
              static_cast<double>(result.wire_bytes) / 1024.0);
  std::printf("%-12s %-10s %10s %10s %10s %10s\n", "client", "state",
              "delivered", "skipped", "resumed", "last-ack");
  for (const auto& c : result.hub_client_stats)
    std::printf("%-12s %-10s %10llu %10llu %10llu %10d\n", c.id.c_str(),
                c.connected ? "connected" : "gone",
                static_cast<unsigned long long>(c.messages_delivered),
                static_cast<unsigned long long>(c.steps_skipped),
                static_cast<unsigned long long>(c.messages_resumed),
                c.last_acked_step);
  if (cfg.adaptive_target_frame_s > 0.0)
    std::printf("adaptive codec switches: %d\n",
                result.adaptive_codec_switches);
  return 0;
}

int cmd_relay(const util::Flags& flags) {
  const int upstream = static_cast<int>(flags.get_int("upstream-port", 0));
  if (upstream <= 0) {
    std::fprintf(stderr,
                 "tvviz relay: --upstream-port is required (the root hub's "
                 "viewer port)\n");
    return 2;
  }
  relay::EdgeHubConfig cfg;
  cfg.upstream_port = upstream;
  cfg.listen_port = static_cast<int>(flags.get_int("listen-port", 0));
  cfg.edge_id = flags.get("edge-id", "edge");
  cfg.tree_depth = static_cast<int>(flags.get_int("depth", 1));
  cfg.hub.cache_steps =
      static_cast<std::size_t>(flags.get_int("cache-steps", 32));
  cfg.hub.client_queue_frames =
      static_cast<std::size_t>(flags.get_int("queue-frames", 8));
  // Serve until the root signs off (or --duration seconds, for scripting).
  const double duration = flags.get_double("duration", 0.0);
  flags.reject_unused();
  relay::EdgeHub edge(cfg);
  std::printf("edge '%s' up: upstream 127.0.0.1:%d -> viewers on port %d\n",
              edge.upstream_id().c_str(), upstream, edge.port());

  util::WallTimer clock;
  while (!edge.stream_ended() &&
         (duration <= 0.0 || clock.seconds() < duration))
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const auto s = edge.stats();
  std::printf("forwarded %llu | upstream %.1f kB, %llu reconnects\n",
              static_cast<unsigned long long>(s.frames_forwarded),
              static_cast<double>(s.upstream_bytes) / 1024.0,
              static_cast<unsigned long long>(s.upstream_reconnects));
  edge.shutdown();
  return 0;
}

int cmd_sweep(const util::Flags& flags) {
  core::PipelineConfig cfg;
  cfg.processors = static_cast<int>(flags.get_int("processors", 32));
  cfg.dataset = dataset_from_flags(flags);
  cfg.steps_limit = static_cast<int>(flags.get_int("sim-steps", 128));
  cfg.image_width = cfg.image_height =
      static_cast<int>(flags.get_int("size", 256));
  cfg.costs = flags.get_choice("machine", "rwcp", {"rwcp", "o2k"}) == "o2k"
                  ? core::StageCosts::o2k_paper()
                  : core::StageCosts::rwcp_paper();
  cfg.codec = core::CodecProfile::paper(flags.get("codec", "jpeg+lzo"));
  cfg.io_servers = static_cast<int>(flags.get_int("io-servers", 1));
  flags.reject_unused();

  std::printf("%-6s %-12s %-12s %-12s\n", "L", "overall", "startup",
              "inter-frame");
  int best = 1;
  double best_t = 1e300;
  for (int l = 1; l <= cfg.processors; l *= 2) {
    cfg.groups = l;
    const auto r = core::simulate_pipeline(cfg);
    std::printf("%-6d %8.1f s %10.2f s %10.2f s\n", l,
                r.metrics.overall_time, r.metrics.startup_latency,
                r.metrics.inter_frame_delay);
    if (r.metrics.overall_time < best_t) {
      best_t = r.metrics.overall_time;
      best = l;
    }
  }
  std::printf("recommended partitions: %d (analytic model: %d)\n", best,
              core::optimal_partitions(cfg));
  return 0;
}

int cmd_analyze(const util::Flags& flags) {
  const auto desc = dataset_from_flags(flags);
  const int probes = static_cast<int>(flags.get_int("probes", 1024));
  const int budget = static_cast<int>(flags.get_int("budget", 8));
  flags.reject_unused();
  const auto summary = field::TemporalSummary::analyze(desc, probes);
  std::printf("%s: %d steps, total change %.3f\n",
              field::dataset_name(desc.kind), summary.steps(),
              summary.total_change());
  std::printf("step deltas: ");
  for (int s = 0; s < summary.steps(); ++s)
    std::printf("%.3f ", summary.delta(s));
  std::printf("\n");
  const auto plan = summary.select_budget(budget);
  std::printf("preview plan (budget %d): ", budget);
  for (int s : plan) std::printf("%d ", s);
  std::printf("\n(pass these to the session's step_map for preview mode)\n");
  return 0;
}

int cmd_codecs(const util::Flags& flags) {
  const auto desc = dataset_from_flags(flags);
  const int size = static_cast<int>(flags.get_int("size", 256));
  const int quality = static_cast<int>(flags.get_int("quality", 75));
  flags.reject_unused();
  render::RayCaster caster;
  const auto frame =
      caster.render_full(field::generate(desc, desc.steps / 2),
                         render::Camera(size, size), colormap_for(desc), true);
  std::printf("%-12s %12s %10s %12s %12s %10s\n", "codec", "bytes", "ratio",
              "encode", "decode", "psnr");
  for (const auto& name : codec::table1_codec_names()) {
    const auto codec = codec::make_image_codec(name, quality);
    util::WallTimer te;
    const auto packed = codec->encode(frame);
    const double enc = te.seconds();
    util::WallTimer td;
    const auto out = codec->decode(packed);
    const double dec = td.seconds();
    const double psnr = render::psnr(frame, out);
    std::printf("%-12s %12zu %9.1fx %10.1f ms %10.1f ms %9.1f\n",
                name.c_str(), packed.size(),
                static_cast<double>(size) * size * 3 / packed.size(),
                enc * 1e3, dec * 1e3, psnr);
  }
  return 0;
}

void usage() {
  std::printf(
      "tvviz — remote parallel visualization of time-varying volume data\n"
      "usage: tvviz <command> [--flags]\n"
      "commands:\n"
      "  info          list datasets, codecs and machine profiles\n"
      "  materialize   write a dataset's time steps to a store\n"
      "  render        render one time step to a PPM\n"
      "  play          run the full remote pipeline and report §3 metrics\n"
      "  hub           play through the multi-client hub: --clients N,\n"
      "                [--tcp] [--slow-client SCALE] [--cache-steps N]\n"
      "                [--queue-frames N] [--heartbeat-timeout S]\n"
      "                [--adaptive SECONDS-PER-FRAME]\n"
      "  relay         run an edge hub of the relay tree: subscribe to\n"
      "                --upstream-port, serve viewers from the edge cache\n"
      "                [--listen-port P] [--edge-id NAME] [--depth N]\n"
      "                [--cache-steps N] [--queue-frames N] [--duration S]\n"
      "  sweep         sweep the processor partitioning (Figure 6 tool)\n"
      "  analyze       temporal summary + preview plan (§7.1)\n"
      "  codecs        compare the compressors on a rendered frame\n"
      "observability (any command):\n"
      "  --trace <file>          record pipeline spans, write Chrome\n"
      "                          trace_event JSON (Perfetto-loadable)\n"
      "  --counters-json <file>  dump the counter registry as JSON\n"
      "chaos testing (any command):\n"
      "  --fault-seed <N>        inject seeded latency faults (send delays,\n"
      "                          receive stalls) into every TCP connection;\n"
      "                          the same seed replays the same faults\n"
      "                          (counted under net.fault.*)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  const util::Flags flags(argc - 1, argv + 1);
  const std::string trace_out = flags.get("trace", "");
  const std::string counters_out = flags.get("counters-json", "");
  if (!trace_out.empty()) obs::enable_tracing(true);
  const auto dump_observability = [&] {
    if (!trace_out.empty()) {
      if (obs::write_chrome_trace_file(trace_out))
        std::printf("trace written to %s\n", trace_out.c_str());
      else
        std::fprintf(stderr, "failed to write trace to %s\n",
                     trace_out.c_str());
    }
    if (!counters_out.empty()) {
      if (obs::write_counters_json_file(counters_out))
        std::printf("counters written to %s\n", counters_out.c_str());
      else
        std::fprintf(stderr, "failed to write counters to %s\n",
                     counters_out.c_str());
    }
  };
  try {
    // Seeded latency-only chaos for any command that opens TCP connections
    // (play --tcp, hub --tcp): frames are delayed/stalled, never lost.
    std::optional<fault::ScopedFaultPlan> chaos;
    const auto fault_seed =
        static_cast<std::uint64_t>(flags.get_int("fault-seed", 0));
    if (fault_seed != 0)
      chaos.emplace(fault::FaultPlan::latency_chaos(fault_seed));
    int rc = 2;
    if (command == "info")
      rc = cmd_info(flags);
    else if (command == "materialize")
      rc = cmd_materialize(flags);
    else if (command == "render")
      rc = cmd_render(flags);
    else if (command == "play")
      rc = cmd_play(flags);
    else if (command == "hub")
      rc = cmd_hub(flags);
    else if (command == "relay")
      rc = cmd_relay(flags);
    else if (command == "sweep")
      rc = cmd_sweep(flags);
    else if (command == "analyze")
      rc = cmd_analyze(flags);
    else if (command == "codecs")
      rc = cmd_codecs(flags);
    else {
      std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
      usage();
      return 2;
    }
    dump_observability();
    return rc;
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "tvviz %s: %s\n", command.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvviz %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
