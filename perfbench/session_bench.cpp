// Session benchmark: runs the real remote-visualization pipeline —
// core::run_session with four vmp ranks, binary-swap compositing, JPEG+LZO
// frames through the frame hub, and a decoding display client — back to
// back for a fixed time (closed loop: one session at a time) and reports:
//
//   --trace 0  the paper's §3 metrics (start-up latency, inter-frame delay,
//              overall time), process CPU time per frame and set-up time,
//              with span recording off;
//   --trace 1  a per-stage breakdown taken from the pipeline's own spans
//              (input, render, composite, compress, send, relay, display,
//              and the gaps between them) and counters (wire and vmp bytes).
//
// Every session is checked: each step is displayed exactly once and every
// frame is bit-identical to the frames of the set-up sessions, which are in
// turn checked against an independent single-node render of the same step.
//
//   session_bench --workload jet_store --seed 1 --seconds 30 --trace 0
//                 --scratch <dir>
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{"<name>":
//    {"value":..,"unit":".."},...}}
// where attempted/failed count frames.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "field/generators.hpp"
#include "field/store.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "render/camera.hpp"
#include "render/image.hpp"
#include "render/raycast.hpp"
#include "render/transfer.hpp"
#include "util/timer.hpp"

namespace {

using namespace tvviz;

// ----------------------------------------------------------- workloads ----

struct Workload {
  const char* name;
  field::DatasetKind kind;
  int scale;        ///< field::scaled factor (1 = the paper's resolution).
  int steps;        ///< Time steps played per session.
  int image;        ///< Square image side in pixels.
  bool from_store;  ///< Read steps from a materialized VolumeStore.
};

// Every workload runs four ranks in one group, so each frame is spread
// over all four cores of the host. In two groups the groups ran out of
// phase and a session's first frame raced the other group's renderers;
// with one or two ranks a frame took about 40% longer whenever the host
// slowed the core it ran on. Either way start-up latency spread by up to a
// quarter between runs.
constexpr int kProcessors = 4;
constexpr int kGroups = 1;
/// Set-up repeats until it has run this long (and at least three times),
/// so its median is not taken while an idle CPU is still ramping up.
constexpr double kSetupSeconds = 3.0;

// Why each workload exists is recorded in BENCHMARK.json.
const Workload kWorkloads[] = {
    {"jet_store", field::DatasetKind::kTurbulentJet, 1, 8, 256, true},
    {"vortex_l1", field::DatasetKind::kTurbulentVortex, 3, 8, 128, false},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

bool is_vortex(const Workload& w) {
  return w.kind == field::DatasetKind::kTurbulentVortex;
}

render::TransferFunction transfer_of(const Workload& w) {
  return is_vortex(w) ? render::TransferFunction::dense_cool_warm()
                      : render::TransferFunction::fire();
}

core::SessionConfig session_config(const Workload& w, std::uint64_t seed) {
  core::SessionConfig cfg;
  cfg.dataset = field::scaled(is_vortex(w) ? field::turbulent_vortex_desc()
                                           : field::turbulent_jet_desc(),
                              w.scale, w.steps);
  cfg.dataset.seed = seed;
  cfg.processors = kProcessors;
  cfg.groups = kGroups;
  cfg.image_width = cfg.image_height = w.image;
  cfg.codec = "jpeg+lzo";
  cfg.colormap = is_vortex(w) ? "dense" : "fire";
  // Frames travel through the in-process FrameHub. The TCP hub can reorder
  // a step behind the end-of-stream markers and lose it, so it stays out
  // until every run can deliver every frame.
  cfg.use_hub = true;
  // Lossless playback: the viewer's queue holds a whole session, so
  // newest-frame-wins never drops a step under a scheduling stall.
  cfg.hub_queue_frames = static_cast<std::size_t>(w.steps);
  cfg.keep_frames = true;
  return cfg;
}

// ------------------------------------------------------------- numbers ----

/// Linear-interpolated percentile, q in [0, 1]; 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// User plus system CPU time of the whole process (every pipeline thread).
double process_cpu_seconds() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

std::map<std::string, std::uint64_t> counter_values() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& s : obs::counters_snapshot())
    if (!s.is_gauge) out[s.name] = s.value;
  return out;
}

// ---------------------------------------------------------- correctness ----

/// Lowest PSNR (dB) a displayed frame may have against a single-node render
/// of the same step: JPEG at quality 75 plus slab-boundary shading
/// differences stay well above it, a wrong or scrambled frame falls far
/// below.
constexpr double kMinReferencePsnr = 25.0;

/// Frames of one session that were not displayed exactly once or, when
/// `golden` (step-ordered frames of an earlier session) is given, differ
/// from it. `why` receives the last reason found.
int count_bad_frames(const core::SessionResult& r, int steps,
                     const std::vector<render::Image>* golden,
                     std::string& why) {
  std::vector<int> seen(static_cast<std::size_t>(steps), 0);
  for (const auto& f : r.frames)
    if (f.step >= 0 && f.step < steps && f.displayed > 0.0)
      ++seen[static_cast<std::size_t>(f.step)];
  int bad = 0;
  for (int s = 0; s < steps; ++s)
    if (seen[static_cast<std::size_t>(s)] != 1) ++bad;
  if (bad > 0) why = "steps not displayed exactly once";
  if (static_cast<int>(r.displayed.size()) != steps) {
    why = "displayed frame count differs from steps";
    return std::max(bad, 1);
  }
  if (golden) {
    for (int s = 0; s < steps; ++s) {
      const auto i = static_cast<std::size_t>(s);
      if (!(r.displayed[i] == (*golden)[i])) {
        ++bad;
        why = "frame differs from the set-up session's";
      }
    }
  }
  return std::min(bad, steps);
}

/// Check the set-up frames against an independent single-node render of
/// the first, middle and last step. Returns the lowest PSNR seen.
double reference_psnr(const core::SessionConfig& cfg, const Workload& w,
                      const std::vector<render::Image>& frames) {
  const render::RayCaster caster(cfg.render_options);
  const render::Camera camera(cfg.image_width, cfg.image_height,
                              cfg.camera_azimuth, cfg.camera_elevation,
                              cfg.camera_zoom);
  const render::TransferFunction tf = transfer_of(w);
  double worst = INFINITY;
  for (int step : {0, w.steps / 2, w.steps - 1}) {
    const render::Image local =
        caster.render_full(field::generate(cfg.dataset, step), camera, tf);
    worst = std::min(
        worst, render::psnr(local, frames[static_cast<std::size_t>(step)]));
  }
  return worst;
}

// -------------------------------------------------------------- tracing ----

/// Per-stage samples (ms) gathered from the spans of traced sessions.
struct StageSamples {
  std::map<std::string, std::vector<double>> spans;  ///< By span name.
  std::vector<double> gather;   ///< Leader: composite end -> compress start.
  std::vector<double> transit;  ///< send end -> display start (hub, queue).
  std::vector<double> frame;    ///< Leader input start -> display end.
};

void collect_stages(const std::vector<obs::LaneSnapshot>& lanes,
                    StageSamples& out) {
  struct Marks {
    const obs::TraceEvent* input = nullptr;
    const obs::TraceEvent* composite = nullptr;
    const obs::TraceEvent* compress = nullptr;
    const obs::TraceEvent* send = nullptr;
    const obs::TraceEvent* display = nullptr;
  };
  // Per step, the lane that compressed it is the group leader; its own
  // input/composite spans delimit the frame's critical path.
  std::map<std::string, std::map<int, Marks>> by_lane;
  std::map<int, Marks> leader;
  for (const auto& lane : lanes) {
    const bool rank = lane.name.rfind("rank ", 0) == 0;
    if (!rank && lane.name != "display" && lane.name != "hub relay") continue;
    for (const auto& e : lane.events) {
      out.spans[e.name].push_back((e.end_s - e.start_s) * 1e3);
      Marks& m = by_lane[lane.name][e.step];
      if (std::strcmp(e.name, "input") == 0) m.input = &e;
      if (std::strcmp(e.name, "composite") == 0) m.composite = &e;
      if (std::strcmp(e.name, "compress") == 0) m.compress = &e;
      if (std::strcmp(e.name, "send") == 0) m.send = &e;
      if (std::strcmp(e.name, "display") == 0) leader[e.step].display = &e;
    }
  }
  for (const auto& [name, steps] : by_lane)
    for (const auto& [step, m] : steps)
      if (m.compress && m.send) {
        Marks& l = leader[step];
        l.input = m.input;
        l.composite = m.composite;
        l.compress = m.compress;
        l.send = m.send;
      }
  for (const auto& [step, m] : leader) {
    if (!m.compress || !m.send || !m.display) continue;
    if (m.composite)
      out.gather.push_back((m.compress->start_s - m.composite->end_s) * 1e3);
    out.transit.push_back((m.display->start_s - m.send->end_s) * 1e3);
    if (m.input)
      out.frame.push_back((m.display->end_s - m.input->start_s) * 1e3);
  }
}

// --------------------------------------------------------------- output ----

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path scratch;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_scratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val) != 0;
    } else if (key == "--scratch") {
      a.scratch = val;
      have_scratch = true;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!have_workload || !have_scratch)
    throw std::invalid_argument("--workload and --scratch are required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (!w) throw std::invalid_argument("unknown workload " + args.workload);
  const std::filesystem::path stores = args.scratch / "stores";
  core::SessionConfig cfg = session_config(*w, args.seed);
  const int steps = cfg.effective_steps();

  // ---- set-up, repeated (at least three times and kSetupSeconds):
  // materialize the input (store workloads) and play one full session,
  // which also warms every lazily built cache and the CPUs. Each set-up
  // writes a fresh store, so none pays for deleting the previous one; the
  // measured sessions read the last.
  std::vector<double> setup_s;
  core::SessionResult warm;
  util::WallTimer setup_clock;
  while (setup_s.size() < 3 || setup_clock.seconds() < kSetupSeconds) {
    util::WallTimer t;
    if (w->from_store) {
      cfg.store_dir = stores / std::to_string(setup_s.size());
      field::VolumeStore(*cfg.store_dir).materialize(cfg.dataset);
    }
    warm = core::run_session(cfg);
    setup_s.push_back(t.seconds());
  }
  std::string why;
  bool correct = count_bad_frames(warm, steps, nullptr, why) == 0;
  const double ref_psnr =
      correct ? reference_psnr(cfg, *w, warm.displayed) : 0.0;
  if (correct && !(ref_psnr >= kMinReferencePsnr)) {
    correct = false;
    why = "set-up frames differ from a single-node render";
  }
  const std::vector<render::Image> golden = std::move(warm.displayed);

  // ---- measurement: sessions back to back until the time is up.
  obs::enable_tracing(args.trace);
  const auto counters_before = counter_values();
  const double cpu_before = process_cpu_seconds();
  std::vector<double> startup_ms, inter_frame_ms, overall_ms, gaps;
  StageSamples stages;
  long sessions = 0, attempted = 0, failed = 0;
  std::uint64_t wire_bytes = 0;
  util::WallTimer run_clock;
  while (sessions == 0 || run_clock.seconds() < args.seconds) {
    if (args.trace) obs::clear_trace();
    ++sessions;
    attempted += steps;
    core::SessionResult r;
    try {
      r = core::run_session(cfg);
    } catch (const std::exception& e) {
      failed += steps;
      why = std::string("run_session threw: ") + e.what();
      continue;
    }
    if (args.trace) collect_stages(obs::snapshot_trace(), stages);
    const int bad = count_bad_frames(r, steps, &golden, why);
    failed += bad;
    if (bad > 0) continue;
    startup_ms.push_back(r.metrics.startup_latency * 1e3);
    inter_frame_ms.push_back(r.metrics.inter_frame_delay * 1e3);
    overall_ms.push_back(r.metrics.overall_time * 1e3);
    wire_bytes += r.wire_bytes;
    std::vector<double> shown;
    for (const auto& f : r.frames) shown.push_back(f.displayed);
    std::sort(shown.begin(), shown.end());
    for (std::size_t i = 1; i < shown.size(); ++i)
      gaps.push_back((shown[i] - shown[i - 1]) * 1e3);
  }
  const double cpu_s = process_cpu_seconds() - cpu_before;
  obs::enable_tracing(false);
  const double measured_s = run_clock.seconds();
  if (failed > 0) correct = false;
  std::filesystem::remove_all(stores);

  const long good_frames = attempted - failed;
  const double per_good_frame = 1.0 / static_cast<double>(
                                          std::max(1L, good_frames));
  std::printf("workload %s seed %llu: %ld sessions x %d steps in %.2f s; "
              "display gaps p50 %.2f ms, p90 %.2f ms over %zu gaps; %zu "
              "set-ups (first %.3f s); reference PSNR %.1f dB%s%s\n",
              w->name, static_cast<unsigned long long>(args.seed), sessions,
              steps, measured_s, median(gaps), percentile(gaps, 0.9),
              gaps.size(), setup_s.size(), setup_s[0], ref_psnr,
              correct ? "" : "; FAILED: ", correct ? "" : why.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"startup_ms", median(startup_ms), "ms"},
        {"inter_frame_ms", median(inter_frame_ms), "ms"},
        {"overall_ms", median(overall_ms), "ms"},
        {"cpu_ms_per_frame", cpu_s * 1e3 * per_good_frame, "ms"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    const auto counters_after = counter_values();
    const auto per_frame = [&](const char* name) {
      const auto at = [name](const std::map<std::string, std::uint64_t>& m) {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : static_cast<double>(it->second);
      };
      return (at(counters_after) - at(counters_before)) * per_good_frame;
    };
    const auto span_p = [&](const char* name, double q) {
      return percentile(stages.spans[name], q);
    };
    metrics = {
        {"input_ms", span_p("input", 0.5), "ms"},
        {"render_ms", span_p("render", 0.5), "ms"},
        {"render_p90_ms", span_p("render", 0.9), "ms"},
        {"composite_ms", span_p("composite", 0.5), "ms"},
        {"composite_p90_ms", span_p("composite", 0.9), "ms"},
        {"gather_ms", median(stages.gather), "ms"},
        {"compress_ms", span_p("compress", 0.5), "ms"},
        {"send_ms", span_p("send", 0.5), "ms"},
        {"relay_ms", span_p("relay", 0.5), "ms"},
        {"transit_ms", median(stages.transit), "ms"},
        {"display_ms", span_p("display", 0.5), "ms"},
        {"frame_ms", median(stages.frame), "ms"},
        {"traced_inter_frame_ms", median(inter_frame_ms), "ms"},
        {"wire_kib_per_frame",
         static_cast<double>(wire_bytes) / 1024.0 * per_good_frame, "KiB"},
        {"vmp_kib_per_frame", per_frame("vmp.bytes_sent") / 1024.0, "KiB"},
        {"vmp_msgs_per_frame", per_frame("vmp.messages_sent"), "count"},
    };
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // One codec worker: frames encode inline on the group leader, so the
  // thread count and the encoded bytes do not depend on the host's CPU
  // count, and the ranks never share a core with codec helpers. Decoded
  // frames are the same for any worker count.
  ::setenv("TVVIZ_CODEC_WORKERS", "1", 1);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "session_bench: %s\n", e.what());
    std::fprintf(stderr,
                 "usage: session_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --scratch <dir>\nworkloads:");
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
}
