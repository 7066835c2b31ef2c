#include "bench/common.hpp"

#include <cstdlib>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace tvviz::bench {

namespace {
std::string g_trace_out;
std::string g_counters_out;
}  // namespace

void reject_unused(const util::Flags& flags) {
  try {
    flags.reject_unused();
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

void init_observability(const util::Flags& flags) {
  g_trace_out = flags.get("trace-out", "");
  g_counters_out = flags.get("counters-json", "");
  if (!g_trace_out.empty()) obs::enable_tracing(true);
}

void finish_observability() {
  if (!g_trace_out.empty()) {
    if (obs::write_chrome_trace_file(g_trace_out))
      std::printf("\ntrace written to %s\n", g_trace_out.c_str());
    else
      std::fprintf(stderr, "failed to write trace to %s\n",
                   g_trace_out.c_str());
  }
  if (!g_counters_out.empty()) {
    if (obs::write_counters_json_file(g_counters_out))
      std::printf("counters written to %s\n", g_counters_out.c_str());
    else
      std::fprintf(stderr, "failed to write counters to %s\n",
                   g_counters_out.c_str());
  }
}

render::Image render_frame(field::DatasetKind kind, int size,
                           double step_fraction) {
  field::DatasetDesc desc;
  switch (kind) {
    case field::DatasetKind::kTurbulentJet:
      desc = field::turbulent_jet_desc();
      break;
    case field::DatasetKind::kTurbulentVortex:
      desc = field::turbulent_vortex_desc();
      break;
    case field::DatasetKind::kShockMixing:
      // Render the mixing set at quarter resolution: image content is
      // equivalent for compression purposes and generation stays fast.
      desc = field::scaled(field::shock_mixing_desc(), 4, 265);
      break;
  }
  const int step = static_cast<int>(step_fraction * (desc.steps - 1));
  const field::VolumeF vol = field::generate(desc, step);
  render::RayCaster caster;
  return caster.render_full(vol, render::Camera(size, size),
                            colormap_for(kind));
}

render::TransferFunction colormap_for(field::DatasetKind kind) {
  switch (kind) {
    case field::DatasetKind::kTurbulentVortex:
      return render::TransferFunction::dense_cool_warm();
    case field::DatasetKind::kShockMixing:
      return render::TransferFunction::shock();
    default:
      return render::TransferFunction::fire();
  }
}

void print_header(const std::string& title, const std::string& subtitle) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf("============================================================\n");
}

std::string fmt_seconds(double s) {
  char buf[64];
  if (s < 1.0)
    std::snprintf(buf, sizeof buf, "%.1f ms", s * 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.2f s", s);
  return buf;
}

std::string fmt_bytes(double bytes) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.0f", bytes);
  std::string digits = buf;
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out.insert(out.begin(), ',');
    out.insert(out.begin(), *it);
    ++count;
  }
  return out;
}

}  // namespace tvviz::bench
