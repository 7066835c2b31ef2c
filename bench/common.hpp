// Shared helpers for the benchmark harnesses that regenerate the paper's
// tables and figures.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "field/generators.hpp"
#include "render/camera.hpp"
#include "render/image.hpp"
#include "render/raycast.hpp"
#include "render/transfer.hpp"
#include "util/flags.hpp"

namespace tvviz::bench {

/// The four image sizes the paper evaluates (Tables 1-2, Figures 8-9, 11).
inline const std::vector<int>& paper_image_sizes() {
  static const std::vector<int> sizes = {128, 256, 512, 1024};
  return sizes;
}

/// Render one representative frame of a dataset at `size`^2 pixels.
/// The full-resolution volume is used so image content (and therefore
/// compressed size) matches the paper's workload; `step_fraction` picks the
/// point in the sequence (mid-run by default: developed structures).
render::Image render_frame(field::DatasetKind kind, int size,
                           double step_fraction = 0.5);

/// The per-dataset default transfer function.
render::TransferFunction colormap_for(field::DatasetKind kind);

/// Print a horizontal rule and a centered title.
void print_header(const std::string& title, const std::string& subtitle);

/// Human-readable seconds (ms below 1 s).
std::string fmt_seconds(double s);

/// Thousands-separated byte count.
std::string fmt_bytes(double bytes);

/// Exit 2, naming them on stderr, when the command line holds a flag the
/// harness never read or a stray word (util::Flags::reject_unused). Call
/// once every flag is read, before any work.
void reject_unused(const util::Flags& flags);

/// Observability plumbing shared by every harness: `--trace-out <file>`
/// turns on span recording and arranges a Chrome trace_event JSON dump
/// (loadable in Perfetto / chrome://tracing); `--counters-json <file>`
/// arranges a dump of the counter registry. Call init before the workload
/// and finish after it.
void init_observability(const util::Flags& flags);
void finish_observability();

}  // namespace tvviz::bench
