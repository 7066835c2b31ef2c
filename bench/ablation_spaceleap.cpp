// Ablation (§7.1 preprocessing "hints to the renderer"): min-max block
// space leaping in the ray caster. Real measurement: wall time, samples
// evaluated, rays marched and leaps taken per frame, with and without
// leaping, across the three datasets.
// The image is bit-identical either way (skipped blocks classify to zero
// opacity); only the cost changes — and it changes most for sparse data.
//
// The second table is the session's own case: the four even ghost-1
// z-slabs a P=4 group renders of the perfbench workloads (the paper-size
// jet at 256², the scale-3 vortex at 128²), from the session camera, with
// the skipper attached as run_session attaches it. Per slab it prints the
// counted work and the minimum of --repeats single-threaded render() calls
// (the skipper is built outside the timing; shaded renders build their
// gradient records inside it), shaded and unshaded, with ns per sample.
//
// Exits 1 when any leaping image differs from the plain one, 2 on a flag
// it does not read.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench/common.hpp"
#include "core/session.hpp"
#include "field/decompose.hpp"
#include "field/generators.hpp"
#include "render/raycast.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

namespace {

/// True when `leap`, rendered with a skipper, holds exactly `plain`'s
/// pixels: bit-equal f32 channels where it covers them, and transparent
/// `plain` pixels wherever it does not.
bool same_pixels(const render::PartialImage& plain,
                 const render::PartialImage& leap) {
  const auto covers = [&](int x, int y) {
    return x >= leap.x0() && x < leap.x0() + leap.width() && y >= leap.y0() &&
           y < leap.y0() + leap.height();
  };
  int covered = 0;
  for (int y = 0; y < plain.height(); ++y)
    for (int x = 0; x < plain.width(); ++x) {
      const render::Rgba& p = plain.at(x, y);
      const int fx = plain.x0() + x, fy = plain.y0() + y;
      render::Rgba q{};
      if (covers(fx, fy)) {
        q = leap.at(fx - leap.x0(), fy - leap.y0());
        ++covered;
      }
      if (p.r != q.r || p.g != q.g || p.b != q.b || p.a != q.a) return false;
    }
  // Every leaping pixel lies inside the plain footprint.
  return covered == leap.width() * leap.height();
}

struct SlabRun {
  render::RenderCounts counts;
  double shaded_s = 0.0, unshaded_s = 0.0;
  bool identical = true;
};

/// Render `sub` (skipper attached) `repeats` times with each caster and
/// keep the fastest time. The casters render one slab after another, as a
/// rank's caster renders one step after another, so a gradient record a
/// render fails to refill holds another slab's value; the last image of
/// each is checked against a plain render by a fresh caster.
SlabRun run_slab(const render::Subvolume& sub, const field::Dims& dims,
                 const render::Camera& camera,
                 const render::TransferFunction& tf,
                 const render::RayCaster& shaded,
                 const render::RayCaster& unshaded, int repeats) {
  render::Subvolume plain_sub = sub;
  plain_sub.skipper = nullptr;
  SlabRun run;
  for (const render::RayCaster* caster : {&shaded, &unshaded}) {
    double best = std::numeric_limits<double>::infinity();
    render::PartialImage leap;
    for (int i = 0; i < repeats; ++i) {
      util::WallTimer timer;
      leap = caster->render(sub, dims, camera, tf);
      best = std::min(best, timer.seconds());
    }
    if (caster == &shaded) {
      run.shaded_s = best;
      run.counts = caster->last_counts();
    } else {
      run.unshaded_s = best;
    }
    const render::PartialImage plain =
        render::RayCaster(caster->options()).render(plain_sub, dims, camera,
                                                    tf);
    run.identical = run.identical && same_pixels(plain, leap);
  }
  return run;
}

double ns_per_sample(double seconds, std::size_t samples) {
  return samples ? seconds * 1e9 / static_cast<double>(samples) : 0.0;
}

void print_slab_row(const char* dataset, int image, const char* slab,
                    const SlabRun& run) {
  std::printf(
      "%-16s %5d %-9s | %8zu %6zu %6zu | %8.2f %6.1f | %8.2f %6.1f | %s\n",
      dataset, image, slab, run.counts.samples, run.counts.rays,
      run.counts.leaps, run.shaded_s * 1e3,
      ns_per_sample(run.shaded_s, run.counts.samples), run.unshaded_s * 1e3,
      ns_per_sample(run.unshaded_s, run.counts.samples),
      run.identical ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int size = static_cast<int>(flags.get_int("size", 256));
  const int repeats =
      std::max(1, static_cast<int>(flags.get_int("repeats", 5)));
  bench::init_observability(flags);
  bench::reject_unused(flags);

  bench::print_header(
      "Ablation — min-max space leaping in the ray caster (§7.1)",
      "per-frame wall time, samples, rays and leaps, with/without leaping");

  bool all_identical = true;
  struct Case {
    field::DatasetKind kind;
    int scale;
  };
  const Case cases[] = {{field::DatasetKind::kTurbulentJet, 1},
                        {field::DatasetKind::kTurbulentVortex, 1},
                        {field::DatasetKind::kShockMixing, 4}};

  std::printf("%-18s %9s | %-9s %9s %7s | %-9s %9s %7s %7s | %s\n",
              "dataset", "coverage", "plain", "samples", "rays", "leaping",
              "samples", "rays", "leaps", "identical");
  for (const auto& c : cases) {
    field::DatasetDesc desc;
    switch (c.kind) {
      case field::DatasetKind::kTurbulentJet:
        desc = field::turbulent_jet_desc();
        break;
      case field::DatasetKind::kTurbulentVortex:
        desc = field::turbulent_vortex_desc();
        break;
      case field::DatasetKind::kShockMixing:
        desc = field::scaled(field::shock_mixing_desc(), c.scale, 265);
        break;
    }
    const auto volume = field::generate(desc, desc.steps / 2);
    const auto tf = bench::colormap_for(c.kind);
    const render::Camera camera(size, size);
    // One caster per image: the leaping render must not read gradient
    // records that the plain render left behind.
    const render::RayCaster plain_caster, leap_caster;

    util::WallTimer t_plain;
    const auto plain = plain_caster.render_full(volume, camera, tf, false);
    const double plain_s = t_plain.seconds();
    const render::RenderCounts counts_plain = plain_caster.last_counts();

    util::WallTimer t_leap;
    const auto leap = leap_caster.render_full(volume, camera, tf, true);
    const double leap_s = t_leap.seconds();
    const render::RenderCounts counts_leap = leap_caster.last_counts();

    all_identical = all_identical && plain == leap;
    std::printf("%-18s %8.1f%% | %-9s %9zu %7zu | %-9s %9zu %7zu %7zu | %s\n",
                field::dataset_name(c.kind), 100.0 * volume.coverage(0.1f),
                bench::fmt_seconds(plain_s).c_str(), counts_plain.samples,
                counts_plain.rays, bench::fmt_seconds(leap_s).c_str(),
                counts_leap.samples, counts_leap.rays, counts_leap.leaps,
                plain == leap ? "yes" : "NO");
  }

  // The session's slabs: perfbench's two workloads at P=4, L=1, step 4.
  const core::SessionConfig session;
  render::RenderOptions unshaded_options = session.render_options;
  unshaded_options.shading = false;
  const render::RayCaster shaded(session.render_options);
  const render::RayCaster unshaded(unshaded_options);
  struct SessionCase {
    field::DatasetKind kind;
    int scale;
    int image;
  };
  const SessionCase session_cases[] = {
      {field::DatasetKind::kTurbulentJet, 1, 256},
      {field::DatasetKind::kTurbulentVortex, 3, 128}};
  constexpr int kNodes = 4, kSteps = 8;
  std::printf(
      "\nSession slabs: %d even ghost-1 z-slabs, step %d, camera az %.2f el "
      "%.2f zoom %.2f, minimum of %d single-threaded renders\n",
      kNodes, kSteps / 2, session.camera_azimuth, session.camera_elevation,
      session.camera_zoom, repeats);
  std::printf("%-16s %5s %-9s | %8s %6s %6s | %8s %6s | %8s %6s | %s\n",
              "dataset", "image", "slab z", "samples", "rays", "leaps",
              "shaded", "ns/smp", "unshaded", "ns/smp", "identical");
  for (const SessionCase& c : session_cases) {
    const field::DatasetDesc desc = field::scaled(
        c.kind == field::DatasetKind::kTurbulentJet
            ? field::turbulent_jet_desc()
            : field::turbulent_vortex_desc(),
        c.scale, kSteps);
    const field::VolumeF volume = field::generate(desc, kSteps / 2);
    const render::TransferFunction tf = bench::colormap_for(c.kind);
    const render::Camera camera(c.image, c.image, session.camera_azimuth,
                                session.camera_elevation, session.camera_zoom);
    SlabRun total;
    for (const field::Box& box : field::decompose_slabs(desc.dims, kNodes, 2)) {
      render::Subvolume sub;
      sub.storage_box = field::with_ghost(box, desc.dims, 1);
      sub.data = volume.extract(sub.storage_box);
      sub.render_box = box;
      sub.attach_skipper(tf);
      const SlabRun run =
          run_slab(sub, desc.dims, camera, tf, shaded, unshaded, repeats);
      char slab[32];
      std::snprintf(slab, sizeof slab, "%d-%d", box.lo[2], box.hi[2]);
      print_slab_row(field::dataset_name(c.kind), c.image, slab, run);
      total.counts.samples += run.counts.samples;
      total.counts.rays += run.counts.rays;
      total.counts.leaps += run.counts.leaps;
      total.shaded_s += run.shaded_s;
      total.unshaded_s += run.unshaded_s;
      total.identical = total.identical && run.identical;
    }
    print_slab_row(field::dataset_name(c.kind), c.image, "all", total);
    all_identical = all_identical && total.identical;
  }

  std::printf(
      "\nShape: leaping pays off in inverse proportion to coverage — the\n"
      "sparse jet skips most of its samples, the dense vortex almost none.\n"
      "Output images are bit-identical (the 'identical' column).\n");
  bench::finish_observability();
  if (!all_identical) {
    std::fprintf(stderr, "ablation_spaceleap: a leaping image differs\n");
    return 1;
  }
  return 0;
}
