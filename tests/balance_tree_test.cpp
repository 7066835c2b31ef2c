// Tests for binary-tree compositing, weighted slab decomposition and
// load-balanced sessions.
#include <gtest/gtest.h>

#include "compositing/binary_swap.hpp"
#include "compositing/over.hpp"
#include "core/session.hpp"
#include "field/decompose.hpp"
#include "field/preview.hpp"
#include "render/transfer.hpp"
#include "util/rng.hpp"
#include "vmp/communicator.hpp"

namespace tvviz {
namespace {

using field::Box;
using field::Dims;
using render::Image;
using render::PartialImage;
using render::Rgba;

// ------------------------------------------------------- tree composite ----

PartialImage monotone_partial(int rank, int w, int h) {
  util::Rng rng(static_cast<std::uint64_t>(rank) * 31 + 5);
  PartialImage p(0, 0, w, h);
  p.set_depth(rank);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const double a = rng.uniform(0.0, 0.7);
      p.at(x, y) = Rgba{a * rng.uniform(), a * rng.uniform(), a, a};
    }
  return p;
}

class TreeComposite : public ::testing::TestWithParam<int> {};

TEST_P(TreeComposite, MatchesReference) {
  const int ranks = GetParam();
  constexpr int kW = 20, kH = 16;
  std::vector<PartialImage> partials;
  for (int r = 0; r < ranks; ++r) partials.push_back(monotone_partial(r, kW, kH));
  const Image expected = compositing::composite_reference(partials, kW, kH);

  Image actual;
  vmp::Cluster::run(ranks, [&](vmp::Communicator& comm) {
    const Image img = compositing::tree_composite(
        comm, partials[static_cast<std::size_t>(comm.rank())], kW, kH);
    if (comm.rank() == 0) actual = img;
  });
  ASSERT_EQ(actual.width(), kW);
  const auto pa = expected.bytes();
  const auto pb = actual.bytes();
  for (std::size_t i = 0; i < pa.size(); ++i)
    ASSERT_LE(std::abs(int(pa[i]) - int(pb[i])), 1) << "ranks=" << ranks;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TreeComposite,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

// ------------------------------------------------ weighted decomposition ----

TEST(WeightedSlabs, EqualWeightsMatchEvenSplit) {
  const Dims dims{8, 8, 12};
  std::vector<double> weights(12, 1.0);
  const auto even = field::decompose_slabs(dims, 4, 2);
  const auto weighted = field::decompose_slabs_weighted(dims, 4, 2, weights);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(weighted[static_cast<std::size_t>(i)].lo[2],
              even[static_cast<std::size_t>(i)].lo[2]);
    EXPECT_EQ(weighted[static_cast<std::size_t>(i)].hi[2],
              even[static_cast<std::size_t>(i)].hi[2]);
  }
}

TEST(WeightedSlabs, HeavyRegionGetsThinnerSlabs) {
  const Dims dims{8, 8, 20};
  std::vector<double> weights(20, 0.0);
  for (int k = 0; k < 5; ++k) weights[static_cast<std::size_t>(k)] = 10.0;
  const auto boxes = field::decompose_slabs_weighted(dims, 4, 2, weights);
  // The heavy first quarter carries nearly all the work: the first slabs
  // must be thin and the last slab must absorb the empty tail.
  EXPECT_LE(boxes[0].hi[2] - boxes[0].lo[2], 3);
  EXPECT_GE(boxes[3].hi[2] - boxes[3].lo[2], 10);
  // Still a tiling.
  EXPECT_EQ(boxes[0].lo[2], 0);
  EXPECT_EQ(boxes[3].hi[2], 20);
  for (int i = 1; i < 4; ++i)
    EXPECT_EQ(boxes[static_cast<std::size_t>(i)].lo[2],
              boxes[static_cast<std::size_t>(i - 1)].hi[2]);
}

TEST(WeightedSlabs, EverySlabKeepsAtLeastOnePlane) {
  const Dims dims{4, 4, 6};
  std::vector<double> weights = {100, 0, 0, 0, 0, 0};
  const auto boxes = field::decompose_slabs_weighted(dims, 6, 2, weights);
  for (const auto& b : boxes) EXPECT_GE(b.hi[2] - b.lo[2], 1);
}

TEST(WeightedSlabs, RejectsBadArguments) {
  const Dims dims{4, 4, 8};
  std::vector<double> weights(8, 1.0);
  EXPECT_THROW(field::decompose_slabs_weighted(dims, 4, 5, weights),
               std::invalid_argument);
  EXPECT_THROW(field::decompose_slabs_weighted(dims, 9, 2, weights),
               std::invalid_argument);
  std::vector<double> wrong(5, 1.0);
  EXPECT_THROW(field::decompose_slabs_weighted(dims, 2, 2, wrong),
               std::invalid_argument);
}

TEST(PlaneWeights, TracksVisibleWork) {
  // The jet is empty near the nozzle floor (y small) but along z the plume
  // sits mid-domain: probe against the fire threshold and check the
  // mid-planes outweigh the border planes.
  const auto desc = field::scaled(field::turbulent_jet_desc(), 4, 4);
  const auto tf = render::TransferFunction::fire();
  const auto weights = field::estimate_plane_weights(
      desc, 2, /*axis=*/0, [&](float v) { return tf.sample(v).alpha > 0.0; },
      64);
  ASSERT_EQ(static_cast<int>(weights.size()), desc.dims.nx);
  double border = weights.front() + weights.back();
  double middle = weights[weights.size() / 2] + weights[weights.size() / 2 + 1];
  EXPECT_GT(middle, border);
  // Deterministic across calls.
  const auto again = field::estimate_plane_weights(
      desc, 2, 0, [&](float v) { return tf.sample(v).alpha > 0.0; }, 64);
  EXPECT_EQ(weights, again);
}

// --------------------------------------------------- balanced session ----

TEST(LoadBalancedSession, SameImagesAsEvenSplit) {
  core::SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 5, 3);
  cfg.processors = 4;
  cfg.groups = 1;
  cfg.image_width = cfg.image_height = 40;
  cfg.codec = "raw";
  cfg.keep_frames = true;
  // Exact-tiling configuration (see RayCastTiling): unshaded, no early out.
  cfg.render_options.shading = false;
  cfg.render_options.early_termination = 2.0;

  const auto even = core::run_session(cfg);
  cfg.load_balanced = true;
  const auto balanced = core::run_session(cfg);
  ASSERT_EQ(even.displayed.size(), balanced.displayed.size());
  for (std::size_t i = 0; i < even.displayed.size(); ++i)
    EXPECT_GT(render::psnr(even.displayed[i], balanced.displayed[i]), 45.0);
}

}  // namespace
}  // namespace tvviz
