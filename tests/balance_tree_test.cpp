// Tests for binary-tree compositing, weighted slab decomposition, the
// session's counted-cost slab policy and balanced sessions.
#include <gtest/gtest.h>

#include <cmath>

#include "compositing/binary_swap.hpp"
#include "compositing/over.hpp"
#include "core/session.hpp"
#include "field/decompose.hpp"
#include "render/raycast.hpp"
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
      const auto a = static_cast<float>(rng.uniform(0.0, 0.7));
      p.at(x, y) = Rgba{a * static_cast<float>(rng.uniform()),
                        a * static_cast<float>(rng.uniform()), a, a};
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

// ------------------------------------------------ counted-cost slabs ----

std::vector<double> even_costs(int parts, double cost) {
  return std::vector<double>(static_cast<std::size_t>(parts), cost);
}

void expect_tiles_z(const std::vector<Box>& boxes, const Dims& dims) {
  int next = 0;
  for (const Box& b : boxes) {
    EXPECT_EQ(b.lo[2], next);
    EXPECT_GE(b.hi[2] - b.lo[2], 1);
    EXPECT_EQ(b.lo[0], 0);
    EXPECT_EQ(b.lo[1], 0);
    EXPECT_EQ(b.hi[0], dims.nx);
    EXPECT_EQ(b.hi[1], dims.ny);
    next = b.hi[2];
  }
  EXPECT_EQ(next, dims.nz);
}

TEST(RebalanceSlabs, EqualCostsKeepEvenSlabsEven) {
  // Slabs of equal and of unequal plane counts (10 planes split 3, 3, 2,
  // 2) that cost the same stay where they are. Where every slab has the
  // same planes, a boundary's prefix equals its share up to roundoff (8
  // planes in 4 slabs of cost 1 moved without the placement's slack).
  for (const int nz : {8, 9, 10, 104}) {
    const Dims dims{8, 8, nz};
    for (const int parts : {1, 2, 3, 4, 7}) {
      const auto even = field::decompose_slabs(dims, parts, 2);
      for (const double cost : {1.0, 2.5e6})
        EXPECT_EQ(field::rebalance_slabs(dims, even, even_costs(parts, cost)),
                  even)
            << "nz=" << nz << " parts=" << parts << " cost=" << cost;
    }
  }
}

TEST(RebalanceSlabs, CostlySlabGetsThinner) {
  // The jet's shape at P=4: the two middle slabs carry most of the work.
  const Dims dims{129, 129, 104};
  const auto even = field::decompose_slabs(dims, 4, 2);
  const std::vector<double> costs = {1.0e5, 2.3e7, 2.3e7, 4.0e6};
  const auto next = field::rebalance_slabs(dims, even, costs);
  expect_tiles_z(next, dims);
  for (std::size_t i = 0; i < 4; ++i) {
    const int before = even[i].hi[2] - even[i].lo[2];
    const int after = next[i].hi[2] - next[i].lo[2];
    if (costs[i] > 1.0e7)
      EXPECT_LT(after, before) << i;
    else
      EXPECT_GT(after, before) << i;
  }
}

TEST(RebalanceSlabs, TilesZInRankOrder) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Dims dims{5, 7, 1 + static_cast<int>(rng.below(40))};
    const int parts = 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(dims.nz)));
    std::vector<Box> slabs = field::decompose_slabs(dims, parts, 2);
    // A few rounds of feedback from random costs, zeros included.
    for (int round = 0; round < 4; ++round) {
      std::vector<double> costs;
      for (int i = 0; i < parts; ++i)
        costs.push_back(rng.below(4) == 0 ? 0.0 : rng.uniform(0.0, 1e7));
      slabs = field::rebalance_slabs(dims, slabs, costs);
      ASSERT_EQ(static_cast<int>(slabs.size()), parts);
      expect_tiles_z(slabs, dims);
    }
  }
}

TEST(RebalanceSlabs, MoreRanksThanPlanesKeepsTheInputSlabs) {
  const Dims dims{4, 4, 3};
  const auto even = field::decompose_slabs(dims, 5, 2);  // two are empty
  const std::vector<double> costs = {9.0, 1.0, 1.0, 0.0, 0.0};
  EXPECT_EQ(field::rebalance_slabs(dims, even, costs), even);
}

TEST(RebalanceSlabs, SameInputsGiveTheSameSlabs) {
  const Dims dims{33, 33, 26};
  const auto even = field::decompose_slabs(dims, 4, 2);
  const std::vector<double> costs = {3.0e5, 1.1e7, 9.7e6, 2.2e6};
  const auto first = field::rebalance_slabs(dims, even, costs);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(field::rebalance_slabs(dims, even, costs), first);
  EXPECT_NE(first, even);
}

TEST(RebalanceSlabs, RejectsBadArguments) {
  const Dims dims{4, 4, 8};
  const auto even = field::decompose_slabs(dims, 2, 2);
  EXPECT_THROW(field::rebalance_slabs(dims, even, even_costs(3, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(field::rebalance_slabs(dims, {}, {}), std::invalid_argument);
  EXPECT_THROW(field::rebalance_slabs(dims, even, std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      field::rebalance_slabs(dims, even, std::vector<double>{1.0, std::nan("")}),
      std::invalid_argument);
  // Slabs that leave a gap, or stop short of nz.
  auto gap = even;
  gap[1].lo[2] += 1;
  EXPECT_THROW(field::rebalance_slabs(dims, gap, even_costs(2, 1.0)),
               std::invalid_argument);
  const Dims deeper{4, 4, 9};
  EXPECT_THROW(field::rebalance_slabs(deeper, even, even_costs(2, 1.0)),
               std::invalid_argument);
}

// --------------------------------------------------- balanced session ----

TEST(LoadBalancedSession, SameImagesAsEvenSplit) {
  // A group's first step renders even slabs, and every later step the
  // slabs its previous step's counted cost placed. In the exact-tiling
  // configuration (see RayCastTiling: unshaded, no early out) every tiling
  // composites to the single-node image, so every frame, even or balanced,
  // must match a single-node render of its step. Four steps per group at
  // L=2, eight at L=1.
  core::SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 5, 8);
  cfg.processors = 4;
  cfg.image_width = cfg.image_height = 40;
  cfg.codec = "raw";
  cfg.keep_frames = true;
  cfg.render_options.shading = false;
  cfg.render_options.early_termination = 2.0;

  const render::RayCaster caster(cfg.render_options);
  const render::Camera camera(cfg.image_width, cfg.image_height,
                              cfg.camera_azimuth, cfg.camera_elevation,
                              cfg.camera_zoom);
  const auto tf = render::TransferFunction::fire();
  std::vector<Image> single;
  for (int step = 0; step < cfg.dataset.steps; ++step)
    single.push_back(
        caster.render_full(field::generate(cfg.dataset, step), camera, tf));

  for (int groups : {1, 2}) {
    cfg.groups = groups;
    const auto result = core::run_session(cfg);
    ASSERT_EQ(result.displayed.size(), single.size());
    for (std::size_t step = 0; step < single.size(); ++step)
      EXPECT_GE(render::psnr(single[step], result.displayed[step]), 45.0)
          << "L=" << groups << " step " << step;
  }
}

TEST(LoadBalancedSession, LaterStepsRenderRebalancedSlabs) {
  // The jet's middle slabs carry most of the samples, so a group's second
  // step renders other boundaries than an even split. Shaded frames show
  // the boundaries in their lowest bits: the second step differs from the
  // same step rendered as a group's first step (a one-step preview), and
  // both show the same image.
  core::SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 2, 2);
  cfg.processors = 4;
  cfg.groups = 1;
  cfg.image_width = cfg.image_height = 64;
  cfg.codec = "raw";
  cfg.keep_frames = true;
  const auto balanced = core::run_session(cfg);
  cfg.step_map = {1};
  const auto even = core::run_session(cfg);
  ASSERT_EQ(balanced.displayed.size(), 2u);
  ASSERT_EQ(even.displayed.size(), 1u);
  const double db = render::psnr(balanced.displayed[1], even.displayed[0]);
  EXPECT_FALSE(std::isinf(db));
  EXPECT_GE(db, 45.0);
}

}  // namespace
}  // namespace tvviz
