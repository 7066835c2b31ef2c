// Tests for the core pipeline layer: partitioning, metrics, cost models,
// the discrete-event pipeline simulator (Figure 6/7 shapes), and the
// analytic performance model cross-check.
#include <gtest/gtest.h>

#include "core/costs.hpp"
#include "core/metrics.hpp"
#include "core/partition.hpp"
#include "core/perfmodel.hpp"
#include "core/pipesim.hpp"

namespace tvviz {
namespace {

using core::CodecProfile;
using core::FrameRecord;
using core::Metrics;
using core::OutputMode;
using core::Partition;
using core::PipelineConfig;
using core::StageCosts;

// ----------------------------------------------------------- partition ----

class PartitionParam
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PartitionParam, GroupsCoverAllRanksOnce) {
  const auto [p, l] = GetParam();
  const Partition part(p, l);
  EXPECT_EQ(part.groups(), l);
  std::vector<int> seen(static_cast<std::size_t>(p), 0);
  for (int g = 0; g < l; ++g)
    for (int rank : part.group_members(g)) {
      ++seen[static_cast<std::size_t>(rank)];
      EXPECT_EQ(part.group_of_rank(rank), g);
    }
  for (int count : seen) EXPECT_EQ(count, 1);
  // Balanced within one.
  int min_size = p, max_size = 0;
  for (int g = 0; g < l; ++g) {
    min_size = std::min(min_size, part.group_size(g));
    max_size = std::max(max_size, part.group_size(g));
  }
  EXPECT_LE(max_size - min_size, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionParam,
    ::testing::Values(std::pair<int, int>{1, 1}, std::pair<int, int>{4, 1},
                      std::pair<int, int>{4, 2}, std::pair<int, int>{4, 4},
                      std::pair<int, int>{7, 3}, std::pair<int, int>{16, 4},
                      std::pair<int, int>{32, 5},
                      std::pair<int, int>{64, 64}));

TEST(Partition, StepAssignmentRoundRobin) {
  const Partition part(8, 4);
  EXPECT_EQ(part.steps_for_group(0, 10), (std::vector<int>{0, 4, 8}));
  EXPECT_EQ(part.steps_for_group(1, 10), (std::vector<int>{1, 5, 9}));
  EXPECT_TRUE(part.steps_for_group(3, 3).empty());
}

TEST(Partition, InvalidShapesThrow) {
  EXPECT_THROW(Partition(0, 1), std::invalid_argument);
  EXPECT_THROW(Partition(4, 0), std::invalid_argument);
  EXPECT_THROW(Partition(4, 5), std::invalid_argument);
}

// -------------------------------------------------------------- metrics ----

TEST(Metrics, ComputesThreeMetricsOfSection3) {
  std::vector<FrameRecord> records;
  for (int i = 0; i < 5; ++i) {
    FrameRecord r;
    r.step = i;
    r.displayed = 2.0 + i * 1.5;
    records.push_back(r);
  }
  const Metrics m = Metrics::from_records(records);
  EXPECT_DOUBLE_EQ(m.startup_latency, 2.0);
  EXPECT_DOUBLE_EQ(m.overall_time, 8.0);
  EXPECT_DOUBLE_EQ(m.inter_frame_delay, 1.5);
  EXPECT_NEAR(m.frames_per_second(), 1.0 / 1.5, 1e-12);
}

TEST(Metrics, UnsortedInputHandled) {
  std::vector<FrameRecord> records(3);
  records[0].displayed = 9.0;
  records[1].displayed = 3.0;
  records[2].displayed = 6.0;
  const Metrics m = Metrics::from_records(records);
  EXPECT_DOUBLE_EQ(m.startup_latency, 3.0);
  EXPECT_DOUBLE_EQ(m.overall_time, 9.0);
  EXPECT_DOUBLE_EQ(m.inter_frame_delay, 3.0);
}

TEST(Metrics, EmptyThrows) {
  EXPECT_THROW(Metrics::from_records({}), std::invalid_argument);
}

TEST(Metrics, NonzeroTimeOriginRebased) {
  // Regression: records stamped with absolute (wall-clock-like) times used
  // to report the raw `displayed` values as startup latency / overall time.
  // Both are durations and must be measured from the earliest input_start.
  std::vector<FrameRecord> records;
  for (int i = 0; i < 4; ++i) {
    FrameRecord r;
    r.step = i;
    r.input_start = 1000.0 + i * 1.5;
    r.displayed = 1002.0 + i * 1.5;
    records.push_back(r);
  }
  const Metrics m = Metrics::from_records(records);
  EXPECT_DOUBLE_EQ(m.startup_latency, 2.0);
  EXPECT_DOUBLE_EQ(m.overall_time, 6.5);
  EXPECT_DOUBLE_EQ(m.inter_frame_delay, 1.5);
}

TEST(Metrics, NegativeInputStartIgnoredForOrigin) {
  // input_start < 0 means "not recorded" and must not drag the time origin
  // below the real one.
  std::vector<FrameRecord> records(2);
  records[0].input_start = -1.0;
  records[0].displayed = 12.0;
  records[1].input_start = 10.0;
  records[1].displayed = 13.0;
  const Metrics m = Metrics::from_records(records);
  EXPECT_DOUBLE_EQ(m.startup_latency, 2.0);
  EXPECT_DOUBLE_EQ(m.overall_time, 3.0);
}

// ---------------------------------------------------------------- costs ----

TEST(StageCosts, RenderScalesWithGroupSize) {
  StageCosts c = StageCosts::rwcp_paper();
  c.node_memory_bytes = 1e12;  // isolate the parallel-overhead term
  const std::size_t voxels = 129ull * 129 * 104;
  const std::size_t pixels = 256 * 256;
  const std::size_t bytes = voxels * 4;
  const double t1 = c.render_seconds_group(voxels, pixels, 1, bytes);
  const double t8 = c.render_seconds_group(voxels, pixels, 8, bytes);
  const double t32 = c.render_seconds_group(voxels, pixels, 32, bytes);
  EXPECT_GT(t1, t8);
  EXPECT_GT(t8, t32);
  // Sub-linear speedup (parallelization overhead), absent memory effects.
  EXPECT_GT(t8 * 8, t1);
  EXPECT_GT(t32 * 32, t8 * 8);
}

TEST(StageCosts, MemoryPressurePenalizesTinyGroups) {
  StageCosts c = StageCosts::rwcp_paper();
  const std::size_t voxels = 129ull * 129 * 104;
  const std::size_t bytes = voxels * 4;  // ~6.9 MB -> 34 MB working set
  const double with_pressure =
      c.render_seconds_group(voxels, 65536, 1, bytes);
  c.node_memory_bytes = 1e9;  // plenty of memory: no penalty
  const double without = c.render_seconds_group(voxels, 65536, 1, bytes);
  EXPECT_GT(with_pressure, 1.5 * without);
}

TEST(StageCosts, InputThrashGrowsWithStreams) {
  const StageCosts c = StageCosts::rwcp_paper();
  const double t1 = c.input_seconds(1 << 20, 1);
  const double t8 = c.input_seconds(1 << 20, 8);
  EXPECT_GT(t8, t1);
}

TEST(StageCosts, CompositeGrowsWithGroupSize) {
  const StageCosts c = StageCosts::o2k_paper();
  EXPECT_DOUBLE_EQ(c.composite_seconds(65536, 1), 0.0);
  EXPECT_GT(c.composite_seconds(65536, 16), c.composite_seconds(65536, 4));
}

TEST(StageCosts, RenderBaseMatchesPaperBand) {
  // §6: "about 10 to 20 seconds ... 256x256 pixels using a single processor"
  for (const auto& c : {StageCosts::o2k_paper(), StageCosts::rwcp_paper()}) {
    const double t =
        c.render_seconds_single(129ull * 129 * 104, 256 * 256);
    EXPECT_GE(t, 10.0);
    EXPECT_LE(t, 20.0);
  }
}

TEST(CodecProfile, PaperProfilesMatchTable1Regime) {
  // Spot-check the fitted size laws against Table 1 within a factor ~1.6.
  const auto check = [](const char* name, std::size_t pixels,
                        double expected) {
    const double bytes = CodecProfile::paper(name).compressed_bytes(pixels);
    EXPECT_GT(bytes, expected / 1.6) << name << "@" << pixels;
    EXPECT_LT(bytes, expected * 1.6) << name << "@" << pixels;
  };
  check("lzo", 256 * 256, 63386);
  check("bzip", 256 * 256, 44867);
  check("jpeg", 256 * 256, 3310);
  check("jpeg+lzo", 256 * 256, 2667);
  check("jpeg+lzo", 1024 * 1024, 18484);
  check("jpeg+bzip", 128 * 128, 1642);
}

TEST(CodecProfile, CompressionCostMatchesSection6Quotes) {
  // §6: JPEG+LZO compression ~6 ms at 128^2 and ~500 ms at 1024^2;
  // decompression 12 to 600 ms. Accept a 3x band.
  const auto p = CodecProfile::paper("jpeg+lzo");
  EXPECT_NEAR(p.compress_seconds(128 * 128), 0.006, 0.012);
  EXPECT_NEAR(p.compress_seconds(1024 * 1024), 0.5, 0.35);
  EXPECT_NEAR(p.decompress_seconds(1024 * 1024), 0.6, 0.4);
}

TEST(CodecProfile, UnknownThrows) {
  EXPECT_THROW(CodecProfile::paper("gif"), std::invalid_argument);
}

// --------------------------------------------------------------- pipesim ----

PipelineConfig rwcp_config(int p, int l) {
  PipelineConfig cfg;
  cfg.processors = p;
  cfg.groups = l;
  cfg.dataset = field::turbulent_jet_desc();
  cfg.steps_limit = 128;  // "first 128 time steps" (Figure 6)
  cfg.image_width = cfg.image_height = 256;
  cfg.costs = StageCosts::rwcp_paper();
  cfg.codec = CodecProfile::paper("jpeg+lzo");
  return cfg;
}

TEST(PipeSim, AllFramesDelivered) {
  const auto result = core::simulate_pipeline(rwcp_config(8, 2));
  EXPECT_EQ(result.frames.size(), 128u);
  std::vector<bool> seen(128, false);
  for (const auto& f : result.frames) {
    EXPECT_GE(f.step, 0);
    EXPECT_LT(f.step, 128);
    EXPECT_FALSE(seen[static_cast<std::size_t>(f.step)]);
    seen[static_cast<std::size_t>(f.step)] = true;
    EXPECT_LE(f.input_done, f.render_done);
    EXPECT_LE(f.render_done, f.composite_done);
    EXPECT_LE(f.composite_done, f.sent);
    EXPECT_LE(f.sent, f.displayed);
  }
}

TEST(PipeSim, Figure6UShapeInteriorOptimum) {
  // Figure 6: overall execution time vs L is U-shaped with an interior
  // optimum for each processor count.
  for (const int p : {16, 32, 64}) {
    double best_t = 1e300;
    int best_l = -1;
    double t_first = 0, t_last = 0;
    for (int l = 1; l <= p; l *= 2) {
      const auto result = core::simulate_pipeline(rwcp_config(p, l));
      const double t = result.metrics.overall_time;
      if (l == 1) t_first = t;
      if (l == p) t_last = t;
      if (t < best_t) {
        best_t = t;
        best_l = l;
      }
    }
    EXPECT_GT(best_l, 1) << "P=" << p;
    EXPECT_LT(best_l, p) << "P=" << p;
    EXPECT_LT(best_t, t_first) << "P=" << p;
    EXPECT_LT(best_t, t_last) << "P=" << p;
  }
}

TEST(PipeSim, Figure7StartupLatencyMonotoneInL) {
  // §6: "start-up latency monotonically increases with the number of
  // partitions since fewer processors render a single volume".
  double prev = 0.0;
  for (int l = 1; l <= 32; l *= 2) {
    const auto result = core::simulate_pipeline(rwcp_config(32, l));
    EXPECT_GT(result.metrics.startup_latency, prev) << "L=" << l;
    prev = result.metrics.startup_latency;
  }
}

TEST(PipeSim, Figure7InterFrameDelayTracksOverallTime) {
  // Fig. 7: inter-frame delay exhibits a curve similar to overall time.
  const auto at = [&](int l) {
    return core::simulate_pipeline(rwcp_config(32, l));
  };
  const auto r1 = at(1), r4 = at(4), r32 = at(32);
  EXPECT_LT(r4.metrics.inter_frame_delay, r1.metrics.inter_frame_delay);
  EXPECT_LE(r4.metrics.inter_frame_delay, r32.metrics.inter_frame_delay * 1.3);
}

TEST(PipeSim, XWindowSlowerThanDaemonForLargeImages) {
  // The transport gap shows once rendering is not the bottleneck (the
  // paper's Table 2 rates are display-path rates): with a fast renderer,
  // X-Window inter-frame delay must trail the compressed daemon's badly.
  PipelineConfig cfg = rwcp_config(16, 4);
  cfg.steps_limit = 16;
  cfg.image_width = cfg.image_height = 512;
  cfg.costs.render_base_seconds = 0.5;
  cfg.output = OutputMode::kDaemonCompressed;
  const auto daemon = core::simulate_pipeline(cfg);
  cfg.output = OutputMode::kXWindow;
  const auto x = core::simulate_pipeline(cfg);
  EXPECT_GT(x.metrics.inter_frame_delay,
            2.0 * daemon.metrics.inter_frame_delay);
  // Display time also dwarfs the daemon's in the per-frame breakdown
  // (Figure 9 top vs bottom).
  EXPECT_GT(x.breakdown.transfer,
            4.0 * (daemon.breakdown.transfer + daemon.breakdown.client));
}

TEST(PipeSim, ParallelCompressionReducesCompressStageTime) {
  PipelineConfig cfg = rwcp_config(16, 2);
  cfg.steps_limit = 8;
  const auto serial = core::simulate_pipeline(cfg);
  cfg.parallel_compression = true;
  const auto parallel = core::simulate_pipeline(cfg);
  EXPECT_LT(parallel.breakdown.compress, serial.breakdown.compress);
}

TEST(PipeSim, BreakdownAndUtilizationPopulated) {
  const auto result = core::simulate_pipeline(rwcp_config(8, 4));
  EXPECT_GT(result.breakdown.input, 0.0);
  EXPECT_GT(result.breakdown.render, 0.0);
  EXPECT_GT(result.breakdown.transfer, 0.0);
  EXPECT_GT(result.breakdown.client, 0.0);
  EXPECT_GT(result.disk_utilization, 0.0);
  EXPECT_LE(result.disk_utilization, 1.0);
  EXPECT_GT(result.compressed_bytes_per_frame, 100.0);
}

TEST(PipeSim, GroupFramesDeliveredInStepOrder) {
  const auto result = core::simulate_pipeline(rwcp_config(8, 4));
  std::map<int, double> last_display_per_group;
  std::map<int, int> last_step_per_group;
  std::vector<core::FrameRecord> frames = result.frames;
  std::sort(frames.begin(), frames.end(),
            [](const auto& a, const auto& b) { return a.step < b.step; });
  for (const auto& f : frames) {
    if (last_step_per_group.count(f.group)) {
      EXPECT_GT(f.step, last_step_per_group[f.group]);
      EXPECT_GE(f.sent, last_display_per_group[f.group]);
    }
    last_step_per_group[f.group] = f.step;
    last_display_per_group[f.group] = f.sent;
  }
}

// ------------------------------------------------------------ perfmodel ----

TEST(PerfModel, TracksSimulatorWithinTolerance) {
  for (const auto& [p, l] : {std::pair{16, 4}, {32, 4}, {32, 8}, {64, 2}}) {
    const PipelineConfig cfg = rwcp_config(p, l);
    const auto sim = core::simulate_pipeline(cfg);
    const auto model = core::predict_pipeline(cfg);
    EXPECT_NEAR(model.overall_time, sim.metrics.overall_time,
                0.35 * sim.metrics.overall_time)
        << "P=" << p << " L=" << l;
    EXPECT_NEAR(model.startup_latency, sim.metrics.startup_latency,
                0.5 * sim.metrics.startup_latency + 0.5)
        << "P=" << p << " L=" << l;
  }
}

TEST(PerfModel, OptimalPartitionsInterior) {
  for (const int p : {16, 32, 64}) {
    PipelineConfig cfg = rwcp_config(p, 1);
    const int best = core::optimal_partitions(cfg);
    EXPECT_GT(best, 1) << p;
    EXPECT_LT(best, p) << p;
  }
}

TEST(PerfModel, InputBoundFlagSetWhenInputDominates) {
  PipelineConfig cfg = rwcp_config(64, 32);
  const auto pred = core::predict_pipeline(cfg);
  EXPECT_TRUE(pred.input_bound);
}

}  // namespace
}  // namespace tvviz
