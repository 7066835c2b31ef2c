// Temporal preprocessing for preview mode (§7.1: "Preprocessing of the
// time-varying datasets, if allowed, can provide many hints to the
// renderer ... certain time steps can be skipped during a previewing
// mode"). A cheap probe-based summary measures how much each step differs
// from its predecessor; the planner then selects a subset of steps that
// covers the sequence's change budget.
#pragma once

#include <cstdint>
#include <vector>

#include "field/generators.hpp"

namespace tvviz::field {

class TemporalSummary {
 public:
  /// Probe `probes` fixed pseudo-random voxels of every step of `desc` and
  /// record the mean absolute change between consecutive steps.
  static TemporalSummary analyze(const DatasetDesc& desc, int probes = 2048,
                                 std::uint64_t seed = 1234);

  int steps() const noexcept { return static_cast<int>(deltas_.size()); }

  /// Mean |v_t - v_{t-1}| over the probes; delta(0) == 0.
  double delta(int step) const { return deltas_.at(static_cast<std::size_t>(step)); }

  /// Total accumulated change across the sequence.
  double total_change() const noexcept;

  /// Preview selection by budget: pick `count` steps at equal quantiles of
  /// cumulative change — fast-changing episodes get dense sampling.
  std::vector<int> select_budget(int count) const;

 private:
  std::vector<double> deltas_;
};

}  // namespace tvviz::field
