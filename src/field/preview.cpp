#include "field/preview.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace tvviz::field {

TemporalSummary TemporalSummary::analyze(const DatasetDesc& desc, int probes,
                                         std::uint64_t seed) {
  if (probes < 1) throw std::invalid_argument("TemporalSummary: probes");
  // Fixed probe voxels, identical across steps.
  util::Rng rng(seed);
  std::vector<Box> cells;
  cells.reserve(static_cast<std::size_t>(probes));
  for (int i = 0; i < probes; ++i) {
    Box b;
    b.lo[0] = static_cast<int>(rng.below(static_cast<std::uint64_t>(desc.dims.nx)));
    b.lo[1] = static_cast<int>(rng.below(static_cast<std::uint64_t>(desc.dims.ny)));
    b.lo[2] = static_cast<int>(rng.below(static_cast<std::uint64_t>(desc.dims.nz)));
    b.hi[0] = b.lo[0] + 1;
    b.hi[1] = b.lo[1] + 1;
    b.hi[2] = b.lo[2] + 1;
    cells.push_back(b);
  }

  TemporalSummary summary;
  summary.deltas_.assign(static_cast<std::size_t>(desc.steps), 0.0);
  std::vector<float> previous(cells.size(), 0.0f);
  for (int step = 0; step < desc.steps; ++step) {
    double acc = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const float v = generate_box(desc, step, cells[i]).at(0, 0, 0);
      if (step > 0) acc += std::abs(static_cast<double>(v) - previous[i]);
      previous[i] = v;
    }
    if (step > 0)
      summary.deltas_[static_cast<std::size_t>(step)] =
          acc / static_cast<double>(cells.size());
  }
  return summary;
}

double TemporalSummary::total_change() const noexcept {
  double total = 0.0;
  for (double d : deltas_) total += d;
  return total;
}

std::vector<int> TemporalSummary::select_budget(int count) const {
  if (count < 2) throw std::invalid_argument("TemporalSummary: budget < 2");
  if (deltas_.empty()) return {};
  count = std::min(count, steps());
  // Cumulative change as the parameter; pick equal quantiles.
  std::vector<double> cumulative(deltas_.size(), 0.0);
  for (std::size_t s = 1; s < deltas_.size(); ++s)
    cumulative[s] = cumulative[s - 1] + deltas_[s];
  const double total = cumulative.back();

  std::vector<int> keep;
  keep.push_back(0);
  for (int k = 1; k < count - 1; ++k) {
    const double target = total * k / (count - 1);
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), target);
    int step = static_cast<int>(it - cumulative.begin());
    step = std::min(step, steps() - 1);
    if (step > keep.back()) keep.push_back(step);
  }
  if (keep.back() != steps() - 1) keep.push_back(steps() - 1);
  return keep;
}

}  // namespace tvviz::field
