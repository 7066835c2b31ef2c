// Processor management for time-varying rendering (§3): P processors are
// split into L groups; group g renders time steps g, g+L, g+2L, ...
// L = 1 is pure intra-volume parallelism (approach one), L = P is pure
// inter-volume parallelism (approach two), 1 < L < P is the hybrid.
#pragma once

#include <vector>

namespace tvviz::core {

class Partition {
 public:
  /// Split `processors` into `groups` contiguous groups with sizes
  /// differing by at most one. Throws std::invalid_argument unless
  /// 1 <= groups <= processors.
  Partition(int processors, int groups);

  int processors() const noexcept { return processors_; }
  int groups() const noexcept { return static_cast<int>(members_.size()); }

  /// Ranks of group g (contiguous, ascending).
  const std::vector<int>& group_members(int g) const;

  int group_size(int g) const {
    return static_cast<int>(group_members(g).size());
  }

  /// Group that rank belongs to.
  int group_of_rank(int rank) const;

  /// Time steps of a `total_steps`-step dataset assigned to group g.
  std::vector<int> steps_for_group(int g, int total_steps) const;

 private:
  int processors_;
  std::vector<std::vector<int>> members_;
  std::vector<int> rank_to_group_;
};

}  // namespace tvviz::core
