#include "core/partition.hpp"

#include <stdexcept>

namespace tvviz::core {

Partition::Partition(int processors, int groups) : processors_(processors) {
  if (processors <= 0)
    throw std::invalid_argument("Partition: processors must be > 0");
  if (groups < 1 || groups > processors)
    throw std::invalid_argument("Partition: need 1 <= groups <= processors");

  members_.resize(static_cast<std::size_t>(groups));
  rank_to_group_.resize(static_cast<std::size_t>(processors));
  const int base = processors / groups;
  const int extra = processors % groups;
  int rank = 0;
  for (int g = 0; g < groups; ++g) {
    const int size = base + (g < extra ? 1 : 0);
    auto& m = members_[static_cast<std::size_t>(g)];
    m.reserve(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i) {
      m.push_back(rank);
      rank_to_group_[static_cast<std::size_t>(rank)] = g;
      ++rank;
    }
  }
}

const std::vector<int>& Partition::group_members(int g) const {
  return members_.at(static_cast<std::size_t>(g));
}

int Partition::group_of_rank(int rank) const {
  return rank_to_group_.at(static_cast<std::size_t>(rank));
}

std::vector<int> Partition::steps_for_group(int g, int total_steps) const {
  std::vector<int> steps;
  for (int s = g; s < total_steps; s += groups()) steps.push_back(s);
  return steps;
}

}  // namespace tvviz::core
