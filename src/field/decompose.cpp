#include "field/decompose.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tvviz::field {

std::vector<std::pair<int, int>> split_1d(int n, int parts) {
  if (parts <= 0) throw std::invalid_argument("split_1d: parts must be > 0");
  std::vector<std::pair<int, int>> out;
  out.reserve(static_cast<std::size_t>(parts));
  const int base = n / parts;
  const int extra = n % parts;
  int begin = 0;
  for (int i = 0; i < parts; ++i) {
    const int len = base + (i < extra ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

std::vector<Box> decompose_slabs(const Dims& dims, int parts, int axis) {
  if (axis < 0 || axis > 2) throw std::invalid_argument("decompose_slabs: axis");
  const int extent = axis == 0 ? dims.nx : axis == 1 ? dims.ny : dims.nz;
  const auto ranges = split_1d(extent, parts);
  std::vector<Box> boxes;
  boxes.reserve(ranges.size());
  for (const auto& [lo, hi] : ranges) {
    Box b;
    b.hi[0] = dims.nx;
    b.hi[1] = dims.ny;
    b.hi[2] = dims.nz;
    b.lo[axis] = lo;
    b.hi[axis] = hi;
    boxes.push_back(b);
  }
  return boxes;
}

std::vector<Box> decompose_slabs_weighted(const Dims& dims, int parts,
                                          int axis,
                                          std::span<const double> weights) {
  if (axis < 0 || axis > 2)
    throw std::invalid_argument("decompose_slabs_weighted: axis");
  const int extent = axis == 0 ? dims.nx : axis == 1 ? dims.ny : dims.nz;
  if (static_cast<int>(weights.size()) != extent)
    throw std::invalid_argument(
        "decompose_slabs_weighted: weights length != axis extent");
  if (parts <= 0 || parts > extent)
    throw std::invalid_argument("decompose_slabs_weighted: bad parts");

  // Equal-weight boundaries by prefix sums, with a one-plane minimum per
  // slab (a floor weight keeps degenerate all-zero regions splittable).
  double total = 0.0;
  for (double w : weights) total += std::max(w, 0.0);
  const double floor_w = total > 0.0 ? total * 1e-6 + 1e-12 : 1.0;
  std::vector<double> prefix(static_cast<std::size_t>(extent) + 1, 0.0);
  for (int k = 0; k < extent; ++k)
    prefix[static_cast<std::size_t>(k) + 1] =
        prefix[static_cast<std::size_t>(k)] +
        std::max(weights[static_cast<std::size_t>(k)], 0.0) + floor_w;
  const double grand = prefix.back();

  std::vector<Box> boxes;
  boxes.reserve(static_cast<std::size_t>(parts));
  int begin = 0;
  for (int part = 0; part < parts; ++part) {
    int end;
    if (part == parts - 1) {
      end = extent;
    } else {
      // The first boundary whose prefix reaches the target. The slack, far
      // below one plane's floor weight, absorbs summation roundoff, so
      // slabs of exactly equal weight keep their boundaries.
      const double target = grand * (part + 1) / parts - grand * 1e-9;
      const auto it =
          std::lower_bound(prefix.begin(), prefix.end(), target);
      end = static_cast<int>(it - prefix.begin());
      // Leave enough planes for the remaining slabs, and advance at least
      // one plane past the previous boundary.
      end = std::clamp(end, begin + 1, extent - (parts - 1 - part));
    }
    Box b;
    b.hi[0] = dims.nx;
    b.hi[1] = dims.ny;
    b.hi[2] = dims.nz;
    b.lo[axis] = begin;
    b.hi[axis] = end;
    boxes.push_back(b);
    begin = end;
  }
  return boxes;
}

std::vector<Box> rebalance_slabs(const Dims& dims, std::span<const Box> slabs,
                                 std::span<const double> costs) {
  if (slabs.empty() || costs.size() != slabs.size())
    throw std::invalid_argument(
        "rebalance_slabs: need one cost per slab, and at least one slab");
  for (double c : costs)
    if (!(c >= 0.0 && std::isfinite(c)))
      throw std::invalid_argument("rebalance_slabs: bad cost");
  int next = 0;
  for (const Box& b : slabs) {
    if (b.lo[2] != next || b.hi[2] < b.lo[2] || b.lo[0] != 0 ||
        b.lo[1] != 0 || b.hi[0] != dims.nx || b.hi[1] != dims.ny)
      throw std::invalid_argument("rebalance_slabs: slabs must tile z");
    next = b.hi[2];
  }
  if (next != dims.nz)
    throw std::invalid_argument("rebalance_slabs: slabs must tile z");
  if (static_cast<int>(slabs.size()) > dims.nz)
    return {slabs.begin(), slabs.end()};

  std::vector<double> weights(static_cast<std::size_t>(dims.nz));
  for (std::size_t i = 0; i < slabs.size(); ++i) {
    const int planes = slabs[i].hi[2] - slabs[i].lo[2];
    for (int k = slabs[i].lo[2]; k < slabs[i].hi[2]; ++k)
      weights[static_cast<std::size_t>(k)] = costs[i] / planes;
  }
  return decompose_slabs_weighted(dims, static_cast<int>(slabs.size()),
                                  /*axis=*/2, weights);
}

namespace {
void bisect(const Box& box, int parts, std::vector<Box>& out) {
  if (parts == 1) {
    out.push_back(box);
    return;
  }
  const Dims d = box.dims();
  const int extents[3] = {d.nx, d.ny, d.nz};
  const int axis = static_cast<int>(
      std::max_element(extents, extents + 3) - extents);
  // Split voxels proportionally to the two halves' processor shares.
  const int left_parts = parts / 2;
  const int right_parts = parts - left_parts;
  const int extent = extents[axis];
  int cut = box.lo[axis] +
            static_cast<int>(static_cast<long long>(extent) * left_parts / parts);
  cut = std::clamp(cut, box.lo[axis] + 1, box.hi[axis] - 1);
  Box left = box, right = box;
  left.hi[axis] = cut;
  right.lo[axis] = cut;
  bisect(left, left_parts, out);
  bisect(right, right_parts, out);
}
}  // namespace

std::vector<Box> decompose_blocks(const Dims& dims, int parts) {
  if (parts <= 0)
    throw std::invalid_argument("decompose_blocks: parts must be > 0");
  if (static_cast<std::size_t>(parts) > dims.voxels())
    throw std::invalid_argument("decompose_blocks: more parts than voxels");
  Box whole;
  whole.hi[0] = dims.nx;
  whole.hi[1] = dims.ny;
  whole.hi[2] = dims.nz;
  std::vector<Box> out;
  out.reserve(static_cast<std::size_t>(parts));
  bisect(whole, parts, out);
  return out;
}

Box with_ghost(const Box& box, const Dims& dims, int ghost) {
  Box g = box;
  const int extents[3] = {dims.nx, dims.ny, dims.nz};
  for (int axis = 0; axis < 3; ++axis) {
    g.lo[axis] = std::max(0, box.lo[axis] - ghost);
    g.hi[axis] = std::min(extents[axis], box.hi[axis] + ghost);
  }
  return g;
}

}  // namespace tvviz::field
