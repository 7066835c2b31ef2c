// Domain decomposition: split a volume among the processors of a render
// group. Slabs along one axis for small groups; recursive bisection blocks
// (kd-split along the longest axis) for larger ones, as parallel ray casters
// with binary-swap compositing use.
#pragma once

#include <span>
#include <vector>

#include "field/volume.hpp"

namespace tvviz::field {

/// Split [0, n) into `parts` contiguous ranges differing by at most one.
std::vector<std::pair<int, int>> split_1d(int n, int parts);

/// Slab decomposition along `axis` (0=x, 1=y, 2=z) into `parts` boxes.
std::vector<Box> decompose_slabs(const Dims& dims, int parts, int axis = 2);

/// Load-balanced slab decomposition: `weights[k]` is the estimated render
/// work of plane k along `axis` (length = that axis' extent). Boundaries
/// are placed so every slab carries roughly equal total weight — the
/// counterweight to the render-imbalance term of the performance model.
/// Every slab keeps at least one plane.
std::vector<Box> decompose_slabs_weighted(const Dims& dims, int parts,
                                          int axis,
                                          std::span<const double> weights);

/// A render group's z-slabs for its next step, from the step just rendered:
/// `slabs` tile [0, dims.nz) in rank order and `costs[i]` is what slab i
/// cost. Each slab's cost is spread evenly over its planes and the
/// boundaries are placed with decompose_slabs_weighted, so a slab that
/// carried more than its share gets thinner. Equal costs on even slabs
/// keep them even, and more slabs than planes keeps `slabs` as they are.
/// A pure function of its inputs: ranks given the same costs place the
/// same boundaries. Throws std::invalid_argument unless `slabs` tile
/// [0, dims.nz) and `costs` has one entry per slab.
std::vector<Box> rebalance_slabs(const Dims& dims, std::span<const Box> slabs,
                                 std::span<const double> costs);

/// Recursive-bisection block decomposition into exactly `parts` boxes,
/// splitting the longest axis at each level and balancing voxel counts.
std::vector<Box> decompose_blocks(const Dims& dims, int parts);

/// Grow `box` by `ghost` voxels on every side, clipped to `dims`.
Box with_ghost(const Box& box, const Dims& dims, int ghost);

}  // namespace tvviz::field
