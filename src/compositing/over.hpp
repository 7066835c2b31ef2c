// Sequential reference compositor: the ground truth parallel schemes must
// match. Partial images are merged front-to-back by their view depth.
#pragma once

#include <vector>

#include "render/image.hpp"

namespace tvviz::compositing {

/// Composite `partials` (any order; sorted internally by depth, nearest
/// first) into a full frame of size (width, height) over a black background.
render::Image composite_reference(std::vector<render::PartialImage> partials,
                                  int width, int height);

}  // namespace tvviz::compositing
