#include "compositing/over.hpp"

#include <algorithm>

namespace tvviz::compositing {

render::Image composite_reference(std::vector<render::PartialImage> partials,
                                  int width, int height) {
  std::sort(partials.begin(), partials.end(),
            [](const render::PartialImage& a, const render::PartialImage& b) {
              return a.depth() < b.depth();
            });
  render::PartialImage frame(0, 0, width, height);
  for (const auto& part : partials) {
    for (int y = 0; y < part.height(); ++y) {
      const int fy = part.y0() + y;
      if (fy < 0 || fy >= height) continue;
      for (int x = 0; x < part.width(); ++x) {
        const int fx = part.x0() + x;
        if (fx < 0 || fx >= width) continue;
        // `frame` accumulates the nearer content, so it stays in front.
        frame.at(fx, fy) = frame.at(fx, fy).over(part.at(x, y));
      }
    }
  }
  render::Image out(width, height);
  frame.splat_to(out);
  return out;
}

}  // namespace tvviz::compositing
