#include "geom/region.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cold {

Rectangle::Rectangle(double width, double height)
    : width_(width), height_(height) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("Rectangle: dimensions must be > 0");
  }
}

Rectangle Rectangle::with_aspect_ratio(double aspect) {
  if (aspect <= 0) {
    throw std::invalid_argument("Rectangle: aspect ratio must be > 0");
  }
  // width / height == aspect, width * height == 1.
  const double height = 1.0 / std::sqrt(aspect);
  return Rectangle(aspect * height, height);
}

bool Rectangle::contains(const Point& p) const {
  return p.x >= 0 && p.x <= width_ && p.y >= 0 && p.y <= height_;
}

Point Rectangle::clamp(const Point& p) const {
  return Point{std::clamp(p.x, 0.0, width_), std::clamp(p.y, 0.0, height_)};
}

}  // namespace cold
