// Regions on which PoP locations are placed.
//
// The paper's default is the unit square (§3.1), but it also reports
// experiments with rectangles of different aspect ratios; Rectangle supports
// both. Area is normalized so that cost parameters stay comparable across
// aspect ratios.
#pragma once

#include "geom/point.h"

namespace cold {

/// An axis-aligned rectangle [0,w] x [0,h].
class Rectangle {
 public:
  /// Unit square.
  Rectangle() : width_(1.0), height_(1.0) {}

  /// Rectangle of the given dimensions; both must be > 0.
  Rectangle(double width, double height);

  /// Rectangle with the given aspect ratio (width : height) and unit area,
  /// so networks over different shapes have comparable link lengths.
  static Rectangle with_aspect_ratio(double aspect);

  double width() const { return width_; }
  double height() const { return height_; }
  double area() const { return width_ * height_; }

  bool contains(const Point& p) const;

  /// Clamps a point into the region (used by the bursty process, whose
  /// cluster offsets can fall outside).
  Point clamp(const Point& p) const;

 private:
  double width_;
  double height_;
};

}  // namespace cold
