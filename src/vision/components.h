// Foreground-mask post-processing: morphological dilation and connected-
// component labeling, producing RoI bounding boxes from a binary mask.

#pragma once

#include <vector>

#include "common/geometry.h"
#include "video/image.h"

namespace tangram::vision {

struct ComponentParams {
  int dilate_radius = 1;      // merge fragmented blobs before labeling
  int min_area_px = 4;        // drop specks (analysis-resolution pixels)
  int merge_gap_px = 2;       // merge boxes whose gap is below this
};

// Binary dilation with a (2r+1)x(2r+1) square structuring element; returns
// a new 0/255 mask (radius <= 0 returns a copy of `mask`).
[[nodiscard]] video::Mask dilate(const video::Mask& mask, int radius);

// 4-connected component labeling; returns each component's bounding box and
// pixel count, filtered by `min_area_px`, in raster order of each
// component's first pixel.  Labeling consumes the mask, so it is taken by
// value: move a temporary in, or pay one copy.
struct Component {
  common::Rect box;
  int area_px = 0;
};
[[nodiscard]] std::vector<Component> connected_components(video::Mask mask,
                                                          int min_area_px);

// Full pipeline: dilate -> label -> box merge.  Returned boxes are in the
// mask's (analysis) coordinate space.
[[nodiscard]] std::vector<common::Rect> extract_blobs(const video::Mask& mask,
                                                      const ComponentParams&
                                                          params);

}  // namespace tangram::vision
