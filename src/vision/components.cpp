#include "vision/components.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

namespace tangram::vision {

namespace {

// First nonzero byte in [p, end), or `end`.  Masks are mostly zero, so the
// scan skips whole 8-byte words while it can.
const std::uint8_t* first_set(const std::uint8_t* p, const std::uint8_t* end) {
  for (std::uint64_t word = 0; end - p >= 8; p += 8) {
    std::memcpy(&word, p, sizeof word);
    if (word != 0) break;
  }
  while (p != end && *p == 0) ++p;
  return p;
}

}  // namespace

video::Mask dilate(const video::Mask& mask, int radius) {
  if (radius <= 0) return mask;
  const int w = mask.width(), h = mask.height();
  const auto stride = static_cast<std::size_t>(w);
  // Separable: each output row first ORs the input rows within `radius` of
  // it, then widens its nonzero pixels by `radius` to 255 runs.
  video::Mask out(w, h, 0);
  std::vector<std::uint8_t> row(stride);
  for (int y = 0; y < h; ++y) {
    std::uint8_t* const dst = out.data() + y * stride;
    const int y0 = std::max(0, y - radius), y1 = std::min(h - 1, y + radius);
    for (int yy = y0; yy <= y1; ++yy) {
      const std::uint8_t* const src = mask.data() + yy * stride;
      for (std::size_t x = 0; x < stride; ++x) row[x] |= src[x];
    }
    const std::uint8_t* const end = row.data() + stride;
    int filled = 0;  // dst[0, filled) needs no more writes
    for (const std::uint8_t* p = first_set(row.data(), end); p != end;
         p = first_set(p + 1, end)) {
      const auto x = static_cast<int>(p - row.data());
      const int stop = std::min(w, x + radius + 1);
      std::fill(dst + std::max(filled, x - radius), dst + stop, 255);
      filled = stop;
    }
    std::fill(row.begin(), row.end(), 0);
  }
  return out;
}

std::vector<Component> connected_components(video::Mask mask,
                                            int min_area_px) {
  const int w = mask.width(), h = mask.height();
  const auto stride = static_cast<std::size_t>(w);
  std::uint8_t* const pixels = mask.data();
  std::vector<Component> out;
  struct Pixel {
    int x, y;
  };
  std::vector<Pixel> stack;
  // Clearing a pixel as it is pushed marks it labeled; the mask is this
  // function's own copy.
  const auto visit = [&stack](std::uint8_t* at, int x, int y) {
    if (*at == 0) return;
    *at = 0;
    stack.push_back({x, y});
  };

  // A component is seeded at its first pixel in raster order, so components
  // come out in that order.
  for (int sy = 0; sy < h; ++sy) {
    std::uint8_t* const row = pixels + sy * stride;
    const std::uint8_t* const end = row + stride;
    for (const std::uint8_t* seed = first_set(row, end); seed != end;
         seed = first_set(seed + 1, end)) {
      const auto sx = static_cast<int>(seed - row);
      visit(row + sx, sx, sy);
      Component comp;
      int minx = sx, miny = sy, maxx = sx, maxy = sy;
      while (!stack.empty()) {
        const Pixel p = stack.back();
        stack.pop_back();
        ++comp.area_px;
        minx = std::min(minx, p.x);
        maxx = std::max(maxx, p.x);
        miny = std::min(miny, p.y);
        maxy = std::max(maxy, p.y);
        std::uint8_t* const at = pixels + p.y * stride + p.x;
        if (p.x + 1 < w) visit(at + 1, p.x + 1, p.y);
        if (p.x > 0) visit(at - 1, p.x - 1, p.y);
        if (p.y + 1 < h) visit(at + stride, p.x, p.y + 1);
        if (p.y > 0) visit(at - stride, p.x, p.y - 1);
      }
      if (comp.area_px >= min_area_px) {
        comp.box = common::Rect::from_corners(minx, miny, maxx + 1, maxy + 1);
        out.push_back(comp);
      }
    }
  }
  return out;
}

namespace {

// Merge boxes whose expanded versions overlap, until a fixed point.  Each
// step merges the first overlapping pair (i, j), i < j, in lexicographic
// order -- box j into box i -- where "overlapping" means box i grown by
// `gap` on every side meets box j.
//
// Only pairs involving the grown box can change after a merge, so the scan
// never restarts from the front: the next pair is an earlier box that now
// meets the grown one, if any; otherwise every row before the grown box is
// still clean and the scan resumes at the grown box's row.
std::vector<common::Rect> merge_close_boxes(std::vector<common::Rect> boxes,
                                            int gap) {
  const auto meets = [gap](const common::Rect& a, const common::Rect& b) {
    const common::Rect grown{a.x - gap, a.y - gap, a.width + 2 * gap,
                             a.height + 2 * gap};
    return common::overlaps(grown, b);
  };
  const auto merge = [&boxes](std::size_t into, std::size_t from) {
    boxes[into] = common::bounding_union(boxes[into], boxes[from]);
    boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(from));
  };
  std::size_t i = 0;
  while (i < boxes.size()) {
    std::size_t j = i + 1;
    while (j < boxes.size() && !meets(boxes[i], boxes[j])) ++j;
    if (j == boxes.size()) {
      ++i;
      continue;
    }
    merge(i, j);
    for (;;) {
      std::size_t a = 0;
      while (a < i && !meets(boxes[a], boxes[i])) ++a;
      if (a == i) break;
      merge(a, i);
      i = a;
    }
  }
  return boxes;
}

}  // namespace

std::vector<common::Rect> extract_blobs(const video::Mask& mask,
                                        const ComponentParams& params) {
  const auto comps = connected_components(dilate(mask, params.dilate_radius),
                                          params.min_area_px);
  std::vector<common::Rect> boxes;
  boxes.reserve(comps.size());
  for (const auto& c : comps) boxes.push_back(c.box);
  return merge_close_boxes(std::move(boxes), params.merge_gap_px);
}

}  // namespace tangram::vision
