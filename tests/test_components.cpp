#include "vision/components.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace tangram::vision {
namespace {

video::Mask make_mask(int w, int h) { return video::Mask(w, h, 0); }

TEST(Dilate, GrowsSinglePixel) {
  video::Mask m = make_mask(9, 9);
  m.at(4, 4) = 255;
  const video::Mask d = dilate(m, 1);
  for (int y = 3; y <= 5; ++y)
    for (int x = 3; x <= 5; ++x) EXPECT_NE(d.at(x, y), 0);
  EXPECT_EQ(d.at(1, 1), 0);
}

TEST(Dilate, RadiusZeroIsIdentity) {
  video::Mask m = make_mask(5, 5);
  m.at(2, 2) = 255;
  const video::Mask d = dilate(m, 0);
  EXPECT_EQ(d.at(2, 2), 255);
  EXPECT_EQ(d.at(1, 2), 0);
}

TEST(Dilate, ClampsAtBorders) {
  video::Mask m = make_mask(5, 5);
  m.at(0, 0) = 255;
  const video::Mask d = dilate(m, 2);
  EXPECT_NE(d.at(0, 0), 0);
  EXPECT_NE(d.at(2, 2), 0);
  EXPECT_EQ(d.at(4, 4), 0);
}

TEST(ConnectedComponents, SingleBlob) {
  video::Mask m = make_mask(20, 20);
  m.fill_rect({5, 5, 4, 3}, 255);
  const auto comps = connected_components(m, 1);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].box, (common::Rect{5, 5, 4, 3}));
  EXPECT_EQ(comps[0].area_px, 12);
}

TEST(ConnectedComponents, TwoSeparateBlobs) {
  video::Mask m = make_mask(20, 20);
  m.fill_rect({1, 1, 3, 3}, 255);
  m.fill_rect({10, 10, 2, 2}, 255);
  const auto comps = connected_components(m, 1);
  EXPECT_EQ(comps.size(), 2u);
}

TEST(ConnectedComponents, DiagonalPixelsAreSeparate) {
  // 4-connectivity: diagonal touching does not merge.
  video::Mask m = make_mask(10, 10);
  m.at(3, 3) = 255;
  m.at(4, 4) = 255;
  EXPECT_EQ(connected_components(m, 1).size(), 2u);
}

TEST(ConnectedComponents, MinAreaFiltersSpecks) {
  video::Mask m = make_mask(20, 20);
  m.at(2, 2) = 255;                    // 1 px speck
  m.fill_rect({10, 10, 3, 3}, 255);    // 9 px blob
  const auto comps = connected_components(m, 4);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].area_px, 9);
}

TEST(ConnectedComponents, LShapedBlobBoundingBox) {
  video::Mask m = make_mask(20, 20);
  m.fill_rect({2, 2, 6, 2}, 255);
  m.fill_rect({2, 4, 2, 6}, 255);
  const auto comps = connected_components(m, 1);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].box, (common::Rect{2, 2, 6, 8}));
  EXPECT_EQ(comps[0].area_px, 12 + 12);
}

TEST(ExtractBlobs, MergesNearbyBoxes) {
  video::Mask m = make_mask(40, 40);
  m.fill_rect({5, 5, 4, 4}, 255);
  m.fill_rect({12, 5, 4, 4}, 255);  // gap of 3 after dilation by 1 -> 1
  ComponentParams params;
  params.dilate_radius = 1;
  params.min_area_px = 1;
  params.merge_gap_px = 3;
  const auto boxes = extract_blobs(m, params);
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_TRUE(boxes[0].contains(common::Rect{5, 5, 4, 4}));
  EXPECT_TRUE(boxes[0].contains(common::Rect{12, 5, 4, 4}));
}

TEST(ExtractBlobs, KeepsDistantBoxesApart) {
  video::Mask m = make_mask(60, 60);
  m.fill_rect({5, 5, 4, 4}, 255);
  m.fill_rect({40, 40, 4, 4}, 255);
  ComponentParams params;
  const auto boxes = extract_blobs(m, params);
  EXPECT_EQ(boxes.size(), 2u);
}

TEST(ExtractBlobs, EmptyMaskYieldsNothing) {
  const auto boxes = extract_blobs(make_mask(30, 30), ComponentParams{});
  EXPECT_TRUE(boxes.empty());
}

// The blob pipeline as first written -- at() indexing, an int32 label
// array, and a box merge that restarts from the front after every merge --
// kept as the reference the production code must reproduce exactly.
namespace reference {

video::Mask dilate(const video::Mask& mask, int radius) {
  if (radius <= 0) return mask;
  const int w = mask.width(), h = mask.height();
  video::Mask tmp(w, h, 0), out(w, h, 0);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      if (!mask.at(x, y)) continue;
      const int x0 = std::max(0, x - radius), x1 = std::min(w - 1, x + radius);
      for (int xx = x0; xx <= x1; ++xx) tmp.at(xx, y) = 255;
    }
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      if (!tmp.at(x, y)) continue;
      const int y0 = std::max(0, y - radius), y1 = std::min(h - 1, y + radius);
      for (int yy = y0; yy <= y1; ++yy) out.at(x, yy) = 255;
    }
  return out;
}

std::vector<Component> connected_components(const video::Mask& mask,
                                            int min_area_px) {
  const int w = mask.width(), h = mask.height();
  std::vector<std::int32_t> labels(static_cast<std::size_t>(w) * h, 0);
  std::vector<Component> out;
  std::vector<int> stack;
  auto idx = [w](int x, int y) { return static_cast<std::size_t>(y) * w + x; };
  std::int32_t next_label = 0;
  for (int sy = 0; sy < h; ++sy) {
    for (int sx = 0; sx < w; ++sx) {
      if (!mask.at(sx, sy) || labels[idx(sx, sy)]) continue;
      ++next_label;
      Component comp;
      int minx = sx, miny = sy, maxx = sx, maxy = sy;
      stack.clear();
      stack.push_back(sy * w + sx);
      labels[idx(sx, sy)] = next_label;
      while (!stack.empty()) {
        const int p = stack.back();
        stack.pop_back();
        const int x = p % w, y = p / w;
        ++comp.area_px;
        minx = std::min(minx, x);
        maxx = std::max(maxx, x);
        miny = std::min(miny, y);
        maxy = std::max(maxy, y);
        constexpr int dx[] = {1, -1, 0, 0};
        constexpr int dy[] = {0, 0, 1, -1};
        for (int d = 0; d < 4; ++d) {
          const int nx = x + dx[d], ny = y + dy[d];
          if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
          if (!mask.at(nx, ny) || labels[idx(nx, ny)]) continue;
          labels[idx(nx, ny)] = next_label;
          stack.push_back(ny * w + nx);
        }
      }
      if (comp.area_px >= min_area_px) {
        comp.box = common::Rect::from_corners(minx, miny, maxx + 1, maxy + 1);
        out.push_back(comp);
      }
    }
  }
  return out;
}

std::vector<common::Rect> merge_close_boxes(std::vector<common::Rect> boxes,
                                            int gap) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < boxes.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < boxes.size(); ++j) {
        const common::Rect gi{boxes[i].x - gap, boxes[i].y - gap,
                              boxes[i].width + 2 * gap,
                              boxes[i].height + 2 * gap};
        if (common::overlaps(gi, boxes[j])) {
          boxes[i] = common::bounding_union(boxes[i], boxes[j]);
          boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
          break;
        }
      }
    }
  }
  return boxes;
}

std::vector<common::Rect> extract_blobs(const video::Mask& mask,
                                        const ComponentParams& params) {
  const video::Mask dilated = dilate(mask, params.dilate_radius);
  const auto comps = connected_components(dilated, params.min_area_px);
  std::vector<common::Rect> boxes;
  for (const auto& c : comps) boxes.push_back(c.box);
  return merge_close_boxes(std::move(boxes), params.merge_gap_px);
}

}  // namespace reference

bool same_pixels(const video::Mask& a, const video::Mask& b) {
  return a.size() == b.size() &&
         std::equal(a.data(), a.data() + a.pixel_count(), b.data());
}

bool same_components(const std::vector<Component>& a,
                     const std::vector<Component>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Component& x, const Component& y) {
                      return x.box == y.box && x.area_px == y.area_px;
                    });
}

// A seeded random mask: rectangles (some hanging off the border, so they
// are clipped against it), single-pixel specks, and a density-controlled
// scatter.  Set pixels carry arbitrary nonzero values, not just 255.
video::Mask random_mask(common::Rng& rng) {
  const int w = rng.uniform_int(1, 72), h = rng.uniform_int(1, 48);
  video::Mask m(w, h, 0);
  const auto set_value = [&rng] {
    return static_cast<std::uint8_t>(rng.uniform_int(1, 255));
  };
  const int rects = rng.uniform_int(0, 10);
  for (int i = 0; i < rects; ++i)
    m.fill_rect({rng.uniform_int(-4, w), rng.uniform_int(-4, h),
                 rng.uniform_int(1, 8), rng.uniform_int(1, 8)},
                set_value());
  const double density = rng.uniform(0.0, 0.35);
  for (std::size_t p = 0; p < m.pixel_count(); ++p)
    if (rng.bernoulli(density)) m.data()[p] = set_value();
  return m;
}

TEST(ComponentsReference, DilateMatchesReference) {
  common::Rng rng(101);
  for (int trial = 0; trial < 400; ++trial) {
    const video::Mask m = random_mask(rng);
    for (int radius = 0; radius <= 3; ++radius)
      ASSERT_TRUE(same_pixels(dilate(m, radius), reference::dilate(m, radius)))
          << "trial " << trial << " radius " << radius;
  }
}

TEST(ComponentsReference, ConnectedComponentsMatchReference) {
  common::Rng rng(202);
  int boundaries = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const video::Mask m = random_mask(rng);
    for (const int min_area : {0, 1, 2, 4, 5, 9, 30})
      ASSERT_TRUE(same_components(connected_components(m, min_area),
                                  reference::connected_components(m, min_area)))
          << "trial " << trial << " min_area " << min_area;
    // Both sides of the min_area_px boundary: at the first component's own
    // area every component of exactly that area stays, one above it they go.
    const auto all = reference::connected_components(m, 0);
    if (all.empty()) continue;
    const int area = all.front().area_px;
    const auto at = connected_components(m, area);
    const auto above = connected_components(m, area + 1);
    ASSERT_TRUE(same_components(at, reference::connected_components(m, area)));
    ASSERT_TRUE(
        same_components(above, reference::connected_components(m, area + 1)));
    const auto exact = std::count_if(
        all.begin(), all.end(),
        [area](const Component& c) { return c.area_px == area; });
    EXPECT_EQ(at.size(), above.size() + static_cast<std::size_t>(exact));
    ++boundaries;
  }
  EXPECT_GT(boundaries, 100);
}

TEST(ComponentsReference, ExtractBlobsMatchesReference) {
  common::Rng rng(303);
  std::size_t merged = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const video::Mask m = random_mask(rng);
    ComponentParams params;
    params.dilate_radius = rng.uniform_int(0, 3);
    params.min_area_px = rng.uniform_int(0, 12);
    params.merge_gap_px = rng.uniform_int(0, 6);
    const auto got = extract_blobs(m, params);
    ASSERT_EQ(got, reference::extract_blobs(m, params))
        << "trial " << trial << " radius " << params.dilate_radius
        << " min_area " << params.min_area_px << " gap "
        << params.merge_gap_px;
    const auto comps = connected_components(
        dilate(m, params.dilate_radius), params.min_area_px);
    if (got.size() < comps.size()) ++merged;
  }
  EXPECT_GT(merged, 0u);  // the box merge actually merged something
}

}  // namespace
}  // namespace tangram::vision
