#include "core/stitcher.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tangram::core {
namespace {

const common::Size kCanvas{1024, 1024};

// Materialize the placed rectangles of a packing.
std::vector<std::pair<int, common::Rect>> placed_rects(
    const StitchResult& result, std::span<const common::Size> items) {
  std::vector<std::pair<int, common::Rect>> out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Placement& p = result.placements[i];
    out.emplace_back(p.canvas_index,
                     common::Rect{p.position.x, p.position.y, items[i].width,
                                  items[i].height});
  }
  return out;
}

void expect_valid_packing(const StitchResult& result,
                          std::span<const common::Size> items,
                          common::Size canvas) {
  const common::Rect bounds{0, 0, canvas.width, canvas.height};
  const auto rects = placed_rects(result, items);
  for (std::size_t i = 0; i < rects.size(); ++i) {
    EXPECT_GE(rects[i].first, 0);
    EXPECT_LT(rects[i].first, result.canvas_count);
    EXPECT_TRUE(bounds.contains(rects[i].second))
        << "item " << i << " at " << rects[i].second;
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      if (rects[i].first != rects[j].first) continue;
      EXPECT_FALSE(common::overlaps(rects[i].second, rects[j].second))
          << "items " << i << " and " << j << " overlap: " << rects[i].second
          << " vs " << rects[j].second;
    }
  }
}

TEST(Stitcher, EmptyInputNoCanvases) {
  const StitchSolver solver;
  const auto result = solver.pack({}, kCanvas);
  EXPECT_EQ(result.canvas_count, 0);
  EXPECT_TRUE(result.placements.empty());
}

TEST(Stitcher, SinglePatchAtOrigin) {
  const StitchSolver solver;
  const std::vector<common::Size> items{{300, 400}};
  const auto result = solver.pack(items, kCanvas);
  EXPECT_EQ(result.canvas_count, 1);
  EXPECT_EQ(result.placements[0].canvas_index, 0);
  EXPECT_EQ(result.placements[0].position, (common::Point{0, 0}));
  EXPECT_NEAR(result.canvas_fill[0], 300.0 * 400 / (1024.0 * 1024), 1e-12);
}

TEST(Stitcher, TwoSmallPatchesShareCanvas) {
  const StitchSolver solver;
  const std::vector<common::Size> items{{500, 500}, {500, 500}};
  const auto result = solver.pack(items, kCanvas);
  EXPECT_EQ(result.canvas_count, 1);
  expect_valid_packing(result, items, kCanvas);
}

TEST(Stitcher, FullCanvasPatchesGetOwnCanvases) {
  const StitchSolver solver;
  const std::vector<common::Size> items{{1024, 1024}, {1024, 1024}};
  const auto result = solver.pack(items, kCanvas);
  EXPECT_EQ(result.canvas_count, 2);
  expect_valid_packing(result, items, kCanvas);
}

TEST(Stitcher, PerfectTilingFourQuadrants) {
  const StitchSolver solver;
  const std::vector<common::Size> items(4, {512, 512});
  const auto result = solver.pack(items, kCanvas);
  EXPECT_EQ(result.canvas_count, 1);
  EXPECT_DOUBLE_EQ(result.canvas_fill[0], 1.0);
  expect_valid_packing(result, items, kCanvas);
}

TEST(Stitcher, OversizedPatchThrows) {
  const StitchSolver solver;
  EXPECT_THROW((void)solver.pack(std::vector<common::Size>{{1500, 100}},
                                 kCanvas),
               std::invalid_argument);
  EXPECT_THROW((void)solver.pack(std::vector<common::Size>{{100, 1500}},
                                 kCanvas),
               std::invalid_argument);
}

TEST(Stitcher, EmptyPatchThrows) {
  const StitchSolver solver;
  EXPECT_THROW((void)solver.pack(std::vector<common::Size>{{0, 10}}, kCanvas),
               std::invalid_argument);
  EXPECT_THROW((void)solver.pack(std::vector<common::Size>{{10, 10}},
                                 common::Size{0, 0}),
               std::invalid_argument);
}

TEST(Stitcher, EfficiencyDefinition) {
  const StitchSolver solver;
  const std::vector<common::Size> items{{512, 1024}};
  const auto result = solver.pack(items, kCanvas);
  EXPECT_DOUBLE_EQ(result.efficiency(kCanvas, items), 0.5);
}

TEST(Stitcher, BssfBeatsOrMatchesOnePerCanvas) {
  common::Rng rng(3, 7);
  std::vector<common::Size> items;
  for (int i = 0; i < 40; ++i)
    items.push_back({rng.uniform_int(50, 500), rng.uniform_int(50, 500)});
  const auto bssf = StitchSolver(PackHeuristic::kGuillotineBssf).pack(items, kCanvas);
  const auto one = StitchSolver(PackHeuristic::kOnePerCanvas).pack(items, kCanvas);
  EXPECT_LT(bssf.canvas_count, one.canvas_count);
  EXPECT_EQ(one.canvas_count, 40);
}

TEST(Stitcher, SkylineHeuristicIsValid) {
  common::Rng rng(11, 7);
  std::vector<common::Size> items;
  for (int i = 0; i < 80; ++i)
    items.push_back({rng.uniform_int(30, 700), rng.uniform_int(30, 700)});
  const auto result =
      StitchSolver(PackHeuristic::kSkylineBottomLeft).pack(items, kCanvas);
  expect_valid_packing(result, items, kCanvas);
}

TEST(Stitcher, SkylinePerfectTiling) {
  const StitchSolver solver(PackHeuristic::kSkylineBottomLeft);
  const std::vector<common::Size> items(4, {512, 512});
  const auto result = solver.pack(items, kCanvas);
  EXPECT_EQ(result.canvas_count, 1);
  EXPECT_DOUBLE_EQ(result.canvas_fill[0], 1.0);
}

TEST(Stitcher, SkylineCompetitiveWithGuillotine) {
  common::Rng rng(13, 7);
  std::vector<common::Size> items;
  for (int i = 0; i < 60; ++i)
    items.push_back({rng.uniform_int(60, 500), rng.uniform_int(60, 500)});
  const auto sky =
      StitchSolver(PackHeuristic::kSkylineBottomLeft).pack(items, kCanvas);
  const auto bssf =
      StitchSolver(PackHeuristic::kGuillotineBssf).pack(items, kCanvas);
  // Both competent heuristics land within one canvas of each other here.
  EXPECT_LE(std::abs(sky.canvas_count - bssf.canvas_count), 2);
}

TEST(Stitcher, ShelfHeuristicIsValid) {
  common::Rng rng(5, 7);
  std::vector<common::Size> items;
  for (int i = 0; i < 60; ++i)
    items.push_back({rng.uniform_int(30, 700), rng.uniform_int(30, 700)});
  const auto result =
      StitchSolver(PackHeuristic::kShelfFirstFit).pack(items, kCanvas);
  expect_valid_packing(result, items, kCanvas);
}

TEST(Stitcher, CanvasFillSumsToEfficiency) {
  common::Rng rng(9, 7);
  std::vector<common::Size> items;
  for (int i = 0; i < 30; ++i)
    items.push_back({rng.uniform_int(50, 400), rng.uniform_int(50, 400)});
  const StitchSolver solver;
  const auto result = solver.pack(items, kCanvas);
  double fill_sum = 0;
  for (const double f : result.canvas_fill) fill_sum += f;
  EXPECT_NEAR(fill_sum / result.canvas_count,
              result.efficiency(kCanvas, items), 1e-9);
}

// --- split_oversized --------------------------------------------------------

TEST(SplitOversized, FittingPatchUntouched) {
  const common::Rect patch{10, 10, 500, 700};
  const auto tiles = split_oversized(patch, kCanvas);
  ASSERT_EQ(tiles.size(), 1u);
  EXPECT_EQ(tiles[0], patch);
}

TEST(SplitOversized, PatchExactlyEqualToCanvasIsOneTile) {
  const common::Rect patch{40, 60, kCanvas.width, kCanvas.height};
  const auto tiles = split_oversized(patch, kCanvas);
  ASSERT_EQ(tiles.size(), 1u);
  EXPECT_EQ(tiles[0], patch);
}

TEST(SplitOversized, DegeneratePatchThrows) {
  EXPECT_THROW((void)split_oversized(common::Rect{0, 0, 0, 5000}, kCanvas),
               std::invalid_argument);
  EXPECT_THROW((void)split_oversized(common::Rect{0, 0, 5000, 0}, kCanvas),
               std::invalid_argument);
  EXPECT_THROW((void)split_oversized(common::Rect{0, 0, -10, 50}, kCanvas),
               std::invalid_argument);
}

TEST(SplitOversized, DegenerateCanvasThrows) {
  EXPECT_THROW((void)split_oversized(common::Rect{0, 0, 100, 100},
                                     common::Size{0, 1024}),
               std::invalid_argument);
}

TEST(SplitOversized, WidePatchSplitsIntoColumns) {
  const common::Rect patch{0, 0, 2100, 500};
  const auto tiles = split_oversized(patch, kCanvas);
  ASSERT_EQ(tiles.size(), 3u);
  std::int64_t area = 0;
  for (const auto& t : tiles) {
    EXPECT_LE(t.width, kCanvas.width);
    EXPECT_LE(t.height, kCanvas.height);
    EXPECT_TRUE(patch.contains(t));
    area += t.area();
  }
  EXPECT_EQ(area, patch.area());  // exact tiling, no gaps or overlap
}

// --- apportion_bytes --------------------------------------------------------

TEST(ApportionBytes, SumsExactlyToOriginalForAnyRemainder) {
  // Prime byte counts cannot divide evenly across any tile count; the old
  // bytes / tiles.size() division dropped the remainder.
  const common::Rect patch{0, 0, 2100, 500};
  const auto tiles = split_oversized(patch, kCanvas);
  ASSERT_EQ(tiles.size(), 3u);
  for (const std::size_t bytes : {0ul, 1ul, 2ul, 100003ul, 999999937ul}) {
    const auto shares = apportion_bytes(bytes, tiles);
    ASSERT_EQ(shares.size(), tiles.size());
    std::size_t sum = 0;
    for (const std::size_t s : shares) sum += s;
    EXPECT_EQ(sum, bytes) << "bytes=" << bytes;
  }
}

TEST(ApportionBytes, SharesProportionalToTileArea) {
  // 1500x500 splits into two columns of 750x500 — equal areas, equal bytes.
  const auto even = split_oversized(common::Rect{0, 0, 1500, 500}, kCanvas);
  ASSERT_EQ(even.size(), 2u);
  const auto even_shares = apportion_bytes(1000, even);
  EXPECT_EQ(even_shares[0], 500u);
  EXPECT_EQ(even_shares[1], 500u);

  // Unequal tiles get area-weighted shares, within a byte of exact.
  const std::vector<common::Rect> uneven = {{0, 0, 300, 100}, {300, 0, 100, 100}};
  const auto uneven_shares = apportion_bytes(4000, uneven);
  EXPECT_EQ(uneven_shares[0], 3000u);
  EXPECT_EQ(uneven_shares[1], 1000u);
}

TEST(ApportionBytes, RejectsDegenerateInput) {
  EXPECT_THROW((void)apportion_bytes(10, {}), std::invalid_argument);
  EXPECT_THROW((void)apportion_bytes(10, {common::Rect{0, 0, 0, 100}}),
               std::invalid_argument);
}

TEST(SplitPatch, FittingPatchPassesThroughUntouched) {
  Patch p;
  p.id = 7;
  p.region = {10, 10, 500, 700};
  p.bytes = 1234;
  const auto subs = split_patch(p, kCanvas);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].region, p.region);
  EXPECT_EQ(subs[0].bytes, 1234u);
}

TEST(SplitPatch, TilesCarryMetadataAndConserveBytes) {
  Patch p;
  p.id = 9;
  p.stream_id = 3;
  p.region = {0, 0, 2100, 500};
  p.generation_time = 1.5;
  p.slo = 0.8;
  p.bytes = 100003;
  const auto subs = split_patch(p, kCanvas);
  ASSERT_EQ(subs.size(), 3u);
  std::size_t bytes = 0;
  for (const auto& sub : subs) {
    EXPECT_EQ(sub.id, 9u);
    EXPECT_EQ(sub.stream_id, 3);
    EXPECT_DOUBLE_EQ(sub.generation_time, 1.5);
    EXPECT_DOUBLE_EQ(sub.slo, 0.8);
    bytes += sub.bytes;
  }
  EXPECT_EQ(bytes, 100003u);
}

TEST(SplitOversized, BothDimensionsSplit) {
  const common::Rect patch{100, 100, 2500, 2500};
  const auto tiles = split_oversized(patch, kCanvas);
  EXPECT_EQ(tiles.size(), 9u);
  std::int64_t area = 0;
  for (const auto& t : tiles) area += t.area();
  EXPECT_EQ(area, patch.area());
  for (std::size_t i = 0; i < tiles.size(); ++i)
    for (std::size_t j = i + 1; j < tiles.size(); ++j)
      EXPECT_FALSE(common::overlaps(tiles[i], tiles[j]));
}

// --- property sweep ----------------------------------------------------------

struct FuzzCase {
  std::uint64_t seed;
  PackHeuristic heuristic;
};

class StitcherProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(StitcherProperty, PackingAlwaysValid) {
  const auto [seed, heuristic_index] = GetParam();
  common::Rng rng(seed, 31);
  const auto heuristic = static_cast<PackHeuristic>(heuristic_index);

  const int n = rng.uniform_int(1, 150);
  const common::Size canvas{rng.uniform_int(256, 2048),
                            rng.uniform_int(256, 2048)};
  std::vector<common::Size> items;
  for (int i = 0; i < n; ++i)
    items.push_back({rng.uniform_int(1, canvas.width),
                     rng.uniform_int(1, canvas.height)});

  const StitchSolver solver(heuristic);
  const auto result = solver.pack(items, canvas);

  ASSERT_EQ(result.placements.size(), items.size());
  ASSERT_EQ(result.canvas_fill.size(),
            static_cast<std::size_t>(result.canvas_count));
  expect_valid_packing(result, items, canvas);
  // Efficiency is a proper fraction.
  const double eff = result.efficiency(canvas, items);
  EXPECT_GT(eff, 0.0);
  EXPECT_LE(eff, 1.0 + 1e-12);
  for (const double f : result.canvas_fill) {
    EXPECT_GT(f, 0.0);
    EXPECT_LE(f, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, StitcherProperty,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 15),
                       ::testing::Values(0, 1, 2, 3)));

}  // namespace
}  // namespace tangram::core
