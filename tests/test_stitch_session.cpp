// Incremental packing engine: FreeRectIndex unit tests, StitchSession
// checkpoint/rollback semantics, and the batch-vs-incremental equivalence
// property the invoker's fast path depends on.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/free_rect_index.h"
#include "core/stitcher.h"

namespace tangram::core {
namespace {

const common::Size kCanvas{1024, 1024};

std::vector<common::Size> random_items(common::Rng& rng, int n,
                                       common::Size canvas) {
  std::vector<common::Size> items;
  items.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    items.push_back({rng.uniform_int(1, canvas.width),
                     rng.uniform_int(1, canvas.height)});
  return items;
}

bool placements_equal(const std::vector<Placement>& a,
                      const std::vector<Placement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].canvas_index != b[i].canvas_index ||
        !(a[i].position == b[i].position))
      return false;
  }
  return true;
}

// --- FreeRectIndex ----------------------------------------------------------

TEST(FreeRectIndex, FirstPlacementOpensCanvasAtOrigin) {
  FreeRectIndex index(kCanvas);
  const auto placed = index.place({300, 400});
  EXPECT_EQ(placed.canvas_index, 0);
  EXPECT_EQ(placed.position, (common::Point{0, 0}));
  EXPECT_EQ(index.canvas_count(), 1);
}

TEST(FreeRectIndex, RejectsInvalidItems) {
  FreeRectIndex index(kCanvas);
  EXPECT_THROW((void)index.place({0, 10}), std::invalid_argument);
  EXPECT_THROW((void)index.place({1500, 10}), std::invalid_argument);
  EXPECT_THROW(FreeRectIndex(common::Size{0, 0}), std::invalid_argument);
}

TEST(FreeRectIndex, RollbackRestoresExactFreeLists) {
  common::Rng rng(21, 3);
  FreeRectIndex index(kCanvas);
  for (int i = 0; i < 10; ++i)
    (void)index.place({rng.uniform_int(50, 600), rng.uniform_int(50, 600)});

  // Snapshot the free lists by value.
  std::vector<std::vector<common::Rect>> before;
  for (int c = 0; c < index.canvas_count(); ++c)
    before.push_back(index.free_rects(c));

  const auto mark = index.mark();
  for (int i = 0; i < 10; ++i)
    (void)index.place({rng.uniform_int(50, 900), rng.uniform_int(50, 900)});
  index.rollback(mark);

  ASSERT_EQ(static_cast<std::size_t>(index.canvas_count()), before.size());
  for (int c = 0; c < index.canvas_count(); ++c)
    EXPECT_EQ(index.free_rects(c), before[c]) << "canvas " << c;
}

TEST(FreeRectIndex, RollbackToEmptyAndStaleMarkThrows) {
  FreeRectIndex index(kCanvas);
  const auto empty_mark = index.mark();
  (void)index.place({500, 500});
  (void)index.place({900, 900});
  EXPECT_EQ(index.canvas_count(), 2);
  index.rollback(empty_mark);
  EXPECT_EQ(index.canvas_count(), 0);
  // Marks taken on the rolled-back suffix are stale once past them.
  (void)index.place({500, 500});
  const auto later = index.mark();
  index.rollback(empty_mark);
  EXPECT_THROW(index.rollback(later), std::invalid_argument);
  // Still stale after the journal regrows past the mark's position with
  // different entries.
  (void)index.place({400, 400});
  (void)index.place({300, 300});
  EXPECT_THROW(index.rollback(later), std::invalid_argument);
}

// --- StitchSession checkpoint/rollback --------------------------------------

class SessionHeuristics : public ::testing::TestWithParam<int> {};

TEST_P(SessionHeuristics, RollbackThenReplayIsDeterministic) {
  const auto heuristic = static_cast<PackHeuristic>(GetParam());
  common::Rng rng(7 + static_cast<std::uint64_t>(GetParam()), 5);
  const auto prefix = random_items(rng, 30, kCanvas);
  const auto suffix = random_items(rng, 30, kCanvas);

  StitchSession session(kCanvas, heuristic);
  for (const auto& item : prefix) (void)session.add(item);
  const auto prefix_canvases = session.canvas_count();
  const auto prefix_fill = session.canvas_fill();

  const auto cp = session.checkpoint();
  std::vector<Placement> first;
  for (const auto& item : suffix) first.push_back(session.add(item));

  session.rollback(cp);
  EXPECT_EQ(session.item_count(), prefix.size());
  EXPECT_EQ(session.canvas_count(), prefix_canvases);
  EXPECT_EQ(session.canvas_fill(), prefix_fill);

  std::vector<Placement> second;
  for (const auto& item : suffix) second.push_back(session.add(item));
  EXPECT_TRUE(placements_equal(first, second));
}

TEST_P(SessionHeuristics, NestedCheckpointsUnwindInOrder) {
  const auto heuristic = static_cast<PackHeuristic>(GetParam());
  common::Rng rng(11 + static_cast<std::uint64_t>(GetParam()), 5);
  StitchSession session(kCanvas, heuristic);
  for (const auto& item : random_items(rng, 10, kCanvas))
    (void)session.add(item);
  const auto outer = session.checkpoint();
  for (const auto& item : random_items(rng, 10, kCanvas))
    (void)session.add(item);
  const auto inner = session.checkpoint();
  for (const auto& item : random_items(rng, 10, kCanvas))
    (void)session.add(item);

  session.rollback(inner);
  EXPECT_EQ(session.item_count(), 20u);
  session.rollback(outer);
  EXPECT_EQ(session.item_count(), 10u);
}

TEST_P(SessionHeuristics, CheckpointOnRewoundHistoryIsStale) {
  const auto heuristic = static_cast<PackHeuristic>(GetParam());
  common::Rng rng(13 + static_cast<std::uint64_t>(GetParam()), 5);
  StitchSession session(kCanvas, heuristic);
  for (const auto& item : random_items(rng, 5, kCanvas))
    (void)session.add(item);
  const auto early = session.checkpoint();
  for (const auto& item : random_items(rng, 5, kCanvas))
    (void)session.add(item);
  const auto late = session.checkpoint();

  // Rolling back past `late` invalidates it even if the history regrows to
  // the same length with different items.
  session.rollback(early);
  for (const auto& item : random_items(rng, 8, kCanvas))
    (void)session.add(item);
  EXPECT_THROW(session.rollback(late), std::invalid_argument);
  // `early` sits on untouched history and stays valid.
  session.rollback(early);
  EXPECT_EQ(session.item_count(), 5u);

  // reset() invalidates every non-empty checkpoint.
  session.reset();
  EXPECT_THROW(session.rollback(early), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllHeuristics, SessionHeuristics,
                         ::testing::Values(0, 1, 2, 3));

// --- batch-vs-incremental equivalence ---------------------------------------

class SessionEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

// The invoker's contract: replaying a patch sequence through a session (in
// queue order) must reproduce StitchSolver::pack() exactly — placements,
// canvas count, and per-canvas fill.
TEST_P(SessionEquivalence, ReplayMatchesBatchPack) {
  const auto [seed, heuristic_index] = GetParam();
  common::Rng rng(seed, 17);
  const auto heuristic = static_cast<PackHeuristic>(heuristic_index);

  const common::Size canvas{rng.uniform_int(256, 2048),
                            rng.uniform_int(256, 2048)};
  const auto items = random_items(rng, rng.uniform_int(1, 150), canvas);

  const auto batch = StitchSolver(heuristic).pack(items, canvas);

  StitchSession session(canvas, heuristic);
  std::vector<Placement> incremental;
  for (const auto& item : items) incremental.push_back(session.add(item));

  EXPECT_TRUE(placements_equal(batch.placements, incremental));
  EXPECT_EQ(batch.canvas_count, session.canvas_count());
  ASSERT_EQ(batch.canvas_fill.size(), session.canvas_fill().size());
  const auto fill = session.canvas_fill();
  for (std::size_t c = 0; c < fill.size(); ++c)
    EXPECT_DOUBLE_EQ(batch.canvas_fill[c], fill[c]) << "canvas " << c;
}

// Interleaving checkpoints and rollbacks along the way must not disturb the
// surviving placements: simulate the invoker's tentative-admit pattern.
TEST_P(SessionEquivalence, TentativeAdmitsDoNotPerturbSurvivors) {
  const auto [seed, heuristic_index] = GetParam();
  common::Rng rng(seed, 23);
  const auto heuristic = static_cast<PackHeuristic>(heuristic_index);
  const auto items = random_items(rng, 60, kCanvas);

  StitchSession session(kCanvas, heuristic);
  std::vector<Placement> placements;
  for (const auto& item : items) {
    // Tentatively admit a random probe, then un-admit it.
    const auto cp = session.checkpoint();
    (void)session.add(
        {rng.uniform_int(1, kCanvas.width), rng.uniform_int(1, kCanvas.height)});
    session.rollback(cp);
    placements.push_back(session.add(item));
  }

  const auto batch = StitchSolver(heuristic).pack(items, kCanvas);
  EXPECT_TRUE(placements_equal(batch.placements, placements));
  EXPECT_EQ(batch.canvas_count, session.canvas_count());
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, SessionEquivalence,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 15),
                       ::testing::Values(0, 1, 2, 3)));

}  // namespace
}  // namespace tangram::core
