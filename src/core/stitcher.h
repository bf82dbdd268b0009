// Patch-stitching solver — Algorithm 2, lines 24-39.
//
// Stitches variable-size patches onto a sequence of fixed-size canvases with
// no overlap, rotation, resizing, or padding.  The paper's heuristic is a
// guillotine packer with Best-Short-Side-Fit rect choice:
//   * among all free rectangles (across all open canvases) that can contain
//     the patch, pick the one minimizing min(wc - wi, hc - hi);
//   * place the patch at the free rect's origin corner;
//   * split the residual L-shape into two free rectangles along the shorter
//     axis;
//   * when nothing fits, open a new blank canvas.
//
// Two entry points share one packing engine:
//   * StitchSession — the incremental API.  add() places one patch against
//     the live canvas state in O(free rects); checkpoint()/rollback() undo
//     tentative placements.  This is what the online invoker uses, turning
//     the per-arrival cost from O(queue) into O(1) amortized placements.
//   * StitchSolver::pack() — the batch API of the paper's pseudocode
//     ("re-run from scratch on every arrival", Algorithm 2 line 8).  It is a
//     thin wrapper that replays the items through a fresh session, so batch
//     and incremental placements are identical by construction.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/geometry.h"
#include "core/free_rect_index.h"
#include "core/patch.h"

namespace tangram::core {

enum class PackHeuristic {
  kGuillotineBssf,     // the paper's method
  kShelfFirstFit,      // ablation: next-fit shelves
  kOnePerCanvas,       // ablation: no stitching (ELF-like canvas use)
  kSkylineBottomLeft,  // ablation: skyline bottom-left packing
};

struct Placement {
  int canvas_index = -1;
  common::Point position;  // top-left corner on the canvas
};

struct StitchResult {
  std::vector<Placement> placements;  // parallel to the input span
  int canvas_count = 0;
  std::vector<double> canvas_fill;    // used-area fraction per canvas

  // Ratio of total patch area to total canvas area (the paper's
  // "canvas efficiency").
  [[nodiscard]] double efficiency(common::Size canvas,
                                  std::span<const common::Size> items) const;
};

// Incremental packing engine.  Placements already made are never revisited:
// each add() extends the current canvas set exactly the way the batch solver
// would have placed the same item at the same point of its scan, so replaying
// a sequence through a session reproduces StitchSolver::pack() placements
// bit for bit (in the given order).
class StitchSession {
 public:
  explicit StitchSession(common::Size canvas,
                         PackHeuristic heuristic = PackHeuristic::kGuillotineBssf);

  // Place one patch.  Throws std::invalid_argument if the item is empty or
  // exceeds the canvas in either dimension (split_oversized first).
  Placement add(common::Size item);

  // O(1): capture the current state.  rollback() undoes every add() made
  // after the checkpoint, at cost proportional to that work.  Checkpoints
  // taken after this one are invalidated by rolling back past them; using
  // one throws std::invalid_argument (each checkpoint remembers the sequence
  // number of the placement it sits on, so a rewound-and-regrown history is
  // detected rather than silently corrupting the free lists).
  struct Checkpoint {
    std::size_t items = 0;
    FreeRectIndex::Mark free_mark;
    std::size_t undo_mark = 0;
    std::uint64_t last_seq = 0;  // seq of the item below the checkpoint
  };
  [[nodiscard]] Checkpoint checkpoint() const;
  void rollback(const Checkpoint& checkpoint);

  // Undo the `count` most recent live placements without a caller-held
  // checkpoint: the session keeps each add()'s pre-add marks, so rolling the
  // queue tail back (the work-stealing release path) costs the same as a
  // rollback() to a checkpoint taken just before those adds.  Throws
  // std::invalid_argument when count exceeds the live placements.
  void rollback_last(std::size_t count);

  // Drop all placements and canvases.
  void reset();

  [[nodiscard]] PackHeuristic heuristic() const { return heuristic_; }
  [[nodiscard]] common::Size canvas() const { return canvas_; }
  [[nodiscard]] std::size_t item_count() const { return placements_.size(); }
  [[nodiscard]] int canvas_count() const {
    return static_cast<int>(used_area_.size());
  }
  // Placements in add() order.
  [[nodiscard]] const std::vector<Placement>& placements() const {
    return placements_;
  }
  // Used-area fraction per canvas (the invoker's batch telemetry).
  [[nodiscard]] std::vector<double> canvas_fill() const;
  // Allocation-free per-canvas variant of the above: identical value for
  // index c as canvas_fill()[c] (the invoker's recycled-batch fill pass).
  [[nodiscard]] double canvas_fill(std::size_t index) const;

 private:
  Placement add_guillotine(common::Size item);
  Placement add_shelf(common::Size item);
  Placement add_one_per_canvas(common::Size item);
  Placement add_skyline(common::Size item);

  // --- per-heuristic state ---------------------------------------------------
  struct Shelf {
    int y = 0;
    int height = 0;
    int cursor_x = 0;
  };
  struct ShelfCanvas {
    std::vector<Shelf> shelves;
    int next_shelf_y = 0;
  };
  // Skyline as (x, width, y) segments covering [0, canvas.width).
  struct Segment {
    int x, width, y;
  };

  // One undo record per add() for the shelf/skyline heuristics (guillotine
  // journals inside FreeRectIndex; one-per-canvas needs no state).
  struct ShelfUndo {
    enum class Kind { kExistingShelf, kNewShelf, kNewCanvas } kind;
    std::size_t canvas = 0;
    std::size_t shelf = 0;
    int previous = 0;  // cursor_x or next_shelf_y before the add
  };
  struct SkylineUndo {
    bool new_canvas = false;
    std::size_t canvas = 0;
    std::vector<Segment> previous;  // segment list before the add
  };

  // Pre-add state captured for every live placement (parallel to
  // placements_), so rollback_last() can synthesize the checkpoint that a
  // caller would have taken before any suffix of the adds.
  struct ItemMark {
    FreeRectIndex::Mark free_mark;
    std::size_t undo_mark = 0;
  };

  common::Size canvas_;
  PackHeuristic heuristic_;
  std::vector<Placement> placements_;
  std::vector<std::int64_t> item_areas_;   // parallel to placements_
  std::vector<std::uint64_t> item_seq_;    // parallel to placements_
  std::vector<ItemMark> item_marks_;       // parallel to placements_
  std::uint64_t next_seq_ = 1;             // never reused, even by rollback
  std::vector<std::int64_t> used_area_;    // per canvas
  FreeRectIndex free_rects_;               // guillotine
  std::vector<ShelfCanvas> shelf_canvases_;
  std::vector<ShelfUndo> shelf_undo_;
  std::vector<std::vector<Segment>> skylines_;
  std::vector<SkylineUndo> skyline_undo_;
};

class StitchSolver {
 public:
  explicit StitchSolver(
      PackHeuristic heuristic = PackHeuristic::kGuillotineBssf)
      : heuristic_(heuristic) {}

  [[nodiscard]] PackHeuristic heuristic() const { return heuristic_; }

  // Pack all items in input order (replayed through a fresh StitchSession).
  // Throws std::invalid_argument if any item exceeds the canvas in either
  // dimension (callers split oversized patches first; see split_oversized).
  [[nodiscard]] StitchResult pack(std::span<const common::Size> items,
                                  common::Size canvas) const;

 private:
  PackHeuristic heuristic_;
};

// Cut a rectangle exceeding the canvas into a grid of tiles that each fit.
// The paper's zones (4K frame / 4x4 grid) are at most 960x540 and normally
// fit a 1024x1024 canvas, but a zone's minimum-enclosing rectangle can grow
// past it; a real system must ship such patches somehow, so we tile them.
// A patch already fitting the canvas (including exactly equal to it) is
// returned as a single tile.  Throws std::invalid_argument on a degenerate
// (zero-area) patch or canvas.
[[nodiscard]] std::vector<common::Rect> split_oversized(
    const common::Rect& patch, common::Size canvas);

// Apportion an oversized patch's encoded bytes across its split tiles in
// proportion to tile area, conserving every byte: the returned sizes sum
// EXACTLY to `bytes` (cumulative rounding — no remainder is dropped the way
// a naive bytes/tiles division would).  Throws std::invalid_argument on an
// empty tile list or a degenerate (zero-area) tile.
[[nodiscard]] std::vector<std::size_t> apportion_bytes(
    std::size_t bytes, const std::vector<common::Rect>& tiles);

// split_oversized + apportion_bytes over a whole Patch: each returned
// sub-patch carries one tile and its byte share; all other metadata (ids,
// stream, timestamps, SLO) is copied through.  A patch already fitting the
// canvas comes back as the single untouched element.
[[nodiscard]] std::vector<Patch> split_patch(const Patch& patch,
                                             common::Size canvas);

}  // namespace tangram::core
