#include "core/stitcher.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace tangram::core {

double StitchResult::efficiency(common::Size canvas,
                                std::span<const common::Size> items) const {
  if (canvas_count == 0) return 0.0;
  std::int64_t used = 0;
  for (const auto& s : items) used += s.area();
  return static_cast<double>(used) /
         (static_cast<double>(canvas.area()) * canvas_count);
}

// --- StitchSession -----------------------------------------------------------

StitchSession::StitchSession(common::Size canvas, PackHeuristic heuristic)
    : canvas_(canvas), heuristic_(heuristic), free_rects_(canvas) {
  if (canvas_.empty())
    throw std::invalid_argument("StitchSession: empty canvas");
}

Placement StitchSession::add(common::Size item) {
  if (item.empty())
    throw std::invalid_argument("StitchSession: empty patch");
  if (item.width > canvas_.width || item.height > canvas_.height)
    throw std::invalid_argument(
        "StitchSession: patch exceeds canvas (split_oversized first)");

  ItemMark mark;
  mark.free_mark = free_rects_.mark();
  switch (heuristic_) {
    case PackHeuristic::kShelfFirstFit:
      mark.undo_mark = shelf_undo_.size();
      break;
    case PackHeuristic::kSkylineBottomLeft:
      mark.undo_mark = skyline_undo_.size();
      break;
    default:
      break;
  }

  Placement placement;
  switch (heuristic_) {
    case PackHeuristic::kGuillotineBssf:
      placement = add_guillotine(item);
      break;
    case PackHeuristic::kShelfFirstFit:
      placement = add_shelf(item);
      break;
    case PackHeuristic::kOnePerCanvas:
      placement = add_one_per_canvas(item);
      break;
    case PackHeuristic::kSkylineBottomLeft:
      placement = add_skyline(item);
      break;
  }

  const auto canvas_index = static_cast<std::size_t>(placement.canvas_index);
  if (canvas_index >= used_area_.size()) used_area_.resize(canvas_index + 1, 0);
  used_area_[canvas_index] += item.area();
  placements_.push_back(placement);
  item_areas_.push_back(item.area());
  item_seq_.push_back(next_seq_++);
  item_marks_.push_back(mark);
  return placement;
}

StitchSession::Checkpoint StitchSession::checkpoint() const {
  Checkpoint cp;
  cp.items = placements_.size();
  cp.free_mark = free_rects_.mark();
  cp.last_seq = item_seq_.empty() ? 0 : item_seq_.back();
  switch (heuristic_) {
    case PackHeuristic::kShelfFirstFit:
      cp.undo_mark = shelf_undo_.size();
      break;
    case PackHeuristic::kSkylineBottomLeft:
      cp.undo_mark = skyline_undo_.size();
      break;
    default:
      break;
  }
  return cp;
}

void StitchSession::rollback(const Checkpoint& checkpoint) {
  // A checkpoint is valid only while the placement history below it is
  // untouched.  After a rollback past it, the history may have regrown with
  // different items whose journal entries the old marks would misindex —
  // the sequence number pins the exact placement the checkpoint sat on.
  const bool stale =
      checkpoint.items > placements_.size() ||
      (checkpoint.items > 0 &&
       item_seq_[checkpoint.items - 1] != checkpoint.last_seq);
  if (stale)
    throw std::invalid_argument("StitchSession::rollback: stale checkpoint");

  while (placements_.size() > checkpoint.items) {
    const auto canvas_index =
        static_cast<std::size_t>(placements_.back().canvas_index);
    used_area_[canvas_index] -= item_areas_.back();
    placements_.pop_back();
    item_areas_.pop_back();
    item_seq_.pop_back();
    item_marks_.pop_back();
  }

  switch (heuristic_) {
    case PackHeuristic::kGuillotineBssf:
      free_rects_.rollback(checkpoint.free_mark);
      used_area_.resize(static_cast<std::size_t>(free_rects_.canvas_count()));
      break;
    case PackHeuristic::kShelfFirstFit:
      while (shelf_undo_.size() > checkpoint.undo_mark) {
        const ShelfUndo undo = shelf_undo_.back();
        shelf_undo_.pop_back();
        switch (undo.kind) {
          case ShelfUndo::Kind::kExistingShelf:
            shelf_canvases_[undo.canvas].shelves[undo.shelf].cursor_x =
                undo.previous;
            break;
          case ShelfUndo::Kind::kNewShelf:
            shelf_canvases_[undo.canvas].shelves.pop_back();
            shelf_canvases_[undo.canvas].next_shelf_y = undo.previous;
            break;
          case ShelfUndo::Kind::kNewCanvas:
            shelf_canvases_.pop_back();
            break;
        }
      }
      used_area_.resize(shelf_canvases_.size());
      break;
    case PackHeuristic::kOnePerCanvas:
      used_area_.resize(checkpoint.items);
      break;
    case PackHeuristic::kSkylineBottomLeft:
      while (skyline_undo_.size() > checkpoint.undo_mark) {
        SkylineUndo undo = std::move(skyline_undo_.back());
        skyline_undo_.pop_back();
        if (undo.new_canvas) {
          skylines_.pop_back();
        } else {
          skylines_[undo.canvas] = std::move(undo.previous);
        }
      }
      used_area_.resize(skylines_.size());
      break;
  }
}

void StitchSession::rollback_last(std::size_t count) {
  if (count > placements_.size())
    throw std::invalid_argument(
        "StitchSession::rollback_last: count exceeds live placements");
  if (count == 0) return;
  // item_marks_[target] is exactly the state a checkpoint() would have
  // captured when `target` items were live — replay it through rollback()
  // so every heuristic's undo machinery (and its staleness guard) is shared.
  const std::size_t target = placements_.size() - count;
  Checkpoint cp;
  cp.items = target;
  cp.free_mark = item_marks_[target].free_mark;
  cp.undo_mark = item_marks_[target].undo_mark;
  cp.last_seq = target == 0 ? 0 : item_seq_[target - 1];
  rollback(cp);
}

void StitchSession::reset() {
  placements_.clear();
  item_areas_.clear();
  item_seq_.clear();  // next_seq_ keeps counting: old checkpoints stay stale
  item_marks_.clear();
  used_area_.clear();
  free_rects_.clear();
  shelf_canvases_.clear();
  shelf_undo_.clear();
  skylines_.clear();
  skyline_undo_.clear();
}

std::vector<double> StitchSession::canvas_fill() const {
  std::vector<double> fill(used_area_.size());
  for (std::size_t c = 0; c < used_area_.size(); ++c)
    fill[c] = static_cast<double>(used_area_[c]) /
              static_cast<double>(canvas_.area());
  return fill;
}

double StitchSession::canvas_fill(std::size_t index) const {
  return static_cast<double>(used_area_[index]) /
         static_cast<double>(canvas_.area());
}

Placement StitchSession::add_guillotine(common::Size item) {
  const FreeRectIndex::Placed placed = free_rects_.place(item);
  return Placement{placed.canvas_index, placed.position};
}

Placement StitchSession::add_shelf(common::Size item) {
  // First-fit across open canvases: first shelf with room, else a new shelf
  // on the canvas, else a new canvas.
  for (std::size_t c = 0; c < shelf_canvases_.size(); ++c) {
    ShelfCanvas& cv = shelf_canvases_[c];
    for (std::size_t s = 0; s < cv.shelves.size(); ++s) {
      Shelf& shelf = cv.shelves[s];
      if (shelf.height >= item.height &&
          shelf.cursor_x + item.width <= canvas_.width) {
        shelf_undo_.push_back(
            ShelfUndo{ShelfUndo::Kind::kExistingShelf, c, s, shelf.cursor_x});
        const Placement placement{static_cast<int>(c),
                                  common::Point{shelf.cursor_x, shelf.y}};
        shelf.cursor_x += item.width;
        return placement;
      }
    }
    if (cv.next_shelf_y + item.height <= canvas_.height) {
      shelf_undo_.push_back(
          ShelfUndo{ShelfUndo::Kind::kNewShelf, c, 0, cv.next_shelf_y});
      cv.shelves.push_back(Shelf{cv.next_shelf_y, item.height, item.width});
      const Placement placement{static_cast<int>(c),
                                common::Point{0, cv.next_shelf_y}};
      cv.next_shelf_y += item.height;
      return placement;
    }
  }
  shelf_undo_.push_back(ShelfUndo{ShelfUndo::Kind::kNewCanvas, 0, 0, 0});
  shelf_canvases_.push_back(ShelfCanvas{});
  ShelfCanvas& cv = shelf_canvases_.back();
  cv.shelves.push_back(Shelf{0, item.height, item.width});
  cv.next_shelf_y = item.height;
  return Placement{static_cast<int>(shelf_canvases_.size()) - 1,
                   common::Point{0, 0}};
}

Placement StitchSession::add_one_per_canvas(common::Size /*item*/) {
  return Placement{static_cast<int>(placements_.size()), common::Point{0, 0}};
}

Placement StitchSession::add_skyline(common::Size item) {
  // Where `item` would land on a skyline (bottom-left rule): at each
  // segment's left edge the item rests on the max skyline level across its
  // span; pick the feasible position with the lowest resulting top, then
  // the smallest x.  Const scan — the snapshot for undo is only taken for
  // the one canvas that actually commits.
  const auto find_pos = [&](const std::vector<Segment>& sky)
      -> std::optional<common::Point> {
    int best_x = -1, best_y = -1;
    for (std::size_t s = 0; s < sky.size(); ++s) {
      const int x = sky[s].x;
      if (x + item.width > canvas_.width) break;
      int y = 0;
      int span = item.width;
      for (std::size_t t = s; t < sky.size() && span > 0; ++t) {
        y = std::max(y, sky[t].y);
        span -= sky[t].width;
      }
      if (y + item.height > canvas_.height) continue;
      if (best_y < 0 || y < best_y || (y == best_y && x < best_x)) {
        best_y = y;
        best_x = x;
      }
    }
    if (best_y < 0) return std::nullopt;
    return common::Point{best_x, best_y};
  };

  // Carve the span [pos.x, pos.x + w) out of the skyline and replace it
  // with one segment at the item's top, merging equal-height neighbours.
  const auto commit = [&](std::vector<Segment>& sky, common::Point pos) {
    std::vector<Segment> updated;
    updated.reserve(sky.size() + 2);
    const int x0 = pos.x, x1 = pos.x + item.width;
    bool inserted = false;
    for (const Segment& seg : sky) {
      const int sx0 = seg.x, sx1 = seg.x + seg.width;
      if (sx1 <= x0 || sx0 >= x1) {
        updated.push_back(seg);
        continue;
      }
      if (sx0 < x0) updated.push_back(Segment{sx0, x0 - sx0, seg.y});
      if (!inserted) {
        updated.push_back(Segment{x0, item.width, pos.y + item.height});
        inserted = true;
      }
      if (sx1 > x1) updated.push_back(Segment{x1, sx1 - x1, seg.y});
    }
    std::vector<Segment> merged;
    for (const Segment& seg : updated) {
      if (!merged.empty() && merged.back().y == seg.y &&
          merged.back().x + merged.back().width == seg.x) {
        merged.back().width += seg.width;
      } else {
        merged.push_back(seg);
      }
    }
    sky = std::move(merged);
  };

  for (std::size_t c = 0; c < skylines_.size(); ++c) {
    if (const auto pos = find_pos(skylines_[c])) {
      skyline_undo_.push_back(SkylineUndo{false, c, skylines_[c]});
      commit(skylines_[c], *pos);
      return Placement{static_cast<int>(c), *pos};
    }
  }
  skylines_.push_back({Segment{0, canvas_.width, 0}});
  skyline_undo_.push_back(
      SkylineUndo{true, skylines_.size() - 1, {}});
  // A fresh canvas always fits a validated item.
  const auto pos = find_pos(skylines_.back());
  commit(skylines_.back(), *pos);
  return Placement{static_cast<int>(skylines_.size()) - 1, *pos};
}

// --- StitchSolver ------------------------------------------------------------

namespace {

void validate(std::span<const common::Size> items, common::Size canvas) {
  if (canvas.empty())
    throw std::invalid_argument("StitchSolver: empty canvas");
  for (const auto& s : items) {
    if (s.empty())
      throw std::invalid_argument("StitchSolver: empty patch");
    if (s.width > canvas.width || s.height > canvas.height)
      throw std::invalid_argument(
          "StitchSolver: patch exceeds canvas (split_oversized first)");
  }
}

}  // namespace

StitchResult StitchSolver::pack(std::span<const common::Size> items,
                                common::Size canvas) const {
  validate(items, canvas);

  StitchSession session(canvas, heuristic_);
  for (const common::Size& item : items) session.add(item);
  StitchResult result;
  result.placements = session.placements();
  result.canvas_count = session.canvas_count();
  result.canvas_fill = session.canvas_fill();
  return result;
}

std::vector<common::Rect> split_oversized(const common::Rect& patch,
                                          common::Size canvas) {
  if (patch.empty())
    throw std::invalid_argument("split_oversized: degenerate patch");
  if (canvas.empty())
    throw std::invalid_argument("split_oversized: degenerate canvas");
  if (patch.width <= canvas.width && patch.height <= canvas.height)
    return {patch};
  std::vector<common::Rect> tiles;
  const int cols = (patch.width + canvas.width - 1) / canvas.width;
  const int rows = (patch.height + canvas.height - 1) / canvas.height;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int x0 = patch.x + patch.width * c / cols;
      const int x1 = patch.x + patch.width * (c + 1) / cols;
      const int y0 = patch.y + patch.height * r / rows;
      const int y1 = patch.y + patch.height * (r + 1) / rows;
      tiles.push_back(common::Rect::from_corners(x0, y0, x1, y1));
    }
  }
  return tiles;
}

std::vector<std::size_t> apportion_bytes(std::size_t bytes,
                                         const std::vector<common::Rect>& tiles) {
  if (tiles.empty())
    throw std::invalid_argument("apportion_bytes: no tiles");
  unsigned __int128 total_area = 0;
  for (const auto& tile : tiles) {
    if (tile.empty())
      throw std::invalid_argument("apportion_bytes: degenerate tile");
    total_area += static_cast<unsigned __int128>(tile.area());
  }
  // Tile i receives floor(bytes * cum_area(i) / total) - floor(bytes *
  // cum_area(i-1) / total): each prefix is an exact floor, so the shares
  // telescope to `bytes` with every remainder byte landing on some tile.
  std::vector<std::size_t> shares(tiles.size());
  unsigned __int128 cum_area = 0;
  unsigned __int128 assigned = 0;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    cum_area += static_cast<unsigned __int128>(tiles[i].area());
    const unsigned __int128 upto =
        static_cast<unsigned __int128>(bytes) * cum_area / total_area;
    shares[i] = static_cast<std::size_t>(upto - assigned);
    assigned = upto;
  }
  return shares;
}

std::vector<Patch> split_patch(const Patch& patch, common::Size canvas) {
  if (patch.region.width <= canvas.width &&
      patch.region.height <= canvas.height)
    return {patch};
  const auto tiles = split_oversized(patch.region, canvas);
  const auto tile_bytes = apportion_bytes(patch.bytes, tiles);
  std::vector<Patch> subs(tiles.size(), patch);
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    subs[i].region = tiles[i];
    subs[i].bytes = tile_bytes[i];
  }
  return subs;
}

}  // namespace tangram::core
