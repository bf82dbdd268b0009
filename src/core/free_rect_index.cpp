#include "core/free_rect_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "common/hot_path.h"

namespace tangram::core {

FreeRectIndex::FreeRectIndex(common::Size canvas) : canvas_(canvas) {
  if (canvas_.empty())
    throw std::invalid_argument("FreeRectIndex: empty canvas");
  // A free rect never exceeds the canvas, so its short side never exceeds
  // the canvas's short side.
  const auto max_short_side = static_cast<std::size_t>(
      std::min(canvas_.width, canvas_.height));
  buckets_.resize(max_short_side + 1);
  bucket_bits_.resize(max_short_side / 64 + 1, 0);
}

TANGRAM_HOT_PATH void FreeRectIndex::bucket_add(std::uint32_t canvas,
                                                std::uint64_t rect_id,
                                                common::Rect rect) {
  const auto s = static_cast<std::size_t>(std::min(rect.width, rect.height));
  // reserve: buckets are cleared, never destroyed — capacity persists
  buckets_[s].push_back(BucketEntry{canvas, rect_id, rect.width, rect.height});
  bucket_bits_[s / 64] |= std::uint64_t{1} << (s % 64);
}

TANGRAM_HOT_PATH void FreeRectIndex::bucket_remove(std::uint32_t canvas,
                                                   std::uint64_t rect_id,
                                                   common::Rect rect) {
  const auto s = static_cast<std::size_t>(std::min(rect.width, rect.height));
  auto& bucket = buckets_[s];
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i].canvas == canvas && bucket[i].rect_id == rect_id) {
      bucket[i] = bucket.back();  // order within a bucket is irrelevant
      bucket.pop_back();
      if (bucket.empty())
        bucket_bits_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
      return;
    }
  }
  throw std::logic_error("FreeRectIndex: bucket entry missing");
}

TANGRAM_HOT_PATH std::uint64_t FreeRectIndex::push_rect(std::size_t canvas,
                                                        common::Rect rect) {
  const std::uint64_t rect_id = next_rect_id_++;
  // reserve: per-canvas free lists recycle with capacity intact (clear())
  canvases_[canvas].push_back(rect);
  rect_ids_[canvas].push_back(rect_id);  // reserve: same recycled storage
  ++total_rects_;
  bucket_add(static_cast<std::uint32_t>(canvas), rect_id, rect);
  return rect_id;
}

void FreeRectIndex::insert_rect(std::size_t canvas, std::size_t index,
                                common::Rect rect, std::uint64_t rect_id) {
  auto& rects = canvases_[canvas];
  auto& ids = rect_ids_[canvas];
  rects.insert(rects.begin() + static_cast<std::ptrdiff_t>(index), rect);
  ids.insert(ids.begin() + static_cast<std::ptrdiff_t>(index), rect_id);
  ++total_rects_;
  bucket_add(static_cast<std::uint32_t>(canvas), rect_id, rect);
}

void FreeRectIndex::remove_rect(std::size_t canvas, std::size_t index) {
  auto& rects = canvases_[canvas];
  auto& ids = rect_ids_[canvas];
  bucket_remove(static_cast<std::uint32_t>(canvas), ids[index], rects[index]);
  rects.erase(rects.begin() + static_cast<std::ptrdiff_t>(index));
  ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(index));
  --total_rects_;
}

TANGRAM_HOT_PATH FreeRectIndex::Candidate FreeRectIndex::best_short_side_fit(
    common::Size item) const {
  int best_score = std::numeric_limits<int>::max();
  std::uint32_t best_canvas = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t best_rect_id = 0;
  bool found = false;

  // A fitting rect satisfies w >= iw and h >= ih, hence min(w, h) >=
  // min(iw, ih): buckets below `lo` can hold no candidate.  Within bucket s
  // every fitting rect scores min(w - iw, h - ih) >= s - max(iw, ih), so the
  // ascending-s scan stops once that lower bound strictly exceeds the best
  // score (only strictly: an equal-score rect in a later bucket can still
  // win the (canvas, insertion-id) tie-break).
  const auto lo = static_cast<std::size_t>(std::min(item.width, item.height));
  const int item_max = std::max(item.width, item.height);

  for (std::size_t word = lo / 64; word < bucket_bits_.size(); ++word) {
    std::uint64_t bits = bucket_bits_[word];
    if (word == lo / 64) bits &= ~std::uint64_t{0} << (lo % 64);
    while (bits != 0) {
      const std::size_t s =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (found && static_cast<int>(s) - item_max > best_score)
        goto done;
      for (const BucketEntry& entry : buckets_[s]) {
        if (entry.width < item.width || entry.height < item.height) continue;
        const int score =
            std::min(entry.width - item.width, entry.height - item.height);
        if (score < best_score ||
            (score == best_score &&
             (entry.canvas < best_canvas ||
              (entry.canvas == best_canvas && entry.rect_id < best_rect_id)))) {
          best_score = score;
          best_canvas = entry.canvas;
          best_rect_id = entry.rect_id;
          found = true;
        }
      }
    }
  }
done:
  if (!found) return Candidate{};

  // Insertion ids are strictly increasing along each canvas's free list, so
  // the id resolves to the live position by binary search.
  const auto& ids = rect_ids_[best_canvas];
  const auto it = std::lower_bound(ids.begin(), ids.end(), best_rect_id);
  return Candidate{static_cast<int>(best_canvas),
                   static_cast<std::size_t>(it - ids.begin())};
}

TANGRAM_HOT_PATH FreeRectIndex::Placed FreeRectIndex::place(common::Size item) {
  if (item.empty())
    throw std::invalid_argument("FreeRectIndex: empty item");
  if (item.width > canvas_.width || item.height > canvas_.height)
    throw std::invalid_argument("FreeRectIndex: item exceeds canvas");

  Candidate best = best_short_side_fit(item);

  if (best.canvas < 0) {
    open_canvas();
    push_rect(canvases_.size() - 1,
              common::Rect{0, 0, canvas_.width, canvas_.height});
    journal(Op::kOpenCanvas, 0);
    best.canvas = static_cast<int>(canvases_.size()) - 1;
    best.position = 0;
  }

  const auto canvas = static_cast<std::size_t>(best.canvas);
  const common::Rect chosen = canvases_[canvas][best.position];
  const std::uint64_t chosen_id = rect_ids_[canvas][best.position];
  remove_rect(canvas, best.position);
  journal(Op::kErase, canvas, best.position, chosen, chosen_id);

  // Guillotine split of the residual L-shape on the shorter axis of the
  // chosen free rectangle.
  const int leftover_w = chosen.width - item.width;
  const int leftover_h = chosen.height - item.height;
  common::Rect right, top;
  if (chosen.width < chosen.height) {
    // Horizontal cut: right strip is short, bottom strip spans full width.
    right = common::Rect{chosen.x + item.width, chosen.y, leftover_w,
                         item.height};
    top = common::Rect{chosen.x, chosen.y + item.height, chosen.width,
                       leftover_h};
  } else {
    // Vertical cut: right strip spans full height.
    right = common::Rect{chosen.x + item.width, chosen.y, leftover_w,
                         chosen.height};
    top = common::Rect{chosen.x, chosen.y + item.height, item.width,
                       leftover_h};
  }
  if (!right.empty()) {
    push_rect(canvas, right);
    journal(Op::kPush, canvas);
  }
  if (!top.empty()) {
    push_rect(canvas, top);
    journal(Op::kPush, canvas);
  }

  return Placed{best.canvas, common::Point{chosen.x, chosen.y}};
}

TANGRAM_HOT_PATH void FreeRectIndex::journal(Op op, std::size_t canvas,
                                             std::size_t index,
                                             common::Rect rect,
                                             std::uint64_t rect_id) {
  // reserve: journal is cleared per session, capacity persists
  journal_.push_back(
      JournalEntry{op, next_id_++, canvas, index, rect, rect_id});
}

void FreeRectIndex::rollback(Mark mark) {
  // A mark is stale once the journal has been rewound past it — the regrown
  // suffix holds different entries than the ones the mark's position meant.
  const bool stale =
      mark.size > journal_.size() ||
      (mark.size > 0 && journal_[mark.size - 1].id != mark.last_id);
  if (stale)
    throw std::invalid_argument("FreeRectIndex::rollback: stale mark");
  while (journal_.size() > mark.size) {
    const JournalEntry entry = journal_.back();
    journal_.pop_back();
    switch (entry.op) {
      case Op::kErase:
        insert_rect(entry.canvas, entry.index, entry.rect, entry.rect_id);
        break;
      case Op::kPush:
        remove_rect(entry.canvas, canvases_[entry.canvas].size() - 1);
        break;
      case Op::kOpenCanvas:
        // Undone last-in-first-out, so the canvas is back to its initial
        // single full-canvas rect; drop it and the canvas together.
        remove_rect(canvases_.size() - 1, 0);
        retire_canvas();
        break;
    }
  }
}

TANGRAM_HOT_PATH void FreeRectIndex::open_canvas() {
  if (spare_lists_.empty()) {
    canvases_.emplace_back();
    rect_ids_.emplace_back();
    return;
  }
  // reserve: reviving a parked canvas, outer vectors at high-water capacity
  canvases_.push_back(std::move(spare_lists_.back()));
  spare_lists_.pop_back();
  rect_ids_.push_back(std::move(spare_ids_.back()));  // reserve: parked pair
  spare_ids_.pop_back();
}

TANGRAM_HOT_PATH void FreeRectIndex::retire_canvas() {
  canvases_.back().clear();
  // reserve: parking lists mirror the canvas count, capacity persists
  spare_lists_.push_back(std::move(canvases_.back()));
  canvases_.pop_back();
  rect_ids_.back().clear();
  spare_ids_.push_back(std::move(rect_ids_.back()));  // reserve: parked pair
  rect_ids_.pop_back();
}

TANGRAM_HOT_PATH void FreeRectIndex::clear() {
  // Park every canvas's vectors rather than destroying them: after the first
  // few sessions the place() loop runs entirely on recycled capacity.
  while (!canvases_.empty()) retire_canvas();
  journal_.clear();
  // Only buckets whose bit is set hold entries (bucket_add/bucket_remove
  // keep bit set <=> bucket non-empty), so a session that touched a handful
  // of short sides resets a handful of buckets, not every possible short
  // side (1025 of them on a 1024-px canvas).
  for (std::size_t word = 0; word < bucket_bits_.size(); ++word) {
    for (std::uint64_t bits = bucket_bits_[word]; bits != 0; bits &= bits - 1)
      buckets_[word * 64 + static_cast<std::size_t>(std::countr_zero(bits))]
          .clear();
    bucket_bits_[word] = 0;
  }
  total_rects_ = 0;
  // next_id_ / next_rect_id_ keep counting so pre-clear marks stay
  // detectably stale.
}

}  // namespace tangram::core
