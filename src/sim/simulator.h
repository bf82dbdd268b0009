// Discrete-event simulation core.
//
// Everything in this repository — cameras, links, the scheduler, serverless
// function instances — runs on one virtual clock owned by a Simulator.  An
// event is just a (time, sequence, callback) triple; ties on time break by
// insertion order so runs are deterministic.
//
// Design notes:
//  * Single-threaded by construction.  A DES needs no locks, and the paper's
//    experiments (hours of 10-camera streaming) replay in milliseconds.
//  * Zero steady-state allocation.  Callbacks live in a recycled slot pool
//    (small-buffer-optimized InlineTask, 64 inline bytes — every callback in
//    this repo fits; larger or non-trivially-copyable captures fall back to
//    one heap allocation, which is what the old std::function design paid
//    for EVERY event).  Ordering state is a separate 4-ary min-heap of
//    24-byte (when, seq, slot) entries, so the hot sift loops stay inside a
//    few cache lines and never chase into the pool.  Once pool and heap have
//    grown to the workload's high-water mark, the schedule/fire/cancel/
//    reschedule cycle allocates nothing.
//  * Handles are (slot, generation) pairs.  Releasing a slot bumps its
//    generation, so a stale EventHandle — one whose event fired or was
//    cancelled, even if the slot was since reused — is detected exactly:
//    pending() is false and cancel() is a no-op.  Handles are cheap value
//    types; copies all refer to the same event, including across
//    reschedule().  A handle must not outlive its Simulator.
//  * cancel() is O(1): it frees the slot and leaves a dead heap entry behind
//    (sequence numbers are globally unique, so an entry is live exactly when
//    its seq matches the slot's current one).  Dead entries are counted and
//    purged at pop or by an amortized-O(1) threshold compaction, and the
//    live-event counter keeps idle() / pending_events() EXACT — unlike the
//    historical tombstone queue, which could only report queue size
//    including corpses.
//  * reschedule(handle, when) re-arms a pending event in place: same slot,
//    same callback, new time and a fresh sequence number — byte-for-byte the
//    firing order of cancel() + schedule_at() with no callback churn.  The
//    SLO-aware invoker uses this on every patch arrival (Algorithm 2).
//
// Past-time convention: an event time more than a RELATIVE tolerance
// (kPastRelTol * max(1, |now|)) behind the clock is a logic error and
// throws; anything closer is double rounding from accumulated arithmetic
// (hours-long replays sum thousands of doubles) and is clamped to `now`, so
// it fires immediately in insertion order.  A previous absolute 1e-12 epsilon
// broke silently once now() grew past ~9 simulated seconds (one ULP of a
// double exceeds 1e-12 from there on up).

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hot_path.h"

namespace tangram::sim {

using TimePoint = double;  // seconds of simulated time
using Duration = double;   // seconds

namespace detail {

// Type-erased void() callable with small-buffer-optimized storage.  Move-only.
// Callables that fit kInlineBytes, are no more aligned than max_align_t, and
// are TRIVIALLY COPYABLE live inline; anything else is held through one heap
// pointer.  The trivial-copyability requirement is what keeps slot-pool
// growth cheap: either payload representation (trivially-copyable bytes or a
// raw pointer) relocates with a plain memcpy, so moving an InlineTask — and
// therefore a pool Slot — never dispatches through the vtable, and inline
// payloads need no destructor call at all.
class InlineTask {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  InlineTask() = default;
  InlineTask(InlineTask&& other) noexcept { move_from(other); }
  InlineTask& operator=(InlineTask&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;
  ~InlineTask() { reset(); }

  template <typename Fn>
  void assign(Fn&& fn) {
    using F = std::decay_t<Fn>;
    reset();
    if constexpr (fits_inline<F>()) {
      ::new (static_cast<void*>(buf_)) F(std::forward<Fn>(fn));
      vt_ = &kVTable<F, /*kInline=*/true>;
    } else {
      ::new (static_cast<void*>(buf_)) F*(new F(std::forward<Fn>(fn)));
      vt_ = &kVTable<F, /*kInline=*/false>;
    }
  }

  void operator()() { vt_->invoke(buf_); }
  [[nodiscard]] explicit operator bool() const { return vt_ != nullptr; }

  void reset() {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

 private:
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_trivially_copyable_v<F>;
  }

  struct VTable {
    void (*invoke)(void*);
    void (*destroy)(void*);  // null: payload needs no cleanup
  };

  template <typename F, bool kInline>
  static constexpr VTable kVTable{
      /*invoke=*/[](void* p) {
        if constexpr (kInline) {
          (*static_cast<F*>(p))();
        } else {
          (**static_cast<F**>(p))();
        }
      },
      // Trivially-copyable inline payloads have trivial destructors.
      /*destroy=*/kInline ? static_cast<void (*)(void*)>(nullptr)
                          : static_cast<void (*)(void*)>([](void* p) {
                              delete *static_cast<F**>(p);
                            })};

  void move_from(InlineTask& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      // Either representation (trivially-copyable bytes or a raw pointer)
      // relocates by plain byte copy; ownership transfers with vt_.
      std::memcpy(buf_, other.buf_, kInlineBytes);
      other.vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace detail

class Simulator;

// Cancellation/reschedule token for a scheduled event.  Copyable; all copies
// refer to the same underlying event (including across reschedule).  Stale
// handles — the event fired or was cancelled, even if its slot was since
// reused — are detected via the generation counter, so using one is always
// safe; but a handle must not outlive its Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  // True if the event has neither fired nor been cancelled.
  [[nodiscard]] inline bool pending() const;

  inline void cancel();

 private:
  friend class Simulator;
  EventHandle(Simulator* simulator, std::uint32_t slot,
              std::uint64_t generation)
      : sim_(simulator), slot_(slot), generation_(generation) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  // Handles hold pointers back into the simulator; pin it in place.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  // Schedule `fn` to run at absolute time `when` (>= now; see the past-time
  // convention at the top of this file).
  template <typename Fn>
  TANGRAM_HOT_PATH EventHandle schedule_at(TimePoint when, Fn&& fn) {
    when = admissible_time(when);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    const std::uint64_t seq = seq_++;
    s.live_seq = seq;
    s.task.assign(std::forward<Fn>(fn));
    heap_push(HeapEntry{when, seq, slot});
    return EventHandle{this, slot, s.generation};
  }

  // Schedule `fn` to run `delay` seconds from now.  A negative delay means
  // now; a NaN delay throws, as a NaN time does in schedule_at.
  template <typename Fn>
  TANGRAM_HOT_PATH EventHandle schedule_in(Duration delay, Fn&& fn) {
    return schedule_at(now_ + (delay < 0.0 ? 0.0 : delay),
                       std::forward<Fn>(fn));
  }

  // Re-arm a pending event in place: new firing time, fresh tie-break
  // sequence number, same slot and callback — the exact firing order of
  // handle.cancel() + schedule_at(when, same_fn), with no callback churn.
  // The handle (and all copies of it) remains valid and refers to the
  // re-armed event.  Returns false (and does nothing) if the handle is not
  // pending, so the idiomatic caller is:
  //   if (!sim.reschedule(timer, when))
  //     timer = sim.schedule_at(when, [...] { ... });
  TANGRAM_HOT_PATH bool reschedule(const EventHandle& handle, TimePoint when) {
    if (handle.sim_ != this || !live(handle.slot_, handle.generation_))
      return false;
    when = admissible_time(when);
    const std::uint64_t seq = seq_++;
    slots_[handle.slot_].live_seq = seq;  // orphans the old heap entry
    heap_push(HeapEntry{when, seq, handle.slot_});
    ++dead_entries_;
    maybe_compact();
    return true;
  }

  // Run until the queue is empty.  Returns the number of events executed.
  std::size_t run() { return run_until(kForever); }

  // Run all events with time <= horizon; the clock ends at the later of the
  // last executed event and `horizon` (if any event was pending past it the
  // clock stops at horizon).
  TANGRAM_HOT_PATH std::size_t run_until(TimePoint horizon) {
    std::size_t executed = 0;
    while (!heap_.empty()) {
      const HeapEntry top = heap_[0];
      if (top.when > horizon) break;
      if (slots_[top.slot].live_seq != top.seq) {  // cancelled / rescheduled
        heap_pop_root();
        --dead_entries_;
        continue;
      }
      // Move-on-pop: the callback leaves the slot before it runs, so the
      // handle reads "not pending" inside its own callback and the slot is
      // immediately reusable by events the callback schedules.
      detail::InlineTask task = std::move(slots_[top.slot].task);
      release_slot(top.slot);
      heap_pop_root();
      now_ = top.when;
      task();
      ++executed;
    }
    events_executed_ += executed;
    if (horizon != kForever && now_ < horizon) now_ = horizon;
    return executed;
  }

  // Execute exactly one pending event.  Returns false if the queue is empty.
  TANGRAM_HOT_PATH bool step() {
    while (!heap_.empty()) {
      const HeapEntry top = heap_[0];
      if (slots_[top.slot].live_seq != top.seq) {
        heap_pop_root();
        --dead_entries_;
        continue;
      }
      detail::InlineTask task = std::move(slots_[top.slot].task);
      release_slot(top.slot);
      heap_pop_root();
      now_ = top.when;
      task();
      ++events_executed_;
      return true;
    }
    return false;
  }

  // Exact: cancellations are counted out immediately, never reported.
  [[nodiscard]] std::size_t pending_events() const {
    return heap_.size() - dead_entries_;
  }
  [[nodiscard]] bool idle() const { return pending_events() == 0; }

  // Total events fired over the simulator's lifetime (perf telemetry; the
  // multi-stream sweep reports events per wall-clock second from this).
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  static constexpr TimePoint kForever =
      std::numeric_limits<double>::infinity();

  // Relative past tolerance: |when - now| within this fraction of max(1,
  // |now|) is treated as rounding and clamped to now (~1 ns of drift per
  // simulated second); anything further back throws.
  static constexpr double kPastRelTol = 1e-9;

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kArity = 4;  // d-ary heap fan-out
  static constexpr std::uint64_t kNoSeq =
      std::numeric_limits<std::uint64_t>::max();

  // Callback + liveness; ordering state lives in the heap entries so the
  // hot sift loops never chase back into the pool.
  struct Slot {
    std::uint64_t generation = 0;
    std::uint64_t live_seq = kNoSeq;  // seq of the scheduled event, if any
    detail::InlineTask task;
  };

  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // --- handle plumbing --------------------------------------------------------

  // A slot's generation is bumped on release, so a matching generation means
  // "this exact event, still scheduled".
  [[nodiscard]] bool live(std::uint32_t slot, std::uint64_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }

  void cancel_event(std::uint32_t slot, std::uint64_t generation) {
    if (!live(slot, generation)) return;
    release_slot(slot);  // the heap entry becomes a counted tombstone
    ++dead_entries_;
    maybe_compact();
  }

  // --- time validation --------------------------------------------------------

  TimePoint admissible_time(TimePoint when) const {
    if (std::isnan(when))
      throw std::invalid_argument("Simulator: event time is NaN");
    const double tolerance = kPastRelTol * std::max(1.0, std::abs(now_));
    if (when < now_ - tolerance)
      throw std::invalid_argument("Simulator::schedule_at: time in the past");
    return when < now_ ? now_ : when;
  }

  // --- slot pool --------------------------------------------------------------

  TANGRAM_HOT_PATH std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  TANGRAM_HOT_PATH void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.task.reset();
    s.live_seq = kNoSeq;
    ++s.generation;  // invalidates every outstanding handle to this slot
    free_.push_back(slot);  // reserve: freelist holds the slot-pool high-water
  }

  // --- 4-ary min-heap of (when, seq, slot), hole-sift style -------------------
  //
  // No per-entry position tracking: a cancelled or rescheduled event simply
  // leaves its entry behind (seq no longer matches the slot), counted in
  // dead_entries_ and purged at pop or by maybe_compact().

  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  TANGRAM_HOT_PATH void sift_up(std::uint32_t pos) {
    const HeapEntry entry = heap_[pos];
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / kArity;
      if (!before(entry, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = entry;
  }

  TANGRAM_HOT_PATH void sift_down(std::uint32_t pos) {
    const HeapEntry entry = heap_[pos];
    const auto n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      const std::uint32_t first = pos * kArity + 1;
      if (first >= n) break;
      std::uint32_t best = first;
      const std::uint32_t last = std::min(first + kArity, n);
      for (std::uint32_t child = first + 1; child < last; ++child)
        if (before(heap_[child], heap_[best])) best = child;
      if (!before(heap_[best], entry)) break;
      heap_[pos] = heap_[best];
      pos = best;
    }
    heap_[pos] = entry;
  }

  TANGRAM_HOT_PATH void heap_push(HeapEntry entry) {
    heap_.push_back(entry);  // reserve: heap keeps its high-water capacity
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  }

  TANGRAM_HOT_PATH void heap_pop_root() {
    const auto last = static_cast<std::uint32_t>(heap_.size() - 1);
    if (last > 0) {
      heap_[0] = heap_[last];
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
  }

  // Rebuild the heap without its tombstones once they outnumber live
  // entries (and are worth the sweep).  Amortized O(1) per cancellation:
  // each compaction costs O(heap) and frees >= heap/2 entries.
  void maybe_compact() {
    if (dead_entries_ < 64 || dead_entries_ * 2 <= heap_.size()) return;
    std::size_t out = 0;
    for (const HeapEntry& entry : heap_)
      if (slots_[entry.slot].live_seq == entry.seq) heap_[out++] = entry;
    heap_.resize(out);
    dead_entries_ = 0;
    if (out > 1) {
      for (auto pos = static_cast<std::uint32_t>((out - 2) / kArity);;
           --pos) {
        sift_down(pos);
        if (pos == 0) break;
      }
    }
  }

  std::vector<Slot> slots_;         // event pool (recycled via free_)
  std::vector<std::uint32_t> free_; // released slot ids
  std::vector<HeapEntry> heap_;     // (when, seq) min-heap + tombstones
  std::size_t dead_entries_ = 0;    // tombstones currently in heap_
  TimePoint now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_executed_ = 0;
};

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->live(slot_, generation_);
}

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_event(slot_, generation_);
}

}  // namespace tangram::sim
