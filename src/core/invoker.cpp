#include "core/invoker.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/hot_path.h"

namespace tangram::core {

void InvokerStats::merge(const InvokerStats& other) {
  for (const double v : other.canvas_efficiency.values())
    canvas_efficiency.add(v);
  for (const double v : other.batch_canvas_count.values())
    batch_canvas_count.add(v);
  for (const double v : other.batch_patch_count.values())
    batch_patch_count.add(v);
  batches_invoked += other.batches_invoked;
  forced_flushes += other.forced_flushes;
  saturated_dispatches += other.saturated_dispatches;
  incremental_adds += other.incremental_adds;
  full_repacks += other.full_repacks;
  migrations += other.migrations;
  steals += other.steals;
  steal_bytes += other.steal_bytes;
}

TANGRAM_HOT_PATH Batch BatchPool::acquire() {
  if (shells_.empty()) return Batch{};
  Batch batch = std::move(shells_.back());
  shells_.pop_back();
  return batch;
}

TANGRAM_HOT_PATH PackedCanvas BatchPool::acquire_canvas() {
  if (canvases_.empty()) return PackedCanvas{};
  PackedCanvas canvas = std::move(canvases_.back());
  canvases_.pop_back();
  return canvas;
}

TANGRAM_HOT_PATH void BatchPool::recycle(Batch&& batch) {
  for (PackedCanvas& canvas : batch.canvases) {
    if (canvases_.size() >= kMaxPooledCanvases) break;
    canvas.patches.clear();
    canvas.positions.clear();
    canvas.fill = 0.0;
    // reserve: capped freelist, capacity grows only to the in-flight peak
    canvases_.push_back(std::move(canvas));
  }
  batch.canvases.clear();
  batch.invoke_time = 0.0;
  batch.earliest_deadline = 0.0;
  batch.slack_estimate = 0.0;
  batch.total_patches = 0;
  // reserve: capped freelist, capacity grows only to the in-flight peak
  if (shells_.size() < kMaxPooledShells) shells_.push_back(std::move(batch));
}

SloAwareInvoker::SloAwareInvoker(sim::Simulator& simulator,
                                 PackHeuristic heuristic,
                                 const LatencyEstimator& estimator,
                                 InvokerConfig config, InvokeFn invoke)
    : sim_(simulator),
      estimator_(estimator),
      config_(std::move(config)),
      invoke_(std::move(invoke)),
      batch_pool_(config_.batch_pool ? config_.batch_pool
                                     : std::make_shared<BatchPool>()),
      session_(config_.canvas, heuristic) {
  if (!invoke_)
    throw std::invalid_argument("SloAwareInvoker: invoke callback required");
  if (config_.max_canvases < 1)
    throw std::invalid_argument("SloAwareInvoker: max_canvases must be >= 1");
  stats_.canvas_efficiency = common::Sampler(config_.telemetry_reservoir);
  stats_.batch_canvas_count = common::Sampler(config_.telemetry_reservoir);
  stats_.batch_patch_count = common::Sampler(config_.telemetry_reservoir);
  single_canvas_slack_ = estimator_.slack(1);
}

void SloAwareInvoker::refresh_deadline_and_slack() {
  earliest_deadline_ = std::numeric_limits<double>::infinity();
  for (const auto& p : queue_)
    earliest_deadline_ = std::min(earliest_deadline_, p.deadline());
  slack_ = queue_.empty() ? 0.0 : estimator_.slack(session_.canvas_count());
}

void SloAwareInvoker::repack_full() {
  session_.reset();
  placements_.clear();
  for (const auto& p : queue_) placements_.push_back(session_.add(p.size()));
  ++stats_.full_repacks;
  refresh_deadline_and_slack();
}

TANGRAM_HOT_PATH void SloAwareInvoker::on_patch(Patch patch) {
  patch.arrival_time = sim_.now();
  attach_patch(std::move(patch));
}

TANGRAM_HOT_PATH void SloAwareInvoker::attach_patch(Patch patch) {
  admit_incremental(std::move(patch));

  // A patch whose SLO is unmeetable even alone (t_remain already passed with
  // a single-canvas batch) is dispatched immediately as a best effort — the
  // paper leaves this case implicit; waiting longer can only make it worse.
  // Boundary convention (shared with the admit paths): t_remain == now is
  // exactly on time — dispatching now still meets every deadline — so only a
  // strictly-past t_remain counts as a violation; an exact-boundary arrival
  // is dispatched by the timer, which arm_timer() fires at now.
  const double fresh_remain = earliest_deadline_ - slack_;
  if (fresh_remain < sim_.now()) {
    invoke_current();
    return;
  }
  arm_timer();
}

TANGRAM_HOT_PATH void SloAwareInvoker::admit_incremental(Patch patch) {
  // Lines 4-8: tentatively extend the canvas set with the new patch.  The
  // checkpoint stands in for C_old — un-admitting is a rollback, not a
  // second solver run.
  const StitchSession::Checkpoint c_old = session_.checkpoint();
  const double old_deadline = earliest_deadline_;
  // T_slack of C_old: slack_ already holds estimator_.slack() for the
  // current canvas set (every mutation path refreshes it), so the rollback
  // branch below restores it instead of re-querying the estimator.
  const double old_slack = slack_;
  const bool had_queue = !queue_.empty();

  // add() before the queue push: if the patch is invalid and add() throws,
  // every piece of invoker state is still untouched and consistent.
  const Placement placement = session_.add(patch.size());
  // reserve: queue_/placements_ keep high-water capacity across flushes
  queue_.push_back(std::move(patch));
  placements_.push_back(placement);  // reserve: same high-water storage
  ++stats_.incremental_adds;
  earliest_deadline_ = had_queue
                           ? std::min(old_deadline, queue_.back().deadline())
                           : queue_.back().deadline();
  slack_ = estimator_.slack(session_.canvas_count());

  // Lines 9-10.
  const double t_remain = earliest_deadline_ - slack_;
  const bool would_violate = t_remain < sim_.now();
  const bool memory_overflow = session_.canvas_count() > config_.max_canvases;

  if ((would_violate || memory_overflow) && had_queue) {
    // Lines 11-17: dispatch the old canvas set immediately; the new patch
    // starts a fresh queue.
    Patch newcomer = std::move(queue_.back());
    queue_.pop_back();
    placements_.pop_back();
    session_.rollback(c_old);
    earliest_deadline_ = old_deadline;
    slack_ = old_slack;  // == estimator_.slack(C_old's canvas count)
    invoke_current();  // Invoke(C_old)
    ++stats_.forced_flushes;

    const Placement fresh = session_.add(newcomer.size());
    // reserve: restarting into the capacity the flushed queue just vacated
    queue_.push_back(std::move(newcomer));
    placements_.push_back(fresh);  // reserve: same vacated storage
    ++stats_.incremental_adds;
    earliest_deadline_ = queue_.back().deadline();
    // A single patch on a fresh session is always exactly one canvas.
    slack_ = single_canvas_slack_;
  }
}

TANGRAM_HOT_PATH void SloAwareInvoker::arm_timer() {
  if (queue_.empty()) {
    timer_.cancel();
    return;
  }
  // Every patch arrival re-arms the deadline timer (Algorithm 2), so this is
  // the event engine's hottest call site: reschedule() moves the pending
  // event in place — same firing order as cancel() + schedule_at(), but no
  // heap removal, no slot churn, no callback re-construction.
  const double t_remain = earliest_deadline_ - slack_;
  const double when = std::max(t_remain, sim_.now());
  if (!sim_.reschedule(timer_, when))
    timer_ = sim_.schedule_at(when, [this] { invoke_current(); });
}

TANGRAM_HOT_PATH Batch SloAwareInvoker::build_batch() {
  Batch batch = batch_pool_->acquire();
  batch.invoke_time = sim_.now();
  batch.earliest_deadline = earliest_deadline_;
  batch.slack_estimate = slack_;
  batch.total_patches = static_cast<int>(queue_.size());
  const auto canvases = static_cast<std::size_t>(session_.canvas_count());
  // Counting pass: exact per-canvas patch totals, so each recycled canvas
  // reserves once (growing only past its high-water capacity) and the fill
  // loop below never reallocates.
  canvas_counts_.assign(canvases, 0);
  for (const Placement& pl : placements_)
    ++canvas_counts_[static_cast<std::size_t>(pl.canvas_index)];
  batch.canvases.reserve(canvases);
  for (std::size_t c = 0; c < canvases; ++c) {
    PackedCanvas canvas = batch_pool_->acquire_canvas();
    canvas.patches.reserve(canvas_counts_[c]);
    canvas.positions.reserve(canvas_counts_[c]);
    canvas.fill = session_.canvas_fill(c);
    // reserve: batch.canvases.reserve(canvases) above sized this exactly
    batch.canvases.push_back(std::move(canvas));
  }
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Placement& pl = placements_[i];
    auto& canvas = batch.canvases[static_cast<std::size_t>(pl.canvas_index)];
    // reserve: per-canvas reserve(canvas_counts_[c]) in the loop above
    canvas.patches.push_back(queue_[i]);
    canvas.positions.push_back(pl.position);  // reserve: same counting pass
  }
  return batch;
}

TANGRAM_HOT_PATH void SloAwareInvoker::invoke_current() {
  timer_.cancel();
  if (queue_.empty()) return;

  Batch batch = build_batch();
  stats_.batch_canvas_count.add(static_cast<double>(batch.canvas_count()));
  stats_.batch_patch_count.add(static_cast<double>(batch.total_patches));
  for (const auto& c : batch.canvases) stats_.canvas_efficiency.add(c.fill);
  ++stats_.batches_invoked;
  if (config_.pool_headroom && config_.pool_headroom() <= 0)
    ++stats_.saturated_dispatches;

  queue_.clear();
  placements_.clear();
  session_.reset();
  earliest_deadline_ = 0.0;
  slack_ = 0.0;

  invoke_(std::move(batch));
}

const std::vector<Patch>& SloAwareInvoker::detach_stream(int stream_id) {
  // Stable swap-down compaction IN PLACE: one pass over the queue, each
  // survivor moved at most once — O(queue) per migration regardless of how
  // many patches leave, never O(queue) per removed patch.  queue_ and
  // placements_ are compacted without fresh vectors, and the detached
  // patches land in member scratch, so migrations never reset the shard's
  // high-water capacity.
  detach_scratch_.clear();
  std::size_t write = 0;
  for (std::size_t read = 0; read < queue_.size(); ++read) {
    if (queue_[read].stream_id == stream_id) {
      detach_scratch_.push_back(std::move(queue_[read]));
    } else {
      if (write != read) queue_[write] = std::move(queue_[read]);
      ++write;
    }
  }
  if (detach_scratch_.empty()) return detach_scratch_;
  queue_.resize(write);
  if (queue_.empty()) {
    placements_.clear();
    session_.reset();
    earliest_deadline_ = 0.0;
    slack_ = 0.0;
    timer_.cancel();
    return detach_scratch_;
  }
  // Survivors were placed with the departed patches interleaved; re-solve
  // their canvas set from scratch.  Removing patches can only shrink the
  // canvas set and raise the earliest deadline, so t_remain moves later —
  // re-arming (never force-dispatching) is sufficient.
  repack_full();
  arm_timer();
  return detach_scratch_;
}

std::vector<Patch>& SloAwareInvoker::release_tail(std::size_t count) {
  const std::size_t keep = queue_.size() - count;
  release_scratch_.clear();
  release_scratch_.reserve(count);
  for (std::size_t i = keep; i < queue_.size(); ++i)
    release_scratch_.push_back(std::move(queue_[i]));
  queue_.resize(keep);
  placements_.resize(keep);
  session_.rollback_last(count);
  // Shedding tail patches can only raise the earliest deadline and shrink
  // the canvas set (smaller T_slack), so the victim's t_remain moves later:
  // releasing is always SLO-safe for the work it keeps.
  refresh_deadline_and_slack();
  arm_timer();
  return release_scratch_;
}

std::size_t SloAwareInvoker::steal_from(SloAwareInvoker& victim,
                                        std::size_t max_patches) {
  if (&victim == this || max_patches == 0) return 0;
  const std::size_t available = victim.queue_.size();
  if (available < 2) return 0;  // the victim always keeps one patch

  for (std::size_t take = std::min(max_patches, available - 1); take > 0;
       --take) {
    const StitchSession::Checkpoint before = session_.checkpoint();
    steal_placed_.clear();
    double deadline = queue_.empty() ? std::numeric_limits<double>::infinity()
                                     : earliest_deadline_;
    for (std::size_t i = available - take; i < available; ++i) {
      const Patch& patch = victim.queue_[i];
      steal_placed_.push_back(session_.add(patch.size()));
      deadline = std::min(deadline, patch.deadline());
    }
    const double slack = estimator_.slack(session_.canvas_count());
    const bool fits = session_.canvas_count() <= config_.max_canvases;
    const bool on_time = deadline - slack >= sim_.now();
    if (!fits || !on_time) {
      // Un-admit and retry with a shorter suffix.
      session_.rollback(before);
      continue;
    }
    // The victim's release scratch; this invoker is a different object
    // (checked above), so admitting out of it never invalidates it.
    std::vector<Patch>& moved = victim.release_tail(take);
    for (std::size_t j = 0; j < moved.size(); ++j) {
      stats_.steal_bytes += moved[j].bytes;
      queue_.push_back(std::move(moved[j]));
      placements_.push_back(steal_placed_[j]);
    }
    stats_.steals += take;
    stats_.incremental_adds += take;
    earliest_deadline_ = deadline;
    slack_ = slack;
    arm_timer();
    return take;
  }
  return 0;
}

void SloAwareInvoker::flush() { invoke_current(); }

}  // namespace tangram::core
