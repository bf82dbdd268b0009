// Online SLO-aware Batching Invoker — Algorithm 2 (main loop) of the paper.
//
// Event-driven port of the algorithm: instead of busy-waiting on
// "t == t_remain", the invoker re-arms a simulator timer whenever the packing
// changes.  The logic on each patch arrival is the paper's, line for line:
//
//   1. append the patch to queue Q; adopt the earliest deadline as t_DDL and
//      remember the previous canvas set C_old        (lines 4-7);
//   2. extend the packing with the new patch and ask the Latency Estimator
//      for T_slack of the new canvas set (lines 8-9);
//      t_remain = t_DDL - T_slack                    (line 10);
//   3. if t_remain is already in the past — admitting this patch would make
//      some patch miss its SLO — or the canvas set no longer fits the
//      function's GPU memory, invoke C_old immediately and restart the queue
//      with just the new patch                       (lines 11-17);
//   4. when the clock reaches t_remain, invoke the current canvas set as one
//      batch                                          (lines 19-22).
//
// The paper's pseudocode re-runs the Patch-stitching Solver over the whole
// queue on every arrival (line 8), an O(queue) step that makes a batch
// window cost O(n^2) placements.  Because the guillotine packer is an online
// algorithm in queue order, extending the previous packing by one patch via
// StitchSession::add() yields the *identical* canvas set at O(free rects)
// per arrival; step 3 un-admits the patch with a checkpoint/rollback instead
// of a second from-scratch solve.  The from-scratch path survives only for
// migration: detach_stream() re-solves the survivors in queue order.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/estimator.h"
#include "core/patch.h"
#include "core/stitcher.h"
#include "sim/simulator.h"

namespace tangram::core {

class BatchPool;

struct InvokerConfig {
  common::Size canvas{1024, 1024};
  // Maximum canvases per batch admitted by the function's GPU memory
  // (constraint (5)); obtain from FunctionPlatform::max_canvases_per_batch.
  int max_canvases = 9;
  // Recycled storage for dispatched batches (see BatchPool).  Shards of one
  // system share a single pool so canvas capacity recirculates through the
  // whole dispatch loop; null = the invoker creates a private pool, which
  // keeps standalone invokers allocation-recycling without extra wiring.
  std::shared_ptr<BatchPool> batch_pool;
  // Reservoir capacity for the shard's telemetry Samplers (canvas
  // efficiency, batch sizes); 0 = retain every sample.  Bounded mode keeps
  // per-shard telemetry O(1) in batch count for city-scale sweeps.
  std::size_t telemetry_reservoir = 0;
};

// One packed canvas inside a dispatched batch.
struct PackedCanvas {
  std::vector<Patch> patches;
  std::vector<common::Point> positions;  // parallel to `patches`
  double fill = 0.0;                     // used-area fraction
};

// Telemetry for one invoker.  Extracted into a value type so an InvokerPool
// can aggregate the per-shard stats of its members (drives Figs. 10b, 13, 14
// and the multi-stream sweep's shard comparison).
struct InvokerStats {
  common::Sampler canvas_efficiency;   // used-area fraction per canvas
  common::Sampler batch_canvas_count;  // canvases per invoked batch
  common::Sampler batch_patch_count;   // patches per invoked batch
  std::size_t batches_invoked = 0;
  std::size_t forced_flushes = 0;
  // Packing-engine counters: arrivals absorbed by the incremental fast path
  // vs. from-scratch solver runs (the repack after a stream is detached
  // mid-queue by migration).
  std::size_t incremental_adds = 0;
  std::size_t full_repacks = 0;
  // Cross-shard adaptivity counters (the rebalancing layer; all zero under
  // RebalancePolicy::none() with stealing disabled):
  std::size_t migrations = 0;   // streams migrated OFF this shard
  std::size_t steals = 0;       // patches stolen INTO this shard
  std::size_t steal_bytes = 0;  // encoded bytes of those stolen patches

  void merge(const InvokerStats& other);
};

// A batch handed to the serverless function.
struct Batch {
  std::vector<PackedCanvas> canvases;
  double invoke_time = 0.0;
  double earliest_deadline = 0.0;
  double slack_estimate = 0.0;   // T_slack at invoke time
  int total_patches = 0;

  [[nodiscard]] int canvas_count() const {
    return static_cast<int>(canvases.size());
  }
};

// Recycled storage for the batch lifetime loop: build_batch() checks Batch
// shells and PackedCanvas vectors out of the freelists, the platform
// completion hands them back via recycle(), and every vector keeps its
// high-water capacity across the round trip.  Once the freelists have grown
// to the workload's peak in-flight footprint, steady-state dispatch performs
// zero heap allocations (pinned by tests/test_dispatch_alloc.cpp).  Not
// thread-safe — one pool per simulation, like every other sim-side object.
class BatchPool {
 public:
  // A cleared shell (no canvases, zeroed scalars), reusing a recycled one
  // when available.
  [[nodiscard]] Batch acquire();
  // A cleared canvas (empty patches/positions, fill 0), capacity retained.
  [[nodiscard]] PackedCanvas acquire_canvas();
  // Return a completed batch: its canvases and the shell itself go back to
  // the freelists.  Safe for batches that never came from this pool.
  void recycle(Batch&& batch);

  [[nodiscard]] std::size_t pooled_batches() const { return shells_.size(); }
  [[nodiscard]] std::size_t pooled_canvases() const {
    return canvases_.size();
  }

  // Retention caps: a saturated platform can hold thousands of backlogged
  // batches in flight at once, and pooling ALL of that storage forever
  // bloats the heap long after the burst drains (and drags down cache
  // locality for everything else).  Steady-state dispatch keeps far fewer
  // batches in flight than these bounds, so the zero-allocation property is
  // unaffected; beyond them, recycle() lets storage free normally.  The
  // trade, measured on the flash_crowd benchmark (seed 1): lifting both caps
  // cuts allocs/patch 0.445 -> 0.066 but raises peak RSS 29.5 -> 38.7 MiB.
  static constexpr std::size_t kMaxPooledShells = 128;
  static constexpr std::size_t kMaxPooledCanvases = 512;

 private:
  std::vector<Batch> shells_;
  std::vector<PackedCanvas> canvases_;
};

class SloAwareInvoker {
 public:
  using InvokeFn = std::function<void(Batch&&)>;

  SloAwareInvoker(sim::Simulator& simulator, PackHeuristic heuristic,
                  const LatencyEstimator& estimator, InvokerConfig config,
                  InvokeFn invoke);

  // Patch arrival (Algorithm 2, lines 4-18).  The patch must fit the canvas;
  // split oversized patches with split_oversized() first.
  void on_patch(Patch patch);

  // Force-invoke whatever is pending (end of stream / shutdown).
  void flush();

  // --- cross-shard adaptivity (the pool's rebalancing layer) ----------------
  // Admit a patch WITHOUT restamping arrival_time — the attach half of
  // stream migration (the patch already waited on its previous shard, and
  // queue-to-invoke telemetry must keep charging that wait).  on_patch() is
  // attach_patch() plus the arrival-time stamp.
  void attach_patch(Patch patch);

  // Detach half of migration / deregistration: remove every pending patch of
  // `stream_id` in one stable compaction pass (FIFO among both the removed
  // and the surviving patches is preserved — never an erase-from-middle per
  // patch) and repack the survivors.  Batches already invoked are untouched,
  // so no patch is ever split across shards.  Returns the removed patches in
  // arrival order, as a reference to the invoker's reusable compaction
  // scratch — valid until the next detach_stream() on this invoker, so
  // consume (or copy) it before detaching again.
  const std::vector<Patch>& detach_stream(int stream_id);

  // Work stealing: tentatively admit a suffix of `victim`'s queue (up to
  // max_patches, tail only, so FIFO within the victim is preserved) via this
  // session's checkpoint/rollback, committing only when the whole batch —
  // current queue plus stolen tail — still meets every deadline here and
  // fits GPU memory.  Tries the longest suffix first; on commit the victim
  // releases its tail in O(k) (session tail rollback, no re-solve) and can
  // only gain slack.  The victim always keeps at least one patch; returns
  // the number stolen (0 = nothing packable).
  std::size_t steal_from(SloAwareInvoker& victim, std::size_t max_patches);

  // Router bookkeeping: a stream was migrated off this shard.
  void record_migration() { ++stats_.migrations; }

  [[nodiscard]] std::size_t pending_patches() const { return queue_.size(); }
  // Read-only FIFO view of the pending queue (which streams' patches this
  // shard holds, in arrival order).
  [[nodiscard]] const std::vector<Patch>& pending_queue() const {
    return queue_;
  }

  // --- telemetry (drives Figs. 10b, 13, 14) ---------------------------------
  [[nodiscard]] const InvokerStats& stats() const { return stats_; }

 private:
  void admit_incremental(Patch patch);  // session fast path
  // Hand the last `count` queued patches (a queue suffix) to a thief:
  // un-places them via the session's O(k) tail rollback and refreshes the
  // deadline horizon.  The caller guarantees count < queue size.  Returns a
  // reference to the victim's release scratch (valid until its next
  // release_tail; the thief is a different invoker, so moving out of it
  // while admitting is safe).
  std::vector<Patch>& release_tail(std::size_t count);
  void repack_full();                   // rebuild session over queue_
  void refresh_deadline_and_slack();
  void arm_timer();                     // (re)schedule invocation at t_remain
  void invoke_current();                // lines 19-22
  // Assemble the dispatch batch from queue_/placements_ into recycled
  // storage (counting-sort grouping pass, exact reserves, no allocation at
  // steady state).  Not const: checks storage out of batch_pool_.
  [[nodiscard]] Batch build_batch();

  sim::Simulator& sim_;
  const LatencyEstimator& estimator_;
  InvokerConfig config_;
  InvokeFn invoke_;
  std::shared_ptr<BatchPool> batch_pool_;  // config_.batch_pool or private

  std::vector<Patch> queue_;          // Q
  StitchSession session_;             // C (live canvas state)
  std::vector<Placement> placements_; // parallel to queue_
  double earliest_deadline_ = 0;      // t_DDL
  double slack_ = 0;                  // T_slack for current packing
  double single_canvas_slack_ = 0;    // estimator_.slack(1), profiled once
  sim::EventHandle timer_;

  // Reusable scratch buffers (high-water capacity, never shrunk): the
  // dispatch/migration paths touch no fresh vectors at steady state.
  std::vector<std::size_t> canvas_counts_;   // build_batch grouping pass
  std::vector<Patch> detach_scratch_;        // detach_stream output
  std::vector<Patch> release_scratch_;       // release_tail output
  std::vector<Placement> steal_placed_;      // steal_from tentative places

  InvokerStats stats_;
};

}  // namespace tangram::core
