// The zero-allocation dispatch pipeline (recycled Batch storage, interned
// pool ids, scratch-buffer reuse across invoker -> platform).
//
// Suite 1 counts global operator new calls around a warmed-up dispatch loop:
// once every freelist, scratch buffer, and per-canvas free-rect vector has
// grown to the workload's high-water mark, full admit -> pack -> invoke ->
// complete -> recycle cycles must not allocate at all.
//
// Suite 2 pins byte-identity: recycling batch shells, canvases, and packing
// scratch must not perturb a single byte of deterministic_json() output.
// Hashes were captured on the pre-recycling tree for a fleet config
// distinct from test_rebalance's (scene 47, 16 streams, 8 instances,
// reserved tight pool), per run_sharded leg, plus the reservoir-telemetry
// mode.
//
// Suite 3 counts what the harness runners spend per patch on top of the
// system: uplink delivery must not heap-allocate.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/alloc_probe.h"
#include "common/rng.h"
#include "core/estimator.h"
#include "core/invoker.h"
#include "experiments/harness.h"
#include "golden.h"
#include "serverless/platform.h"
#include "sim/simulator.h"

// Shared probe hook (common/alloc_probe.h).  gtest's own allocations are
// excluded by scoping the AllocationProbe around the measured region only.
TANGRAM_DEFINE_ALLOC_PROBE_HOOK();

namespace tangram::core {
namespace {

// --- suite 1: steady-state allocation count ----------------------------------

// The full dispatch loop as TangramSystem wires it, minus the stream-routing
// layer: invoker -> platform invoke -> completion -> BatchPool recycle, with
// in-flight batches parked in recycled slots so completion callbacks stay
// within the std::function small-buffer.
struct DispatchFixture {
  sim::Simulator sim;
  serverless::FunctionPlatform platform;
  LatencyEstimator estimator;
  std::shared_ptr<BatchPool> pool = std::make_shared<BatchPool>();
  std::vector<Batch> inflight;
  std::vector<std::uint32_t> inflight_free;
  std::uint64_t completed = 0;
  std::unique_ptr<SloAwareInvoker> invoker;
  std::vector<common::Size> sizes;
  double t = 0.0;
  std::uint64_t next_id = 0;

  static serverless::PlatformConfig platform_config() {
    serverless::PlatformConfig p;
    p.max_instances = 8;
    // Long keepalive: cold-start bookkeeping settles during warm-up and the
    // measured region never spins an instance up or down.
    p.keepalive_s = 3600.0;
    // Bound the platform's own samplers (execution latency, queueing delay)
    // the same way the invoker's are bounded, or they grow without limit.
    p.telemetry_reservoir = 64;
    return p;
  }

  DispatchFixture()
      : platform(sim, platform_config()),
        estimator(platform.latency_model(), {1024, 1024},
                  [] {
                    LatencyEstimator::Config c;
                    c.iterations = 200;
                    return c;
                  }()) {
    InvokerConfig config;
    config.max_canvases = platform.max_canvases_per_batch();
    // Bounded reservoirs: after capacity fills during warm-up, Sampler::add
    // overwrites in place instead of growing.
    config.telemetry_reservoir = 64;
    config.batch_pool = pool;
    invoker = std::make_unique<SloAwareInvoker>(
        sim, PackHeuristic::kGuillotineBssf, estimator, config,
        [this](Batch&& batch) {
          serverless::RequestSpec spec;
          spec.num_canvases = batch.canvas_count();
          spec.num_items = batch.total_patches;
          std::uint32_t slot;
          if (inflight_free.empty()) {
            inflight.emplace_back();
            slot = static_cast<std::uint32_t>(inflight.size() - 1);
          } else {
            slot = inflight_free.back();
            inflight_free.pop_back();
          }
          inflight[slot] = std::move(batch);
          platform.invoke(
              spec, 0, [f = this, slot](const serverless::InvocationRecord&) {
                Batch done = std::move(f->inflight[slot]);
                f->inflight_free.push_back(slot);
                f->completed += static_cast<std::uint64_t>(done.total_patches);
                f->pool->recycle(std::move(done));
              });
        });
    common::Rng rng(23, 9);
    for (int i = 0; i < 64; ++i)
      sizes.push_back({rng.uniform_int(40, 900), rng.uniform_int(60, 1000)});
  }

  // One batch window: `patches` arrivals 2ms apart, then a 1s drain so every
  // invocation completes and its storage returns to the pool.
  void window(int patches) {
    for (int i = 0; i < patches; ++i) {
      t += 2e-3;
      sim.run_until(t);
      Patch patch;
      patch.id = next_id++;
      const common::Size size = sizes[next_id % sizes.size()];
      patch.region = {0, 0, size.width, size.height};
      patch.generation_time = t;
      patch.slo = 0.25;
      patch.bytes = 1000;
      invoker->on_patch(patch);
    }
    t += 1.0;
    sim.run_until(t);
  }
};

TEST(DispatchAlloc, SteadyStateDispatchCyclesDoNotAllocate) {
  DispatchFixture f;
  // Warm-up: grow every freelist and scratch buffer to the workload's
  // high-water mark (batch shells, canvases, in-flight slots, platform
  // completion slots, per-canvas free-rect vectors, telemetry reservoirs).
  for (int w = 0; w < 200; ++w) f.window(64);
  const std::uint64_t completed_before = f.completed;

  const common::AllocationProbe probe;
  for (int w = 0; w < 50; ++w) f.window(64);

  EXPECT_EQ(probe.allocations(), 0u) << "steady-state dispatch allocated";
  // The measured region did real work: every patch round-tripped through
  // invoke and completion.
  EXPECT_EQ(f.completed - completed_before, 50u * 64u);
}

TEST(DispatchAlloc, RecycledStorageIsActuallyReused) {
  DispatchFixture f;
  for (int w = 0; w < 8; ++w) f.window(32);
  // Quiescent between windows: everything dispatched has completed, so the
  // pool holds the working set and the next window drains it again.
  EXPECT_GT(f.pool->pooled_batches(), 0u);
  EXPECT_GT(f.pool->pooled_canvases(), 0u);
  EXPECT_LE(f.pool->pooled_batches(), BatchPool::kMaxPooledShells);
  EXPECT_LE(f.pool->pooled_canvases(), BatchPool::kMaxPooledCanvases);
}

// --- suite 2: byte-identity of the recycled-batch path -----------------------

using golden::fnv1a;
using golden::GoldenFleet;

// The fleet goldens (tests/golden.h) were captured on the pre-recycling
// tree: recycling batch storage must not move a byte.
TEST(DispatchAlloc, RecycledBatchPathIsByteIdentical) {
  const GoldenFleet g;
  const auto legs = experiments::run_sharded(g.fleet, g.config);
  EXPECT_EQ(fnv1a(experiments::deterministic_json(legs.single)),
            golden::kFleetSingle);
  EXPECT_EQ(fnv1a(experiments::deterministic_json(legs.sharded)),
            golden::kFleetSharded);
  EXPECT_EQ(fnv1a(experiments::deterministic_json(legs.sharded_reserved)),
            golden::kFleetReserved);
}

TEST(DispatchAlloc, RecycledBatchPathIsByteIdenticalWithReservoirTelemetry) {
  GoldenFleet g;
  g.config.telemetry_reservoir = 64;
  const auto direct = experiments::run_multistream(g.fleet, g.config);
  EXPECT_EQ(fnv1a(experiments::deterministic_json(direct)),
            golden::kFleetReservoirDirect);
}

// --- suite 3: harness delivery -----------------------------------------------

// Allocations per completed patch that 16 more cameras add: `run` maps a
// fleet to its completed patches, and the difference between a 32- and a
// 16-camera run cancels start-up growth (profiling, freelists, telemetry
// vectors).  A delivery event that heap-allocates reads at least 1.
template <typename Run>
double marginal_allocs_per_patch(const experiments::SceneTrace& trace,
                                 Run run) {
  const std::vector<const experiments::SceneTrace*> small(16, &trace);
  const std::vector<const experiments::SceneTrace*> large(32, &trace);
  const common::AllocationProbe small_probe;
  const std::size_t small_patches = run(small);
  const std::size_t small_allocs = small_probe.allocations();
  const common::AllocationProbe large_probe;
  const std::size_t large_patches = run(large);
  const std::size_t large_allocs = large_probe.allocations();
  EXPECT_GT(large_patches, small_patches);
  return static_cast<double>(large_allocs - small_allocs) /
         static_cast<double>(large_patches - small_patches);
}

TEST(DispatchAlloc, HarnessDeliveryAllocatesNothingPerPatch) {
  GoldenFleet g;
  // Cameras 16-31 repeat the SLO pattern, so both fleets route to the same
  // shards and pools.
  for (std::size_t i = 16; i < 32; ++i)
    g.config.per_stream_slo.push_back(g.config.per_stream_slo[i - 16]);
  const double multistream = marginal_allocs_per_patch(
      g.trace, [&](const std::vector<const experiments::SceneTrace*>& fleet) {
        return experiments::run_multistream(fleet, g.config).patches_completed;
      });
  EXPECT_LT(multistream, 0.5);

  experiments::EndToEndConfig end_to_end;
  static_cast<experiments::FleetConfig&>(end_to_end) = g.config;
  const double tangram = marginal_allocs_per_patch(
      g.trace, [&](const std::vector<const experiments::SceneTrace*>& fleet) {
        return experiments::run_end_to_end(
                   fleet, experiments::StrategyKind::kTangram, end_to_end)
            .patches_completed;
      });
  EXPECT_LT(tangram, 0.5);
}

}  // namespace
}  // namespace tangram::core
