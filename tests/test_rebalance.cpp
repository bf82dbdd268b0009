// The adaptive shard-rebalancing layer: stream migration, cross-shard work
// stealing, deregistration, and the byte-identity contract that
// RebalancePolicy::none() with stealing disabled reproduces the route-once
// pool exactly (pinned against pre-refactor FNV-1a hashes).

#include "core/invoker_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/system.h"
#include "experiments/harness.h"
#include "golden.h"

namespace tangram::core {
namespace {

serverless::InferenceLatencyModel deterministic_model() {
  serverless::LatencyModelParams params;
  params.jitter_sigma = 0.0;
  params.overhead_s = 0.1;
  params.per_canvas_s = 0.1;
  params.batch_alpha = 1.0;
  return serverless::InferenceLatencyModel(params, common::Rng(1, 1));
}

LatencyEstimator::Config quick_estimator_config() {
  LatencyEstimator::Config c;
  c.max_profiled_batch = 10;
  c.iterations = 50;
  return c;
}

struct RebalanceFixture {
  sim::Simulator sim;
  serverless::InferenceLatencyModel model = deterministic_model();
  LatencyEstimator estimator;
  std::vector<Batch> invoked;
  std::vector<std::tuple<StreamId, int, int>> moves;
  std::unique_ptr<InvokerPool> pool;

  RebalanceFixture(ShardPolicy policy, RebalancePolicy rebalance)
      : estimator(model, {1024, 1024}, quick_estimator_config()) {
    pool = std::make_unique<InvokerPool>(
        sim, PackHeuristic::kGuillotineBssf, estimator, InvokerConfig{},
        std::move(policy),
        [this](int, Batch&& b) { invoked.push_back(std::move(b)); },
        /*shard_setup=*/nullptr, rebalance,
        [this](StreamId stream, int from, int to) {
          moves.emplace_back(stream, from, to);
        });
  }

  Patch make_patch(std::uint64_t id, double generation, double slo,
                   common::Size size = {300, 300}) const {
    Patch p;
    p.id = id;
    p.region = {0, 0, size.width, size.height};
    p.generation_time = generation;
    p.slo = slo;
    p.bytes = 1000;
    return p;
  }

  std::vector<std::uint64_t> queue_ids(std::size_t shard) const {
    std::vector<std::uint64_t> ids;
    for (const Patch& p : pool->shard(shard).pending_queue())
      ids.push_back(p.id);
    return ids;
  }
};

TEST(Rebalance, ActivePolicyRejectsNonPositiveInterval) {
  sim::Simulator sim;
  auto model = deterministic_model();
  const LatencyEstimator estimator(model, {1024, 1024},
                                   quick_estimator_config());
  // A NaN interval would re-arm the rebalancer at the current instant
  // forever, so it is rejected with the non-positive ones.
  for (const double interval :
       {0.0, std::numeric_limits<double>::quiet_NaN()}) {
    RebalancePolicy bad = RebalancePolicy::class_mix_drift();
    bad.interval_s = interval;
    EXPECT_THROW(InvokerPool(sim, PackHeuristic::kGuillotineBssf, estimator,
                             InvokerConfig{}, ShardPolicy::per_slo_class(),
                             [](int, Batch&&) {}, nullptr, bad),
                 std::invalid_argument)
        << interval;
  }
  // none() never evaluates the interval, so a zero interval is harmless.
  RebalancePolicy none;
  none.interval_s = 0.0;
  EXPECT_NO_THROW(InvokerPool(sim, PackHeuristic::kGuillotineBssf, estimator,
                              InvokerConfig{}, ShardPolicy::per_slo_class(),
                              [](int, Batch&&) {}, nullptr, none));
}

// --- stream migration -------------------------------------------------------

TEST(Rebalance, DriftMigrationMovesStreamWholeInArrivalOrder) {
  RebalanceFixture f(ShardPolicy::per_slo_class(),
                     RebalancePolicy::class_mix_drift(/*min_run=*/4,
                                                      /*interval_s=*/0.05));
  // Registered with per-patch SLOs, both streams share one shard.
  const int source = f.pool->route(0, {"a", 0.0});
  ASSERT_EQ(f.pool->route(1, {"b", 0.0}), source);

  // Interleaved arrivals: stream 1 owns ids 4 and 8 (a run of 2, below
  // min_run), stream 0 the rest (a run of 6).  SLOs are far out, so
  // nothing dispatches during the window.
  f.sim.schedule_at(0.0, [&] {
    for (std::uint64_t id = 1; id <= 8; ++id) {
      if (id % 4 == 0)
        f.pool->submit(1, f.make_patch(id, 0.0, 80.0));
      else
        f.pool->submit(0, f.make_patch(id, 0.0, 50.0));
    }
  });
  // One tick: stream 0 moves to its observed class's (new) shard.
  f.sim.run_until(0.07);

  const int target = f.pool->shard_of(0);
  ASSERT_NE(target, source);
  EXPECT_EQ(f.pool->shard_of(1), source);
  ASSERT_EQ(f.moves.size(), 1u);
  EXPECT_EQ(f.moves[0], std::make_tuple(StreamId{0}, source, target));
  // The migrated stream's patches re-admit on the new shard in their original
  // arrival order; the source keeps the other stream's FIFO intact.
  EXPECT_EQ(f.queue_ids(static_cast<std::size_t>(target)),
            (std::vector<std::uint64_t>{1, 2, 3, 5, 6, 7}));
  EXPECT_EQ(f.queue_ids(static_cast<std::size_t>(source)),
            (std::vector<std::uint64_t>{4, 8}));
  // Migration telemetry: the SOURCE shard records the departure.
  EXPECT_EQ(
      f.pool->shard(static_cast<std::size_t>(source)).stats().migrations, 1u);
  EXPECT_EQ(f.pool->aggregate_stats().migrations, 1u);

  // Every patch still completes exactly once.
  f.pool->flush();
  std::size_t total = 0;
  for (const Batch& batch : f.invoked)
    total += static_cast<std::size_t>(batch.total_patches);
  EXPECT_EQ(total, 8u);
}

// --- cross-shard work stealing -----------------------------------------------

TEST(Rebalance, IdleShardStealsQueueTailWhenSlackPermits) {
  RebalancePolicy policy;  // kind == kNone: stealing alone activates the timer
  policy.steal.enabled = true;
  policy.steal.min_victim_backlog = 4;
  policy.steal.max_patches = 3;
  RebalanceFixture f(ShardPolicy::per_slo_class(), policy);
  const int thief = f.pool->route(0, {"idle", 50.0});
  const int victim = f.pool->route(1, {"busy", 80.0});
  ASSERT_NE(thief, victim);

  f.sim.schedule_at(0.0, [&] {
    for (std::uint64_t id = 1; id <= 8; ++id)
      f.pool->submit(1, f.make_patch(id, 0.0, 80.0));
  });
  f.sim.run_until(0.3);  // one default-interval tick at 0.25

  // The thief raided the TAIL of the victim's queue; the victim's FIFO
  // prefix is untouched.
  EXPECT_EQ(f.queue_ids(static_cast<std::size_t>(thief)),
            (std::vector<std::uint64_t>{6, 7, 8}));
  EXPECT_EQ(f.queue_ids(static_cast<std::size_t>(victim)),
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  // Steal telemetry lands on the THIEF shard and sums through the aggregate.
  const InvokerStats thief_stats =
      f.pool->shard(static_cast<std::size_t>(thief)).stats();
  EXPECT_EQ(thief_stats.steals, 3u);
  EXPECT_EQ(thief_stats.steal_bytes, 3000u);
  EXPECT_EQ(f.pool->aggregate_stats().steals, 3u);
  EXPECT_EQ(f.pool->aggregate_stats().steal_bytes, 3000u);
  // Stealing moves patches, not streams.
  EXPECT_EQ(f.pool->aggregate_stats().migrations, 0u);
  EXPECT_EQ(f.pool->shard_of(0), thief);
  EXPECT_EQ(f.pool->shard_of(1), victim);

  f.pool->flush();
  std::size_t total = 0;
  for (const Batch& batch : f.invoked)
    total += static_cast<std::size_t>(batch.total_patches);
  EXPECT_EQ(total, 8u);
}

TEST(Rebalance, StealRespectsVictimBacklogFloor) {
  RebalancePolicy policy;
  policy.steal.enabled = true;
  policy.steal.min_victim_backlog = 8;  // deeper than the backlog below
  RebalanceFixture f(ShardPolicy::per_slo_class(), policy);
  (void)f.pool->route(0, {"idle", 50.0});
  (void)f.pool->route(1, {"busy", 80.0});
  f.sim.schedule_at(0.0, [&] {
    for (std::uint64_t id = 1; id <= 5; ++id)
      f.pool->submit(1, f.make_patch(id, 0.0, 80.0));
  });
  f.sim.run_until(0.3);
  EXPECT_TRUE(f.pool->shard(0).pending_queue().empty());
  EXPECT_EQ(f.pool->aggregate_stats().steals, 0u);
}

// --- class-mix drift through the system facade -------------------------------

TangramSystem::Config drift_system_config(RebalancePolicy rebalance) {
  TangramSystem::Config c;
  c.function_latency.jitter_sigma = 0.0;
  c.platform.cold_start_s = 0.0;
  c.estimator.iterations = 100;
  c.sharding = ShardPolicy::per_slo_class();
  c.rebalance = rebalance;
  c.seed = 99;
  return c;
}

TEST(Rebalance, DriftReRoutesStreamToObservedClassShard) {
  sim::Simulator sim;
  TangramSystem system(
      sim,
      drift_system_config(RebalancePolicy::class_mix_drift(/*min_run=*/3,
                                                           /*interval_s=*/0.1)),
      nullptr);
  // Registered with per-patch SLOs: the router cannot see the class up
  // front, so the stream lands on the shared per-patch shard.
  const StreamId cam = system.register_stream({"cam", 0.0});
  const int initial_shard = system.stream_stats(cam).shard;

  sim.schedule_at(0.0, [&] {
    for (std::uint64_t id = 1; id <= 3; ++id) {
      Patch p;
      p.id = id;
      p.region = {0, 0, 300, 300};
      p.generation_time = 0.0;
      p.slo = 0.5;  // every patch carries the same observed class
      system.receive_patch(cam, p);
    }
  });
  sim.run();
  system.flush();
  sim.run();

  // After one tick the 3-patch run met min_run and the stream moved to the
  // slo=0.5 class shard (created on demand).
  EXPECT_EQ(system.pool().shard_count(), 2u);
  EXPECT_NE(system.stream_stats(cam).shard, initial_shard);
  EXPECT_EQ(system.pool().shard_of(cam), system.stream_stats(cam).shard);
  EXPECT_EQ(system.pool().aggregate_stats().migrations, 1u);
  EXPECT_EQ(system.stream_stats(cam).patches_completed, 3u);
  // Occupancy series exist for every shard once a policy is active.
  EXPECT_EQ(system.pool().shard_occupancy().size(),
            system.pool().shard_count());
  EXPECT_GT(system.pool().rebalance_ticks(), 0u);
}

// --- stream deregistration ---------------------------------------------------

TEST(Rebalance, DeregisterDropsPendingAndRejectsLaterPatches) {
  sim::Simulator sim;
  TangramSystem system(sim, drift_system_config(RebalancePolicy::none()),
                       nullptr);
  const StreamId gone = system.register_stream({"gone", 50.0});
  const StreamId kept = system.register_stream({"kept", 50.0});

  auto make = [](std::uint64_t id) {
    Patch p;
    p.id = id;
    p.region = {0, 0, 300, 300};
    p.generation_time = 0.0;
    return p;
  };
  sim.schedule_at(0.0, [&] {
    system.receive_patch(gone, make(1));
    system.receive_patch(gone, make(2));
    system.receive_patch(kept, make(3));
    system.receive_patch(kept, make(4));
  });
  sim.schedule_at(1.0, [&] { system.deregister_stream(gone); });
  sim.run();
  system.flush();
  sim.run();

  // The camera vanished mid-backlog: its queued patches are discarded, the
  // survivor's complete, and the dead stream's telemetry stays readable.
  EXPECT_EQ(system.stream_stats(gone).patches_completed, 0u);
  EXPECT_EQ(system.stream_stats(kept).patches_completed, 2u);
  EXPECT_FALSE(system.stream_stats(gone).active);
  EXPECT_TRUE(system.stream_stats(kept).active);
  EXPECT_THROW(system.receive_patch(gone, make(5)), std::invalid_argument);
  EXPECT_THROW(system.deregister_stream(gone), std::invalid_argument);
  EXPECT_THROW(system.deregister_stream(StreamId{99}), std::out_of_range);
  EXPECT_THROW((void)system.pool().shard_of(gone), std::out_of_range);
}

}  // namespace
}  // namespace tangram::core

namespace tangram::experiments {
namespace {

using golden::fnv1a;

class RebalanceRegression : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TraceConfig config;
    config.raster.analysis = {240, 135};
    trace_ = new SceneTrace(build_trace(video::test_scene(31), config));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  // The pinned pre-refactor fleet: 32 streams (1 tight : 3 loose) on 16
  // instances with the reserved-tight capacity plan.
  static MultiStreamConfig golden_config() {
    MultiStreamConfig config;
    config.platform.max_instances = 16;
    for (std::size_t i = 0; i < 32; ++i)
      config.per_stream_slo.push_back(i % 4 == 0 ? 0.25 : 2.0);
    config.pool_for_shard = reserved_tight_pool_plan(0.5, 4, 12);
    return config;
  }

  static const SceneTrace* trace_;
};

const SceneTrace* RebalanceRegression::trace_ = nullptr;

TEST_F(RebalanceRegression, NonePolicyByteIdenticalToPreRefactorGoldens) {
  // FNV-1a 64 hashes of deterministic_json() captured on the route-once pool
  // BEFORE the adaptive layer landed.  RebalancePolicy::none() with stealing
  // disabled must keep reproducing them bit-for-bit, serial and parallel.
  constexpr std::uint64_t kGoldenSingle = 0x7c281d880e513d41ull;
  constexpr std::uint64_t kGoldenSharded = 0xd2c154e57a9b3c96ull;
  constexpr std::uint64_t kGoldenReserved = 0x2ee991dfa1463b1cull;

  std::vector<const SceneTrace*> fleet(32, trace_);
  MultiStreamConfig config = golden_config();
  for (const int jobs : {1, 8}) {
    config.jobs = jobs;
    const auto legs = run_sharded(fleet, config);
    EXPECT_EQ(fnv1a(deterministic_json(legs.single)), kGoldenSingle)
        << "jobs=" << jobs;
    EXPECT_EQ(fnv1a(deterministic_json(legs.sharded)), kGoldenSharded)
        << "jobs=" << jobs;
    ASSERT_TRUE(legs.has_reserved);
    EXPECT_EQ(fnv1a(deterministic_json(legs.sharded_reserved)),
              kGoldenReserved)
        << "jobs=" << jobs;
  }
  // The direct fleet run equals the reserved leg (same config end-to-end).
  const auto direct = run_multistream(fleet, config);
  EXPECT_EQ(fnv1a(deterministic_json(direct)), kGoldenReserved);
}

TEST_F(RebalanceRegression, NonePolicyReportsNoRebalanceTelemetry) {
  std::vector<const SceneTrace*> cameras(4, trace_);
  MultiStreamConfig config;
  config.per_stream_slo = {0.25, 2.0, 2.0, 0.25};
  const auto result = run_multistream(cameras, config);
  EXPECT_FALSE(result.rebalance.enabled);
  EXPECT_EQ(result.rebalance.ticks, 0u);
  EXPECT_EQ(result.rebalance.migrations, 0u);
  EXPECT_EQ(result.rebalance.steals, 0u);
  EXPECT_TRUE(result.rebalance.shard_occupancy.empty());
  // The legacy JSON schema is untouched: no "rebalance" key at all.
  EXPECT_EQ(deterministic_json(result).find("\"rebalance\""),
            std::string::npos);
}

TEST_F(RebalanceRegression, ActivePolicyExtendsJsonWithRebalanceBlock) {
  std::vector<const SceneTrace*> cameras(8, trace_);
  MultiStreamConfig config;
  config.drift_at_s = 1.0;
  for (std::size_t i = 0; i < cameras.size(); ++i) {
    config.per_stream_slo.push_back(2.0);
    config.drift_to_slo.push_back(i % 4 == 0 ? 0.25 : 0.0);
  }
  config.rebalance = core::RebalancePolicy::class_mix_drift(/*min_run=*/2,
                                                            /*interval_s=*/0.1);
  const auto result = run_multistream(cameras, config);
  EXPECT_TRUE(result.rebalance.enabled);
  EXPECT_TRUE(result.per_patch_drift);
  EXPECT_GT(result.rebalance.ticks, 0u);
  EXPECT_GT(result.rebalance.migrations, 0u);
  EXPECT_EQ(result.rebalance.shard_occupancy.size(), result.shards);
  // The per-patch class tally covers every completion, keyed by carried SLO.
  std::size_t tallied = 0;
  for (const auto& cls : result.patch_classes) tallied += cls.completed;
  EXPECT_EQ(tallied, result.patches_completed);
  EXPECT_GT(result.patch_class_misses(0.25).first, 0u);
  const std::string json = deterministic_json(result);
  EXPECT_NE(json.find("\"rebalance\""), std::string::npos);
  EXPECT_NE(json.find("\"patch_classes\""), std::string::npos);
}

TEST_F(RebalanceRegression, RunShardedLegsStripAnActiveRebalancePolicy) {
  std::vector<const SceneTrace*> fleet(8, trace_);
  MultiStreamConfig config;
  config.drift_at_s = 1.0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    config.per_stream_slo.push_back(2.0);
    config.drift_to_slo.push_back(i % 4 == 0 ? 0.25 : 0.0);
  }
  config.rebalance = core::RebalancePolicy::class_mix_drift(/*min_run=*/2,
                                                            /*interval_s=*/0.1);
  const auto legs = run_sharded(fleet, config);
  // The comparison legs stay rebalance-free (they isolate layout/capacity).
  EXPECT_FALSE(legs.single.rebalance.enabled);
  EXPECT_FALSE(legs.sharded.rebalance.enabled);
  EXPECT_EQ(legs.single.rebalance.migrations, 0u);
  EXPECT_EQ(legs.sharded.rebalance.migrations, 0u);
  // Same workload end-to-end on both legs.
  EXPECT_EQ(legs.single.patches_sent, legs.sharded.patches_sent);
  EXPECT_EQ(legs.single.patches_completed, legs.sharded.patches_completed);
}

}  // namespace
}  // namespace tangram::experiments
