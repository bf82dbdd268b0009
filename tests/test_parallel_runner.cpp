// ParallelSweepRunner + the serial/parallel determinism guarantee.
//
// The contract under test: every sweep cell is an independent simulation
// over shared immutable traces, so running a grid on N worker threads is
// bit-identical to running it serially — deterministic_json() (every
// simulation-visible field at full double precision) is the comparison key.

#include "experiments/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiments/harness.h"

namespace tangram::experiments {
namespace {

TEST(PeakRss, ProbeReportsPositiveHighWaterMark) {
  // /proc/self/status is always present on Linux; VmHWM of a running
  // process is strictly positive.
  EXPECT_GT(peak_rss_kb(), 0);
}

TEST(ParallelSweepRunner, ResolveJobs) {
  EXPECT_EQ(ParallelSweepRunner::resolve_jobs(3), 3);
  EXPECT_EQ(ParallelSweepRunner::resolve_jobs(1), 1);
  EXPECT_GE(ParallelSweepRunner::resolve_jobs(0), 1);
  EXPECT_GE(ParallelSweepRunner::resolve_jobs(-4), 1);
}

TEST(ParallelSweepRunner, MapPreservesCellOrder) {
  const ParallelSweepRunner runner(8);
  const auto outcomes =
      runner.map(97, [](std::size_t i) { return i * i; });
  ASSERT_EQ(outcomes.size(), 97u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].result, i * i);
    EXPECT_GE(outcomes[i].timing.wall_ms, 0.0);
    EXPECT_GT(outcomes[i].timing.peak_rss_kb, 0);
  }
}

TEST(ParallelSweepRunner, EveryCellRunsExactlyOnce) {
  std::atomic<int> runs{0};
  std::vector<std::atomic<int>> per_cell(64);
  ParallelSweepRunner(4).run_indexed(64, [&](std::size_t i) {
    ++per_cell[i];
    ++runs;
  });
  EXPECT_EQ(runs.load(), 64);
  for (const auto& c : per_cell) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelSweepRunner, LowestIndexExceptionPropagates) {
  const ParallelSweepRunner runner(4);
  try {
    runner.run_indexed(16, [](std::size_t i) {
      if (i == 3 || i == 11)
        throw std::runtime_error("cell " + std::to_string(i));
    });
    FAIL() << "expected the cell exception to propagate";
  } catch (const std::runtime_error& e) {
    // Deterministic choice when several cells fail: the lowest index wins,
    // independent of thread interleaving.
    EXPECT_STREQ(e.what(), "cell 3");
  }
}

TEST(ParallelSweepRunner, SerialPathSpawnsNoThreads) {
  const auto main_thread = std::this_thread::get_id();
  ParallelSweepRunner(1).run_indexed(8, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), main_thread);
  });
}

// --- end-to-end determinism over real simulations ---------------------------

class DeterminismTest : public ::testing::Test {
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

  // A mixed-SLO grid: stream counts x shard layouts, some cells with
  // bounded telemetry reservoirs and a capacity plan.
  static std::vector<MultiStreamCell> mixed_grid() {
    std::vector<MultiStreamCell> cells;
    for (const std::size_t n : {2u, 4u, 8u}) {
      for (const int layout : {0, 1, 2}) {
        MultiStreamCell cell;
        cell.cameras.assign(n, trace_);
        for (std::size_t i = 0; i < n; ++i)
          cell.config.per_stream_slo.push_back(i % 3 == 0 ? 0.25 : 2.0);
        if (layout == 0) {
          cell.config.sharding = core::ShardPolicy::single();
        } else if (layout == 1) {
          cell.config.sharding = core::ShardPolicy::per_slo_class();
          cell.config.pool_for_shard =
              reserved_tight_pool_plan(0.5, 2, 6);
          cell.config.platform.max_instances = 8;
        } else {
          cell.config.sharding = core::ShardPolicy::hashed(2);
          cell.config.telemetry_reservoir = 64;
        }
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  }

  static std::vector<std::string> json_of(
      const std::vector<SweepCellOutcome<MultiStreamResult>>& outcomes) {
    std::vector<std::string> out;
    out.reserve(outcomes.size());
    for (const auto& o : outcomes) out.push_back(deterministic_json(o.result));
    return out;
  }

  static const SceneTrace* trace_;
};

const SceneTrace* DeterminismTest::trace_ = nullptr;

TEST_F(DeterminismTest, MixedSloGridBitIdenticalAcrossJobCounts) {
  const auto cells = mixed_grid();
  const auto serial = json_of(run_multistream_cells(cells, 1));
  const auto parallel = json_of(run_multistream_cells(cells, 8));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
}

TEST_F(DeterminismTest, SharedProfilingMatchesPerCellProfiling) {
  auto cells = mixed_grid();
  const auto per_cell = json_of(run_multistream_cells(cells, 1));
  const auto profile = profile_estimator(cells.front().config);
  for (auto& cell : cells) cell.config.profiled_estimator = profile;
  const auto shared = json_of(run_multistream_cells(cells, 2));
  ASSERT_EQ(per_cell.size(), shared.size());
  for (std::size_t i = 0; i < per_cell.size(); ++i)
    EXPECT_EQ(per_cell[i], shared[i]) << "cell " << i;
}

TEST_F(DeterminismTest, RunShardedLegsIdenticalAcrossJobCounts) {
  std::vector<const SceneTrace*> fleet(8, trace_);
  MultiStreamConfig config;
  config.platform.max_instances = 8;
  for (std::size_t i = 0; i < fleet.size(); ++i)
    config.per_stream_slo.push_back(i % 4 == 0 ? 0.25 : 2.0);
  config.pool_for_shard = reserved_tight_pool_plan(0.5, 2, 6);

  config.jobs = 1;
  const auto serial = run_sharded(fleet, config);
  config.jobs = 3;
  const auto parallel = run_sharded(fleet, config);

  EXPECT_EQ(deterministic_json(serial.single),
            deterministic_json(parallel.single));
  EXPECT_EQ(deterministic_json(serial.sharded),
            deterministic_json(parallel.sharded));
  ASSERT_TRUE(serial.has_reserved);
  ASSERT_TRUE(parallel.has_reserved);
  EXPECT_EQ(deterministic_json(serial.sharded_reserved),
            deterministic_json(parallel.sharded_reserved));
}

TEST_F(DeterminismTest, RebalancingSweepBitIdenticalAcrossJobCounts) {
  // The adaptive layer (migration timer, work stealing, drift tracking) runs
  // entirely in sim-time, so a rebalancing grid keeps the serial/parallel
  // bit-identity contract.
  std::vector<MultiStreamCell> cells;
  for (const int variant : {0, 1, 2}) {
    MultiStreamCell cell;
    cell.cameras.assign(8, trace_);
    cell.config.drift_at_s = 1.0;
    for (std::size_t i = 0; i < 8; ++i) {
      cell.config.per_stream_slo.push_back(2.0);
      cell.config.drift_to_slo.push_back(i % 4 == 0 ? 0.25 : 0.0);
    }
    if (variant == 0) {
      // Stealing without migration: streams stay on their hashed shards
      // and only patches cross between them.
      cell.config.sharding = core::ShardPolicy::hashed(2);
      cell.config.rebalance = core::RebalancePolicy::none();
      cell.config.rebalance.interval_s = 0.1;
    } else {
      cell.config.rebalance =
          core::RebalancePolicy::class_mix_drift(/*min_run=*/2,
                                                 /*interval_s=*/0.1);
    }
    if (variant != 1) {
      cell.config.rebalance.steal.enabled = true;
      cell.config.rebalance.steal.min_victim_backlog = 2;
    }
    cells.push_back(std::move(cell));
  }
  const auto serial_runs = run_multistream_cells(cells, 1);
  // The steal-only cell moves patches, never streams.
  EXPECT_GT(serial_runs[0].result.rebalance.steals, 0u);
  EXPECT_EQ(serial_runs[0].result.rebalance.migrations, 0u);
  const auto serial = json_of(serial_runs);
  const auto parallel = json_of(run_multistream_cells(cells, 8));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
}

TEST_F(DeterminismTest, ConcurrentSameSeedSimsIdentical) {
  // Two identically-seeded sims racing on raw threads (not the runner)
  // produce identical results: no shared mutable state anywhere in the
  // sim / RNG / scheduler stack.
  MultiStreamConfig config;
  config.per_stream_slo = {0.25, 2.0, 2.0, 0.25};
  std::vector<const SceneTrace*> cameras(4, trace_);

  std::string left, right;
  std::thread a([&] { left = deterministic_json(run_multistream(cameras, config)); });
  std::thread b([&] { right = deterministic_json(run_multistream(cameras, config)); });
  a.join();
  b.join();
  EXPECT_FALSE(left.empty());
  EXPECT_EQ(left, right);
}

TEST_F(DeterminismTest, ReservoirBoundsPerStreamTelemetry) {
  std::vector<const SceneTrace*> cameras(4, trace_);
  MultiStreamConfig config;
  config.telemetry_reservoir = 16;
  const auto result = run_multistream(cameras, config);
  ASSERT_FALSE(result.streams.empty());
  for (const auto& stream : result.streams) {
    EXPECT_LE(stream.e2e_latency.values().size(), 16u);
    EXPECT_LE(stream.queue_to_invoke.values().size(), 16u);
    // count() still reports every sample seen, not the retained subset.
    EXPECT_EQ(stream.e2e_latency.count(), stream.patches_completed);
  }
  EXPECT_LE(result.cold_start_setup.values().size(), 16u);
  EXPECT_LE(result.batch_canvases.values().size(), 16u);
}

}  // namespace
}  // namespace tangram::experiments
