// Predictive provisioning + proactive pre-warming.
//
// Suite 1 is the end-to-end provisioning study in miniature: on a scripted
// step-load trace, pre-warming ahead of the wave strictly reduces
// tight-class SLO misses vs queue-pressure reactive scaling.  The same
// pre-warming step load, run as sweep cells, must produce byte-equal
// deterministic_json at jobs 1 and 8, "forecast" block included — the
// forecasters and their pre-warm boots raced across worker threads.
//
// Suite 2 audits the billing and aggregation conventions: pre-warm boots
// are billed (into total_cost, attributed per pool) but never counted in
// cold_starts(); roll-ups sum across EVERY pool, never pool 0 only.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "experiments/harness.h"
#include "golden.h"
#include "serverless/platform.h"
#include "sim/simulator.h"

namespace tangram::experiments {
namespace {

using golden::GoldenFleet;

// --- suite 1: pre-warming beats reactive scaling on a step load --------------

// Scripted step load on the golden fleet: two 8-stream rush-hour waves
// separated by a ~3s idle valley (each stream runs ~30s of 1 fps trace).
// The keepalive is short enough that every instance cools during the
// valley, so wave 2's cold starts are exactly what a policy can pay ahead
// of time — a reactive scaler eats them at the wave front.
MultiStreamConfig step_load_config(const GoldenFleet& g) {
  MultiStreamConfig config = g.config;
  config.per_stream_start_s.assign(16, 33.0);
  for (std::size_t i = 0; i < 8; ++i) config.per_stream_start_s[i] = 0.0;
  config.platform.keepalive_s = 1.0;
  return config;
}

TEST(ProvisioningStepLoad, PrewarmingReducesTightMissesVsQueuePressure) {
  GoldenFleet g;

  MultiStreamConfig reactive = step_load_config(g);
  reactive.platform.autoscale =
      serverless::AutoscalePolicy::queue_pressure(1, 0.5, 1);

  MultiStreamConfig predictive = step_load_config(g);
  // Trailing-window peak with the window spanning the valley: the forecast
  // holds at wave 1's height while demand is zero, so pre-warm boots keep
  // the fleet warm for wave 2's arrival.
  predictive.platform.autoscale =
      serverless::AutoscalePolicy::windowed_max(12, 0.5);
  predictive.platform.autoscale.prewarm = true;

  // Identical arrival schedules, shared profiling — only the provisioning
  // policy differs between the two runs.
  const auto profile = profile_estimator(reactive);
  reactive.profiled_estimator = profile;
  predictive.profiled_estimator = profile;

  const auto reactive_run = run_multistream(g.fleet, reactive);
  const auto predictive_run = run_multistream(g.fleet, predictive);

  const auto [reactive_done, reactive_miss] =
      reactive_run.class_completions_misses(0.25);
  const auto [predictive_done, predictive_miss] =
      predictive_run.class_completions_misses(0.25);
  EXPECT_EQ(reactive_done, predictive_done);
  EXPECT_LT(predictive_miss, reactive_miss)
      << "pre-warming must strictly reduce tight-class misses on the step";

  // The predictive run actually pre-warmed, billed it, and surfaced it.
  EXPECT_GT(predictive_run.prewarm_boots, 0u);
  EXPECT_GT(predictive_run.prewarm_cost, 0.0);
  EXPECT_TRUE(predictive_run.forecast_active);
  EXPECT_EQ(reactive_run.prewarm_boots, 0u);
  EXPECT_EQ(reactive_run.prewarm_cost, 0.0);
}

TEST(ProvisioningStepLoad, PrewarmingForecastersAreByteIdenticalAcrossJobs) {
  GoldenFleet g;
  const serverless::AutoscalePolicy forecasters[] = {
      serverless::AutoscalePolicy::windowed_max(12, 0.5),
      serverless::AutoscalePolicy::ewma(0.5, 1, 0.5),
  };
  std::vector<MultiStreamCell> cells;
  for (const auto& policy : forecasters) {
    MultiStreamConfig config = step_load_config(g);
    config.platform.autoscale = policy;
    config.platform.autoscale.prewarm = true;
    cells.push_back({g.fleet, std::move(config)});
  }
  // Two same-seed copies of the windowed-max cell race each other too.
  cells.push_back(cells.front());
  const auto profile = profile_estimator(cells.front().config);
  for (MultiStreamCell& cell : cells) cell.config.profiled_estimator = profile;

  const auto serial = run_multistream_cells(cells, 1);
  const auto parallel = run_multistream_cells(cells, 8);
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string json = deterministic_json(serial[i].result);
    EXPECT_NE(json.find("\"forecast\""), std::string::npos) << i;
    EXPECT_GT(serial[i].result.prewarm_boots, 0u) << i;
    EXPECT_EQ(deterministic_json(parallel[i].result), json) << i;
  }
  EXPECT_EQ(deterministic_json(serial.back().result),
            deterministic_json(serial.front().result));
}

// --- suite 2: billing + aggregation audits -----------------------------------

// Drive the platform directly so every InvocationRecord is visible: pre-warm
// boots must be billed exactly once (attributed per pool, included in
// total_cost) and must never inflate cold_starts() / cold_start_setup().
TEST(ProvisioningBilling, PrewarmBilledOnceAndNeverCountedAsColdStart) {
  sim::Simulator sim;
  serverless::PlatformConfig pc;
  pc.max_instances = 6;
  // Short keepalive: instances cool between the two waves, so the policy
  // must actively re-warm them ahead of wave 2 (the trailing window spans
  // the inter-wave gap, so the forecast holds at the wave height).
  pc.keepalive_s = 2.0;
  pc.autoscale = serverless::AutoscalePolicy::windowed_max(40, 0.25);
  pc.autoscale.prewarm = true;
  serverless::FunctionPlatform platform(sim, pc);

  std::vector<serverless::InvocationRecord> records;
  serverless::RequestSpec spec;
  spec.num_canvases = 1;
  // Two waves of 4 concurrent requests, far enough apart that the EWMA has
  // settled on the wave height and pre-warms ahead of the second one.
  for (const double wave_start : {0.0, 10.0}) {
    for (int i = 0; i < 4; ++i)
      sim.schedule_at(wave_start + 0.01 * i, [&, spec] {
        platform.invoke(spec, [&records](
                                  const serverless::InvocationRecord& r) {
          records.push_back(r);
        });
      });
  }
  sim.run();

  ASSERT_EQ(records.size(), 8u);
  std::uint64_t record_cold_starts = 0;
  double record_cost = 0.0;
  for (const auto& r : records) {
    if (r.cold_start) ++record_cold_starts;
    record_cost += r.cost;
  }
  // No double counting: cold_starts() is exactly the per-record tally —
  // pre-warm boots appear in prewarm_boots() instead.
  EXPECT_EQ(platform.cold_starts(), record_cold_starts);
  EXPECT_EQ(platform.cold_start_setup().count(),
            static_cast<std::size_t>(record_cold_starts));
  EXPECT_GT(platform.prewarm_boots(), 0u);
  // Billed exactly once: invocation costs + pre-warm setup cost add up to
  // the platform bill.
  EXPECT_NEAR(platform.total_cost(), record_cost + platform.prewarm_cost(),
              1e-12);
  const double expected_boot_cost =
      pc.cold_start_s *
      serverless::resource_rate(pc.resources, pc.pricing) *
      static_cast<double>(platform.prewarm_boots());
  EXPECT_NEAR(platform.prewarm_cost(), expected_boot_cost, 1e-12);
  // Pre-warming made the second wave warm: fewer cold starts than requests.
  EXPECT_LT(record_cold_starts, records.size());
}

// Per-pool forecast headroom pads only the configured pool's actuated
// limit; a pool without an override inherits the policy default (0 here),
// so its limit sits exactly at the point forecast.
TEST(ProvisioningHeadroom, PadsOnlyTheConfiguredPool) {
  sim::Simulator sim;
  serverless::PlatformConfig pc;
  pc.max_instances = 8;
  pc.autoscale = serverless::AutoscalePolicy::windowed_max(40, 0.25);
  serverless::CapacityPoolConfig padded;
  padded.name = "padded";
  padded.burst_limit = 8;
  padded.forecast_headroom = 3;
  pc.pools.push_back(padded);
  pc.pools.push_back({"exact", 0, 8});
  serverless::FunctionPlatform platform(sim, pc);

  serverless::RequestSpec spec;
  spec.num_canvases = 1;
  // One request per pool: both pools' peak demand is 1, so the trailing-max
  // forecast settles at 1 for each and only the headroom differs.
  sim.schedule_at(0.0, [&] { platform.invoke(spec, "padded", nullptr); });
  sim.schedule_at(0.0, [&] { platform.invoke(spec, "exact", nullptr); });
  sim.run();

  const auto pools = platform.pool_telemetry();
  ASSERT_EQ(pools.size(), 3u);
  for (const auto& pool : pools) {
    if (pool.name == "padded") {
      EXPECT_EQ(pool.limit, 1 + 3);  // ceil(forecast) + forecast_headroom
    } else if (pool.name == "exact") {
      EXPECT_EQ(pool.limit, 1);  // ceil(forecast) + inherited default 0
    }
  }
}

// Aggregation audit: autoscale series and pre-warm counters must be summed
// across EVERY pool — a pool-0-only roll-up shows up immediately here
// because pool 0 (default) sees no traffic at all.
TEST(ProvisioningAggregation, RollupsSumAcrossAllPools) {
  sim::Simulator sim;
  serverless::PlatformConfig pc;
  pc.max_instances = 8;
  pc.keepalive_s = 1.5;
  pc.pools.push_back({"tight", 2, 4});
  pc.pools.push_back({"loose", 0, 6});
  pc.autoscale = serverless::AutoscalePolicy::windowed_max(40, 0.25);
  pc.autoscale.prewarm = true;
  serverless::FunctionPlatform platform(sim, pc);

  serverless::RequestSpec spec;
  spec.num_canvases = 1;
  for (const double wave_start : {0.0, 8.0}) {
    for (int i = 0; i < 3; ++i) {
      sim.schedule_at(wave_start + 0.01 * i, [&, spec] {
        platform.invoke(spec, "tight", nullptr);
      });
      sim.schedule_at(wave_start + 0.02 * i, [&, spec] {
        platform.invoke(spec, "loose", nullptr);
      });
    }
  }
  sim.run();

  const auto pools = platform.pool_telemetry();
  ASSERT_EQ(pools.size(), 3u);
  std::uint64_t boots = 0;
  double cost = 0.0;
  std::size_t ticks = 0;
  bool non_default_pool_prewarmed = false;
  for (std::size_t i = 0; i < pools.size(); ++i) {
    boots += pools[i].prewarm_boots;
    cost += pools[i].prewarm_cost;
    ticks += pools[i].series.size();
    if (i > 0 && pools[i].prewarm_boots > 0) non_default_pool_prewarmed = true;
    // Every pool is sampled on every tick: series lengths match pool 0's.
    EXPECT_EQ(pools[i].series.size(), pools[0].series.size()) << i;
    EXPECT_EQ(pools[i].demand_history.size(), pools[i].series.size()) << i;
  }
  // The traffic ran on pools 1 and 2, so a pool-0-only roll-up would be 0.
  EXPECT_TRUE(non_default_pool_prewarmed);
  EXPECT_EQ(pools[0].prewarm_boots, 0u);
  EXPECT_EQ(platform.prewarm_boots(), boots);
  EXPECT_DOUBLE_EQ(platform.prewarm_cost(), cost);
  EXPECT_GT(ticks, 0u);
}

// Harness-level roll-up: MultiStreamResult sums the same way (shards map to
// tight/loose pools, neither of which is pool 0).
TEST(ProvisioningAggregation, HarnessRollupMatchesPerPoolSums) {
  GoldenFleet g;
  MultiStreamConfig config = step_load_config(g);
  config.platform.autoscale =
      serverless::AutoscalePolicy::windowed_max(12, 0.5);
  config.platform.autoscale.prewarm = true;
  const auto run = run_multistream(g.fleet, config);

  std::uint64_t boots = 0, samples = 0;
  double cost = 0.0;
  for (const auto& pool : run.pools) {
    boots += pool.prewarm_boots;
    cost += pool.prewarm_cost;
    samples += pool.series.size();
  }
  EXPECT_EQ(run.prewarm_boots, boots);
  EXPECT_DOUBLE_EQ(run.prewarm_cost, cost);
  EXPECT_EQ(run.autoscale_samples, samples);
  EXPECT_GT(run.autoscale_samples, 0u);
  // The fleet routes into tight + loose pools; the audit is only meaningful
  // if a non-default pool actually pre-warmed.
  ASSERT_EQ(run.pools.size(), 3u);
  EXPECT_GT(run.pools[1].prewarm_boots + run.pools[2].prewarm_boots, 0u);
}

}  // namespace
}  // namespace tangram::experiments
