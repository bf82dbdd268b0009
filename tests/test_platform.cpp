#include "serverless/platform.h"

#include <gtest/gtest.h>

#include <limits>

#include "serverless/cost.h"

namespace tangram::serverless {
namespace {

PlatformConfig default_config() {
  PlatformConfig c;
  c.cold_start_s = 0.5;
  c.keepalive_s = 10.0;
  return c;
}

LatencyModelParams deterministic_latency() {
  LatencyModelParams p;
  p.jitter_sigma = 0.0;
  return p;
}

// --- cost model (Eqn. 1) ------------------------------------------------------

TEST(CostModel, MatchesHandComputedEqn1) {
  const ResourceConfig r{2.0, 4.0, 6.0};
  const Pricing p;
  // rate = 2*2.138e-5 + 4*2.138e-5 + 6*1.05e-4 = 1.2828e-4 + 6.3e-4
  EXPECT_NEAR(resource_rate(r, p), 7.5828e-4, 1e-9);
  // 1 second of execution + request fee.
  EXPECT_NEAR(invocation_cost(1.0, r, p), 7.5828e-4 + 2e-7, 1e-10);
  // Zero-duration invocation still pays the request fee.
  EXPECT_NEAR(invocation_cost(0.0, r, p), 2e-7, 1e-15);
}

TEST(CostModel, RejectsNegativeTime) {
  EXPECT_THROW((void)invocation_cost(-1.0, ResourceConfig{}),
               std::invalid_argument);
}

// --- platform ------------------------------------------------------------------

TEST(Platform, FirstInvocationPaysColdStart) {
  sim::Simulator sim;
  FunctionPlatform platform(sim, default_config(), deterministic_latency());
  InvocationRecord record;
  RequestSpec spec;
  spec.num_canvases = 1;
  platform.invoke(spec, [&](const InvocationRecord& r) { record = r; });
  sim.run();
  EXPECT_TRUE(record.cold_start);
  EXPECT_NEAR(record.start_time, 0.5, 1e-12);
  EXPECT_NEAR(record.finish_time, 0.5 + record.execution_s, 1e-12);
}

TEST(Platform, WarmInstanceReused) {
  sim::Simulator sim;
  FunctionPlatform platform(sim, default_config(), deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 1;
  std::vector<InvocationRecord> records;
  platform.invoke(spec, [&](const InvocationRecord& r) {
    records.push_back(r);
    // Second request right after the first finishes: warm path.
    if (records.size() == 1)
      platform.invoke(spec,
                      [&](const InvocationRecord& r2) { records.push_back(r2); });
  });
  sim.run();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].cold_start);
  EXPECT_FALSE(records[1].cold_start);
  EXPECT_EQ(records[1].instance_id, records[0].instance_id);
  EXPECT_EQ(platform.cold_starts(), 1u);
}

TEST(Platform, ConcurrentRequestsScaleOut) {
  sim::Simulator sim;
  FunctionPlatform platform(sim, default_config(), deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 1;
  int done = 0;
  for (int i = 0; i < 4; ++i)
    platform.invoke(spec, [&](const InvocationRecord&) { ++done; });
  sim.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(platform.cold_starts(), 4u);  // concurrency 1 per instance
}

TEST(Platform, KeepaliveExpiryCausesSecondColdStart) {
  sim::Simulator sim;
  PlatformConfig config = default_config();
  config.keepalive_s = 2.0;
  FunctionPlatform platform(sim, config, deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 1;
  std::vector<bool> cold;
  platform.invoke(spec,
                  [&](const InvocationRecord& r) { cold.push_back(r.cold_start); });
  sim.run();
  // Well past the keep-alive window.
  sim.schedule_at(sim.now() + 5.0, [&] {
    platform.invoke(spec, [&](const InvocationRecord& r) {
      cold.push_back(r.cold_start);
    });
  });
  sim.run();
  ASSERT_EQ(cold.size(), 2u);
  EXPECT_TRUE(cold[0]);
  EXPECT_TRUE(cold[1]);
  // The slot is reused, not grown — but re-provisioning it is a second cold
  // start and therefore a second execution environment.
  EXPECT_EQ(platform.fleet_size(), 1);
  EXPECT_EQ(platform.cold_starts(), 2u);
}

TEST(Platform, BacklogDrainsFifoWhenAtMaxInstances) {
  sim::Simulator sim;
  PlatformConfig config = default_config();
  config.max_instances = 1;
  FunctionPlatform platform(sim, config, deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 1;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i)
    platform.invoke(spec, [&order, i](const InvocationRecord&) {
      order.push_back(i);
    });
  EXPECT_EQ(platform.queued_requests(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(platform.cold_starts(), 1u);
}

TEST(Platform, BacklogDrainOrderPreservedAcrossMultipleInstances) {
  sim::Simulator sim;
  PlatformConfig config = default_config();
  config.max_instances = 2;
  FunctionPlatform platform(sim, config, deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 1;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i)
    platform.invoke(spec, [&order, i](const InvocationRecord&) {
      order.push_back(i);
    });
  EXPECT_EQ(platform.queued_requests(), 4u);
  sim.run();
  // Both instances free in lockstep (deterministic latency) and the backlog
  // must still drain strictly FIFO.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(platform.cold_starts(), 2u);
}

TEST(Platform, DrainedBacklogReusesWarmInstanceWithoutColdStart) {
  sim::Simulator sim;
  PlatformConfig config = default_config();
  config.max_instances = 1;
  config.keepalive_s = 30.0;
  FunctionPlatform platform(sim, config, deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 1;
  std::vector<InvocationRecord> records;
  for (int i = 0; i < 2; ++i)
    platform.invoke(spec,
                    [&](const InvocationRecord& r) { records.push_back(r); });
  sim.run();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].cold_start);
  EXPECT_FALSE(records[1].cold_start);  // drained onto the still-warm slot
  EXPECT_EQ(records[1].instance_id, records[0].instance_id);
  // The drained request started the moment the instance freed.
  EXPECT_NEAR(records[1].start_time, records[0].finish_time, 1e-12);
}

TEST(Platform, DrainedBacklogPaysColdStartOnCooledSlot) {
  sim::Simulator sim;
  PlatformConfig config = default_config();
  config.max_instances = 1;
  config.keepalive_s = 0.0;  // the slot cools the instant it frees
  FunctionPlatform platform(sim, config, deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 1;
  std::vector<InvocationRecord> records;
  for (int i = 0; i < 2; ++i)
    platform.invoke(spec,
                    [&](const InvocationRecord& r) { records.push_back(r); });
  sim.run();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].cold_start);
  EXPECT_TRUE(records[1].cold_start);  // cooled slot, not a warm reuse
  EXPECT_EQ(records[1].instance_id, records[0].instance_id);
  EXPECT_EQ(platform.fleet_size(), 1);  // slot reused, fleet not grown
  // The cooled-slot cold start boots a second environment: the historical
  // instances_.size() accounting reported 1 here and undercounted.
  EXPECT_EQ(platform.cold_starts(), 2u);
  EXPECT_NEAR(records[1].start_time,
              records[0].finish_time + config.cold_start_s, 1e-12);
}

TEST(Platform, SameTimestampArrivalCannotJumpTheBacklog) {
  // Regression for the FIFO queue-jump: an arrival at the exact simulated
  // timestamp of a completion, sequenced BEFORE the completion's drain
  // callback, used to see the freed instance via has_capacity() and start
  // ahead of requests that had been waiting in the backlog.
  //
  // Learn the deterministic finish time of the first invocation first.
  const double first_finish = [] {
    sim::Simulator probe_sim;
    FunctionPlatform probe(probe_sim, default_config(),
                           deterministic_latency());
    RequestSpec spec;
    spec.num_canvases = 1;
    double finish = 0.0;
    probe.invoke(spec, [&](const InvocationRecord& r) {
      finish = r.finish_time;
    });
    probe_sim.run();
    return finish;
  }();

  sim::Simulator sim;
  PlatformConfig config = default_config();
  config.max_instances = 1;
  FunctionPlatform platform(sim, config, deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 1;
  std::vector<int> order;
  // Scheduled before any invoke, so at first_finish this event fires ahead
  // of request 0's completion event (smaller sequence number) — the racing
  // arrival the backlog must not let through.
  sim.schedule_at(first_finish, [&] {
    platform.invoke(spec, [&](const InvocationRecord&) {
      order.push_back(3);
    });
  });
  sim.schedule_at(0.0, [&] {
    for (int i = 0; i < 3; ++i)
      platform.invoke(spec, [&order, i](const InvocationRecord&) {
        order.push_back(i);
      });
  });
  sim.run();
  // Strict FIFO: the racing arrival (3) must finish after the two requests
  // that were already backlogged when it arrived.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Platform, ColdStartTelemetryExposesSetupSeconds) {
  sim::Simulator sim;
  PlatformConfig config = default_config();
  config.keepalive_s = 2.0;
  FunctionPlatform platform(sim, config, deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 1;
  std::vector<InvocationRecord> records;
  platform.invoke(spec,
                  [&](const InvocationRecord& r) { records.push_back(r); });
  sim.run();
  sim.schedule_at(sim.now() + 5.0, [&] {  // past keep-alive: second cold start
    platform.invoke(spec,
                    [&](const InvocationRecord& r) { records.push_back(r); });
  });
  sim.run();
  ASSERT_EQ(records.size(), 2u);
  // Setup seconds are visible per record and in the platform sampler; they
  // delay start_time but are never billed as execution_s.
  EXPECT_NEAR(records[0].setup_s, config.cold_start_s, 1e-12);
  EXPECT_NEAR(records[1].setup_s, config.cold_start_s, 1e-12);
  EXPECT_NEAR(records[0].start_time - records[0].submit_time,
              config.cold_start_s, 1e-12);
  EXPECT_EQ(platform.cold_starts(), 2u);
  EXPECT_EQ(platform.cold_start_setup().count(), 2u);
  EXPECT_NEAR(platform.cold_start_setup().stats().sum(),
              2.0 * config.cold_start_s, 1e-12);
  EXPECT_NEAR(platform.busy_seconds(),
              records[0].execution_s + records[1].execution_s, 1e-12);
}

TEST(Platform, ColdSpikeInflatesSetupNotBilledExecution) {
  sim::Simulator sim;
  PlatformConfig config = default_config();
  config.faults.cold_spike_probability = 1.0;  // every cold start spikes
  config.faults.cold_spike_factor = 5.0;
  FunctionPlatform platform(sim, config, deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 1;
  InvocationRecord record;
  platform.invoke(spec, [&](const InvocationRecord& r) { record = r; });
  sim.run();
  EXPECT_NEAR(record.setup_s, 5.0 * config.cold_start_s, 1e-12);
  EXPECT_NEAR(record.start_time, record.setup_s, 1e-12);
  EXPECT_NEAR(platform.cold_start_setup().stats().sum(), record.setup_s,
              1e-12);
  // Billing excludes the spiked setup entirely.
  EXPECT_NEAR(record.cost,
              invocation_cost(record.execution_s, config.resources,
                              config.pricing),
              1e-15);
}

TEST(Platform, CostAccumulatesPerEqn1) {
  sim::Simulator sim;
  FunctionPlatform platform(sim, default_config(), deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 2;
  double exec = 0;
  platform.invoke(spec, [&](const InvocationRecord& r) { exec = r.execution_s; });
  sim.run();
  EXPECT_NEAR(platform.total_cost(),
              invocation_cost(exec, default_config().resources), 1e-12);
  EXPECT_EQ(platform.invocations(), 1u);
  EXPECT_NEAR(platform.busy_seconds(), exec, 1e-12);
}

TEST(Platform, GpuMemoryConstraintEnforced) {
  sim::Simulator sim;
  FunctionPlatform platform(sim, default_config(), deterministic_latency());
  // 6 GB VRAM - 1.5 GB model = 4.5 GB / 0.5 GB per 1024-canvas = 9.
  EXPECT_EQ(platform.max_canvases_per_batch({1024, 1024}), 9);
  // Smaller canvases use proportionally less memory.
  EXPECT_EQ(platform.max_canvases_per_batch({512, 512}), 36);
  RequestSpec too_big;
  too_big.num_canvases = 10;
  EXPECT_THROW(platform.invoke(too_big, nullptr), std::invalid_argument);
}

TEST(Platform, ZeroPerCanvasMemoryMeansUnconstrainedBatches) {
  sim::Simulator sim;
  PlatformConfig config = default_config();
  config.canvas_gpu_gb = 0.0;  // canvases cost no VRAM: no division by zero
  FunctionPlatform platform(sim, config, deterministic_latency());
  EXPECT_EQ(platform.max_canvases_per_batch({1024, 1024}),
            std::numeric_limits<int>::max());
  RequestSpec big;
  big.num_canvases = 100000;
  EXPECT_NO_THROW(platform.invoke(big, nullptr));
}

TEST(Platform, ModelLargerThanGpuAdmitsNoBatch) {
  sim::Simulator sim;
  PlatformConfig config = default_config();
  config.model_gpu_gb = config.resources.gpu_gb + 1.0;
  FunctionPlatform platform(sim, config, deterministic_latency());
  EXPECT_EQ(platform.max_canvases_per_batch({1024, 1024}), 0);
}

TEST(Platform, RejectsEmptyRequest) {
  sim::Simulator sim;
  FunctionPlatform platform(sim, default_config(), deterministic_latency());
  EXPECT_THROW(platform.invoke(RequestSpec{}, nullptr), std::invalid_argument);
}

TEST(Platform, ImageRequestsUseImagePath) {
  sim::Simulator sim;
  FunctionPlatform platform(sim, default_config(), deterministic_latency());
  RequestSpec small, large;
  small.image_megapixels = 0.2;
  large.image_megapixels = 8.3;
  double t_small = 0, t_large = 0;
  platform.invoke(small, [&](const InvocationRecord& r) { t_small = r.execution_s; });
  platform.invoke(large, [&](const InvocationRecord& r) { t_large = r.execution_s; });
  sim.run();
  EXPECT_GT(t_large, t_small);
}

TEST(Platform, ExecutionLatencyTelemetry) {
  sim::Simulator sim;
  FunctionPlatform platform(sim, default_config(), deterministic_latency());
  RequestSpec spec;
  spec.num_canvases = 1;
  for (int i = 0; i < 5; ++i) platform.invoke(spec, nullptr);
  sim.run();
  EXPECT_EQ(platform.execution_latency().count(), 5u);
}

}  // namespace
}  // namespace tangram::serverless
