#include "experiments/harness.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "experiments/parallel_runner.h"
#include "golden.h"

namespace tangram::experiments {
namespace {

class HarnessTest : public ::testing::Test {
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

  static EndToEndConfig quick_config() {
    EndToEndConfig c;
    c.bandwidth_mbps = 40.0;
    c.slo_s = 1.5;
    return c;
  }

  static std::size_t total_patches() {
    std::size_t n = 0;
    for (std::size_t i = 0; i < trace_->eval_frame_count(); ++i)
      n += trace_->eval_frame(i).patches.size();
    return n;
  }

  static SceneTrace* trace_;
};

SceneTrace* HarnessTest::trace_ = nullptr;

TEST_F(HarnessTest, TangramCompletesEveryPatch) {
  const auto result = run_end_to_end({trace_}, StrategyKind::kTangram,
                                     quick_config());
  EXPECT_EQ(result.patches_completed, total_patches());
  EXPECT_GT(result.total_cost, 0.0);
  EXPECT_GT(result.invocations, 0u);
  EXPECT_GT(result.canvas_efficiency.count(), 0u);
  EXPECT_LE(result.violation_rate(), 1.0);
}

TEST_F(HarnessTest, EveryPatchStrategyCompletesTheStream) {
  for (const auto kind : {StrategyKind::kElf, StrategyKind::kClipper,
                          StrategyKind::kMArk}) {
    const auto result = run_end_to_end({trace_}, kind, quick_config());
    EXPECT_EQ(result.patches_completed, total_patches())
        << to_string(kind);
    EXPECT_GT(result.total_cost, 0.0) << to_string(kind);
  }
}

TEST_F(HarnessTest, EndToEndRejectsPerFrameOnlyBaselines) {
  // Full/Masked Frame exist only in the Fig. 8-9 per-frame study.
  for (const auto kind :
       {StrategyKind::kFullFrame, StrategyKind::kMaskedFrame}) {
    EXPECT_THROW((void)run_end_to_end({trace_}, kind, quick_config()),
                 std::invalid_argument)
        << to_string(kind);
  }
}

TEST_F(HarnessTest, LatenciesAtLeastTransmissionBound) {
  const auto result =
      run_end_to_end({trace_}, StrategyKind::kTangram, quick_config());
  // Every end-to-end latency includes edge latency and some execution.
  EXPECT_GT(result.e2e_latency.stats().min(), quick_config().edge_latency_s);
}

TEST_F(HarnessTest, MultipleCamerasScaleBytes) {
  const auto one =
      run_end_to_end({trace_}, StrategyKind::kTangram, quick_config());
  const auto two = run_end_to_end({trace_, trace_}, StrategyKind::kTangram,
                                  quick_config());
  EXPECT_EQ(two.total_bytes, 2 * one.total_bytes);
  EXPECT_EQ(two.patches_completed, 2 * one.patches_completed);
}

TEST_F(HarnessTest, TighterSloRaisesCostOrViolations) {
  EndToEndConfig loose = quick_config();
  loose.slo_s = 2.0;
  EndToEndConfig tight = quick_config();
  tight.slo_s = 0.5;
  const auto l = run_end_to_end({trace_}, StrategyKind::kTangram, loose);
  const auto t = run_end_to_end({trace_}, StrategyKind::kTangram, tight);
  EXPECT_GE(t.total_cost + 1e-9, l.total_cost * 0.95);
  EXPECT_GE(t.invocations, l.invocations);
}

TEST_F(HarnessTest, RejectsEmptyCameraList) {
  EXPECT_THROW((void)run_end_to_end({}, StrategyKind::kTangram,
                                    quick_config()),
               std::invalid_argument);
}

TEST_F(HarnessTest, RunnersRejectNonPositiveOrNonFiniteSloClass) {
  // Unchecked, such a class makes every patch miss (<= 0) or none miss
  // (+inf); NaN makes none miss or stops the run midway.  Camera 1 of two
  // takes it from its per_stream_slo entry or, past the vector, from slo_s.
  const std::vector<const SceneTrace*> cameras(2, trace_);
  for (const double slo : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (const bool via_slo_s : {false, true}) {
      EndToEndConfig end_to_end = quick_config();
      MultiStreamConfig multistream;
      for (FleetConfig* config : std::vector<FleetConfig*>{&end_to_end,
                                                           &multistream}) {
        config->per_stream_slo = {1.0};
        if (via_slo_s) {
          config->slo_s = slo;
        } else {
          config->per_stream_slo.push_back(slo);
        }
      }
      for (const auto kind : {StrategyKind::kTangram, StrategyKind::kElf})
        EXPECT_THROW((void)run_end_to_end(cameras, kind, end_to_end),
                     std::invalid_argument)
            << to_string(kind) << " slo=" << slo << " via_slo_s=" << via_slo_s;
      EXPECT_THROW((void)run_multistream(cameras, multistream),
                   std::invalid_argument)
          << "slo=" << slo << " via_slo_s=" << via_slo_s;
    }
  }
}

TEST_F(HarnessTest, MultistreamRejectsNonFiniteScenarioInputs) {
  // Unchecked, a +inf drift class would meet every SLO, a NaN one or a NaN
  // drift_at_s would silently keep the base class, a +inf drift_at_s would
  // register per-patch streams that never drift, and a +inf start offset
  // would "complete" every patch at time inf.  Camera 1 of two takes the
  // value.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<const SceneTrace*> cameras(2, trace_);
  MultiStreamConfig base;
  base.slo_s = 1.0;
  struct Case {
    MultiStreamConfig config;
    const char* named;  // what the message must name
  };
  std::vector<Case> cases;
  for (const double drift_to : {kNaN, kInf, -kInf}) {
    MultiStreamConfig c = base;
    c.drift_at_s = 0.0;
    c.drift_to_slo = {0.5, drift_to};
    cases.push_back({c, "cam-1"});
  }
  for (const double drift_at : {kNaN, kInf}) {
    MultiStreamConfig c = base;
    c.drift_at_s = drift_at;
    c.drift_to_slo = {0.5, 0.5};
    cases.push_back({c, "drift_at_s"});
  }
  for (const double start : {kNaN, kInf, -kInf, -5.0}) {
    MultiStreamConfig c = base;
    c.per_stream_start_s = {0.0, start};
    cases.push_back({c, "cam-1"});
  }
  for (const Case& c : cases) {
    std::string message;
    try {
      (void)run_multistream(cameras, c.config);
    } catch (const std::invalid_argument& e) {
      message = e.what();
    }
    EXPECT_NE(message.find(c.named), std::string::npos)
        << "drift_at_s=" << c.config.drift_at_s << " message: " << message;
  }

  // Finite drift classes <= 0 keep the base class, and a negative
  // drift_at_s, -inf included, means no drift.
  MultiStreamConfig keep = base;
  keep.drift_at_s = 0.0;
  keep.drift_to_slo = {0.0, -1.0};
  const auto kept = run_multistream(cameras, keep);
  EXPECT_EQ(kept.patch_class_misses(1.0).first, 2 * total_patches());
  MultiStreamConfig off = base;
  off.drift_at_s = -kInf;
  off.drift_to_slo = {0.001, 0.001};
  const auto undrifted = run_multistream(cameras, off);
  EXPECT_FALSE(undrifted.per_patch_drift);
  EXPECT_EQ(undrifted.patch_class_misses(1.0).first, 2 * total_patches());
}

TEST_F(HarnessTest, PerFrameCostOrderingMatchesFig8) {
  EndToEndConfig config = quick_config();
  config.latency = serverless::alibaba_function_compute_params();
  const auto tangram = per_frame_cost(*trace_, StrategyKind::kTangram, config);
  const auto masked =
      per_frame_cost(*trace_, StrategyKind::kMaskedFrame, config);
  const auto full = per_frame_cost(*trace_, StrategyKind::kFullFrame, config);
  const auto elf = per_frame_cost(*trace_, StrategyKind::kElf, config);
  EXPECT_LT(tangram.total_cost, masked.total_cost);
  EXPECT_LT(masked.total_cost, full.total_cost);
  EXPECT_LT(full.total_cost, elf.total_cost);
  EXPECT_EQ(full.invocations, trace_->eval_frame_count());
  EXPECT_LT(tangram.total_bytes, full.total_bytes);  // Fig. 9
}

TEST_F(HarnessTest, PerFrameCostRejectsOnlineOnlyBaselines) {
  EXPECT_THROW(
      (void)per_frame_cost(*trace_, StrategyKind::kClipper, quick_config()),
      std::invalid_argument);
  EXPECT_THROW(
      (void)per_frame_cost(*trace_, StrategyKind::kMArk, quick_config()),
      std::invalid_argument);
}

TEST_F(HarnessTest, DedicatedUplinksReduceQueueing) {
  EndToEndConfig shared = quick_config();
  shared.bandwidth_mbps = 10.0;
  EndToEndConfig dedicated = shared;
  dedicated.dedicated_uplinks = true;
  const auto s =
      run_end_to_end({trace_, trace_}, StrategyKind::kTangram, shared);
  const auto d =
      run_end_to_end({trace_, trace_}, StrategyKind::kTangram, dedicated);
  EXPECT_EQ(s.patches_completed, d.patches_completed);
  // Two dedicated 10 Mbps links carry strictly more than one shared one.
  EXPECT_LE(d.e2e_latency.mean(), s.e2e_latency.mean() + 1e-9);
}

TEST_F(HarnessTest, PerCameraSloOverridesDefault) {
  EndToEndConfig config = quick_config();
  config.slo_s = 10.0;               // default very loose
  config.per_stream_slo = {0.001};   // camera 0 impossible to meet
  const auto result =
      run_end_to_end({trace_, trace_}, StrategyKind::kTangram, config);
  // Camera 0's patches all violate; camera 1's (default SLO) all pass.
  EXPECT_GT(result.violation_rate(), 0.35);
  EXPECT_LT(result.violation_rate(), 0.65);
}

// --- paper-figure path golden ------------------------------------------------

// Every field the Fig. 12-14 tables read, at full precision and sampler
// values included, so any change to a simulated number of that path is a
// byte difference.  The layout is the one the goldens were recorded with.
std::string serialize(const MultiStreamResult& r) {
  std::string out = to_string(StrategyKind::kTangram);
  const auto num = [&out](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.17g", v);
    out += buf;
  };
  const auto count = [&out](std::size_t v) { out += ' ' + std::to_string(v); };
  const auto sampler = [&](const common::Sampler& s) {
    count(s.count());
    num(s.mean());
    num(s.stddev());
    num(s.stats().min());
    num(s.stats().max());
    for (const double v : s.values()) num(v);
    out += ';';
  };
  num(r.total_cost);
  count(r.invocations);
  count(r.cold_starts);
  count(static_cast<std::size_t>(r.fleet_size));
  count(r.stragglers);
  count(r.retries);
  count(r.patches_completed);
  count(r.slo_violations);
  sampler(r.e2e_latency);
  sampler(r.exec_latency);
  sampler(r.canvas_efficiency);
  sampler(r.batch_canvases);
  sampler(r.batch_patches);
  count(r.total_bytes);
  num(r.transmission_busy_s);
  num(r.execution_busy_s);
  num(r.makespan_s);
  count(r.eval_frames);
  return out;
}

// The constants were recorded when run_end_to_end still wired its own
// estimator and invoker beside TangramSystem; driving the facade must not
// move a single simulated number.
TEST_F(HarnessTest, TangramEndToEndMatchesGolden) {
  struct Case {
    const char* name;
    std::size_t cameras;
    EndToEndConfig config;
    std::uint64_t golden;
  };
  std::vector<Case> cases;
  const auto add = [&](const char* name, std::size_t cameras,
                       std::uint64_t golden, auto tweak) {
    EndToEndConfig config = quick_config();
    tweak(config);
    cases.push_back({name, cameras, config, golden});
  };
  add("default", 1, 0xcf15e4b6aadf8fd9ull, [](EndToEndConfig&) {});
  add("shared_uplink", 3, 0x046b0652973c92a2ull,
      [](EndToEndConfig& c) { c.bandwidth_mbps = 10.0; });
  add("dedicated_uplinks", 3, 0xd5ad4c2126f7724cull, [](EndToEndConfig& c) {
    c.bandwidth_mbps = 10.0;
    c.dedicated_uplinks = true;
  });
  add("mixed_camera_slo", 3, 0x8531708915760703ull,
      [](EndToEndConfig& c) { c.per_stream_slo = {0.4, 2.0}; });
  add("tight_slo", 2, 0x5f0b762bbde533d4ull,
      [](EndToEndConfig& c) { c.slo_s = 0.5; });
  add("canvas_512_tiles", 2, 0xaa7264ab62a8b0bfull,
      [](EndToEndConfig& c) { c.canvas = {512, 512}; });
  add("faults", 2, 0x06f07b10d28b709aull, [](EndToEndConfig& c) {
    c.platform.faults.straggler_probability = 0.2;
    c.platform.faults.failure_probability = 0.1;
    c.platform.faults.cold_spike_probability = 0.2;
  });
  add("bssf", 2, 0x312df462834565fdull, [](EndToEndConfig& c) {
    c.heuristic = core::PackHeuristic::kGuillotineBssf;
  });
  add("shelf", 2, 0x85b3cda7abbdb77aull, [](EndToEndConfig& c) {
    c.heuristic = core::PackHeuristic::kShelfFirstFit;
  });
  add("one_per_canvas", 2, 0xa5a657418e5f1cebull, [](EndToEndConfig& c) {
    c.heuristic = core::PackHeuristic::kOnePerCanvas;
  });
  add("skyline", 2, 0x1754591270ee7897ull, [](EndToEndConfig& c) {
    c.heuristic = core::PackHeuristic::kSkylineBottomLeft;
  });
  // One canvas per patch fills batches past the 9 canvases that 6 GB of
  // VRAM admits, so lifting the bound changes batching.
  add("unconstrained_gpu", 2, 0x4612983086f8b1faull, [](EndToEndConfig& c) {
    c.heuristic = core::PackHeuristic::kOnePerCanvas;
    c.platform.canvas_gpu_gb = 0.0;
  });
  add("slack_sigma_1", 2, 0x5f3d50a35b0db5c9ull,
      [](EndToEndConfig& c) { c.slack_sigma = 1.0; });
  add("aligned_cameras_seed_11", 3, 0x1fdafa7c31458adbull,
      [](EndToEndConfig& c) {
        c.stagger_cameras = false;
        c.seed = 11;
      });

  for (const Case& c : cases) {
    const std::vector<const SceneTrace*> cameras(c.cameras, trace_);
    const MultiStreamResult result =
        run_end_to_end(cameras, StrategyKind::kTangram, c.config);
    // The cases exercise what they are named for.
    if (c.config.canvas.width < 1024) {
      EXPECT_GT(result.patches_completed, c.cameras * total_patches())
          << c.name;
    }
    if (c.config.platform.faults.enabled()) {
      EXPECT_GT(result.stragglers, 0u) << c.name;
      EXPECT_GT(result.retries, 0u) << c.name;
    }
    if (c.config.platform.canvas_gpu_gb == 0.0) {
      EXPECT_GT(result.batch_canvases.stats().max(), 9.0) << c.name;
    }
    const std::uint64_t hash = golden::fnv1a(serialize(result));
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(hash));
    EXPECT_EQ(hash, c.golden) << c.name << " hashes to " << hex;
  }
}

// --- multi-stream scenario --------------------------------------------------

TEST_F(HarnessTest, MultistreamCompletesEveryPatchWithPerStreamTelemetry) {
  MultiStreamConfig config;
  config.slo_s = 1.5;
  const auto result = run_multistream({trace_, trace_, trace_}, config);
  ASSERT_EQ(result.streams.size(), 3u);
  EXPECT_EQ(result.patches_sent, 3 * total_patches());
  EXPECT_EQ(result.patches_completed, result.patches_sent);
  for (const auto& stream : result.streams) {
    EXPECT_EQ(stream.patches_completed, total_patches()) << stream.name;
    EXPECT_GT(stream.queue_to_invoke.count(), 0u) << stream.name;
    EXPECT_GT(stream.e2e_latency.count(), 0u) << stream.name;
  }
  EXPECT_GT(result.total_cost, 0.0);
  EXPECT_GT(result.batches, 0u);
  EXPECT_EQ(result.pooled_queue_to_invoke().count(), result.patches_completed);
}

TEST_F(HarnessTest, MultistreamSharesBatchesAcrossStreams) {
  MultiStreamConfig config;
  config.slo_s = 1.5;
  const auto one = run_multistream({trace_}, config);
  const auto four = run_multistream({trace_, trace_, trace_, trace_}, config);
  // Cross-stream stitching amortizes invocations: 4 streams cost well under
  // 4x the single-stream invocation count.
  EXPECT_LT(static_cast<double>(four.invocations),
            3.0 * static_cast<double>(one.invocations));
  EXPECT_EQ(four.patches_completed, 4 * one.patches_completed);
}

TEST_F(HarnessTest, MultistreamPerStreamSloClasses) {
  MultiStreamConfig config;
  config.slo_s = 10.0;                  // default very loose
  config.per_stream_slo = {0.001, 10.0};  // stream 0 impossible to meet
  const auto result = run_multistream({trace_, trace_}, config);
  EXPECT_DOUBLE_EQ(result.streams[0].violation_rate(), 1.0);
  EXPECT_DOUBLE_EQ(result.streams[1].violation_rate(), 0.0);
}

TEST_F(HarnessTest, MultistreamRejectsEmptyCameraList) {
  EXPECT_THROW((void)run_multistream({}, MultiStreamConfig{}),
               std::invalid_argument);
}

TEST_F(HarnessTest, MultistreamExportsPoolAndColdStartTelemetry) {
  MultiStreamConfig config;
  config.slo_s = 1.5;
  const auto result = run_multistream({trace_, trace_}, config);
  ASSERT_GE(result.pools.size(), 1u);
  EXPECT_EQ(result.pools[0].name,
            serverless::FunctionPlatform::kDefaultPool);
  EXPECT_GT(result.cold_starts, 0u);
  EXPECT_EQ(result.cold_start_setup.count(), result.cold_starts);
  EXPECT_GT(result.fleet_size, 0);
  std::uint64_t dispatched = 0;
  for (const auto& pool : result.pools) dispatched += pool.dispatched;
  EXPECT_EQ(dispatched, result.invocations);
}

TEST_F(HarnessTest, MultistreamAutoscaleRecordsPerPoolSeries) {
  MultiStreamConfig config;
  config.slo_s = 1.5;
  config.platform.autoscale =
      serverless::AutoscalePolicy::queue_pressure(/*backlog_high=*/1,
                                                  /*interval_s=*/0.25,
                                                  /*initial_limit=*/1);
  const auto result = run_multistream({trace_, trace_}, config);
  EXPECT_EQ(result.patches_completed, 2 * total_patches());
  ASSERT_GE(result.pools.size(), 1u);
  EXPECT_FALSE(result.pools[0].series.empty());
}

TEST_F(HarnessTest, BothRunnersReportOneRunAlike) {
  // Tangram through run_end_to_end on dedicated uplinks is run_multistream
  // on one shard: the same run, reported field for field alike.
  EndToEndConfig end_to_end = quick_config();
  end_to_end.per_stream_slo = {0.4, 2.0};
  end_to_end.dedicated_uplinks = true;
  MultiStreamConfig multistream;
  static_cast<FleetConfig&>(multistream) = end_to_end;
  multistream.sharding = core::ShardPolicy::single();
  const std::vector<const SceneTrace*> cameras(3, trace_);
  const MultiStreamResult a =
      run_end_to_end(cameras, StrategyKind::kTangram, end_to_end);
  const MultiStreamResult b = run_multistream(cameras, multistream);
  EXPECT_EQ(deterministic_json(a), deterministic_json(b));
  EXPECT_EQ(a.streams.size(), 3u);
  EXPECT_EQ(a.shards, 1u);
  EXPECT_EQ(a.e2e_latency.values(), b.e2e_latency.values());
  EXPECT_EQ(a.exec_latency.values(), b.exec_latency.values());
  EXPECT_EQ(a.batch_patches.values(), b.batch_patches.values());
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.transmission_busy_s, b.transmission_busy_s);
  EXPECT_EQ(a.execution_busy_s, b.execution_busy_s);
  EXPECT_EQ(a.eval_frames, b.eval_frames);

  // A baseline has no scheduler: no streams, shards or batches.
  const MultiStreamResult elf =
      run_end_to_end(cameras, StrategyKind::kElf, end_to_end);
  EXPECT_EQ(elf.patches_sent, 3 * total_patches());
  EXPECT_EQ(elf.patches_completed, elf.patches_sent);
  EXPECT_EQ(elf.invocations, elf.patches_sent);  // one per patch
  EXPECT_TRUE(elf.streams.empty());
  EXPECT_EQ(elf.shards, 0u);
  EXPECT_EQ(elf.batches, 0u);
}

TEST_F(HarnessTest, RunShardedAddsReservedLegWhenPoolsAreWired) {
  MultiStreamConfig config;
  config.platform.max_instances = 4;
  config.per_stream_slo = {0.4, 2.0, 2.0, 2.0};
  const std::vector<const SceneTrace*> cameras(4, trace_);

  const auto plain = run_sharded(cameras, config);
  EXPECT_FALSE(plain.has_reserved);

  config.pool_for_shard = reserved_tight_pool_plan(
      /*tight_slo_threshold=*/0.5, /*tight_reserved=*/2,
      /*loose_burst_limit=*/2);
  const auto reserved = run_sharded(cameras, config);
  EXPECT_TRUE(reserved.has_reserved);
  // The single/sharded legs stay pool-free (PR-2-comparable baselines);
  // only the reserved leg carves tight/loose pools out of the fleet.
  EXPECT_EQ(reserved.single.pools.size(), 1u);
  EXPECT_EQ(reserved.sharded.pools.size(), 1u);
  EXPECT_EQ(reserved.sharded_reserved.pools.size(), 3u);
  // Identical workload, every leg completes it.
  EXPECT_EQ(reserved.sharded_reserved.patches_completed,
            reserved.single.patches_completed);
  // The tight class's guaranteed concurrency may not cost it misses
  // relative to the un-pooled sharded layout.
  const auto sharded_tight = reserved.sharded.class_completions_misses(0.4);
  const auto reserved_tight =
      reserved.sharded_reserved.class_completions_misses(0.4);
  EXPECT_EQ(reserved_tight.first, sharded_tight.first);
  EXPECT_LE(reserved_tight.second, sharded_tight.second);
}

// --- determinism -------------------------------------------------------------

// Every run owns all of its mutable state (simulator, Rngs, scheduler,
// platform, telemetry) and only reads its traces, so its deterministic_json()
// depends on its inputs alone, not on what the process ran before it.
class DeterminismTest : public HarnessTest {
 protected:
  // A mixed-SLO grid: stream counts x shard layouts, some configs with
  // bounded telemetry reservoirs and a capacity plan.  Each config runs one
  // camera per entry of its per_stream_slo.
  static std::vector<MultiStreamConfig> mixed_grid() {
    std::vector<MultiStreamConfig> grid;
    for (const std::size_t n : {2u, 4u, 8u}) {
      for (const int layout : {0, 1, 2}) {
        MultiStreamConfig& config = grid.emplace_back();
        for (std::size_t i = 0; i < n; ++i)
          config.per_stream_slo.push_back(i % 3 == 0 ? 0.25 : 2.0);
        if (layout == 0) {
          config.sharding = core::ShardPolicy::single();
        } else if (layout == 1) {
          config.sharding = core::ShardPolicy::per_slo_class();
          config.pool_for_shard = reserved_tight_pool_plan(0.5, 2, 6);
          config.platform.max_instances = 8;
        } else {
          config.sharding = core::ShardPolicy::hashed(2);
          config.telemetry_reservoir = 64;
        }
      }
    }
    return grid;
  }

  static std::string json_of(const MultiStreamConfig& config) {
    const std::vector<const SceneTrace*> cameras(config.per_stream_slo.size(),
                                                 trace_);
    return deterministic_json(run_multistream(cameras, config));
  }
};

TEST_F(DeterminismTest, SharedProfilingMatchesPerCellProfiling) {
  const auto grid = mixed_grid();
  const auto profile = profile_estimator(grid.front());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    MultiStreamConfig shared = grid[i];
    shared.profiled_estimator = profile;
    EXPECT_EQ(json_of(grid[i]), json_of(shared)) << "cell " << i;
  }
}

TEST_F(DeterminismTest, SameSeedRunsRepeatInOneProcess) {
  // A run leaves nothing behind that the next one reads: no static or
  // global state anywhere in the sim / RNG / scheduler stack.
  MultiStreamConfig config;
  config.per_stream_slo = {0.25, 2.0, 2.0, 0.25};
  const std::string first = json_of(config);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(json_of(config), first);
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

TEST(PeakRss, ProbeReportsPositiveHighWaterMark) {
  // /proc/self/status is always present on Linux; VmHWM of a running
  // process is strictly positive.
  EXPECT_GT(peak_rss_kb(), 0);
}

TEST(HarnessNames, StrategyNamesAreStable) {
  EXPECT_EQ(to_string(StrategyKind::kTangram), "Tangram");
  EXPECT_EQ(to_string(StrategyKind::kFullFrame), "FullFrame");
  EXPECT_EQ(to_string(StrategyKind::kMaskedFrame), "MaskedFrame");
  EXPECT_EQ(to_string(StrategyKind::kElf), "ELF");
  EXPECT_EQ(to_string(StrategyKind::kClipper), "Clipper");
  EXPECT_EQ(to_string(StrategyKind::kMArk), "MArk");
}

}  // namespace
}  // namespace tangram::experiments
