#include "core/system.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

namespace tangram::core {
namespace {

TangramSystem::Config quiet_config() {
  TangramSystem::Config c;
  c.function_latency.jitter_sigma = 0.0;
  c.platform.cold_start_s = 0.0;
  c.estimator.iterations = 100;
  c.seed = 99;
  return c;
}

Patch make_patch(std::uint64_t id, common::Size size, double generation,
                 double slo = 1.0) {
  Patch p;
  p.id = id;
  p.region = {0, 0, size.width, size.height};
  p.generation_time = generation;
  p.slo = slo;
  return p;
}

TEST(TangramSystem, PatchesFlowThroughToResults) {
  sim::Simulator sim;
  std::vector<std::uint64_t> completed;
  TangramSystem system(sim, quiet_config(),
                       [&](const Patch& p, const serverless::InvocationRecord&) {
                         completed.push_back(p.id);
                       });
  const StreamId stream = system.register_stream();
  sim.schedule_at(0.0, [&] {
    for (std::uint64_t i = 1; i <= 4; ++i)
      system.receive_patch(stream, make_patch(i, {300, 300}, 0.0));
  });
  sim.run();
  EXPECT_EQ(completed.size(), 4u);
  EXPECT_EQ(system.platform().invocations(), 1u);  // one stitched batch
  EXPECT_GT(system.total_cost(), 0.0);
}

TEST(TangramSystem, MeetsSloOnSteadyStream) {
  sim::Simulator sim;
  std::size_t violations = 0, completed = 0;
  TangramSystem system(sim, quiet_config(),
                       [&](const Patch& p, const serverless::InvocationRecord& r) {
                         ++completed;
                         if (r.finish_time > p.deadline()) ++violations;
                       });
  const StreamId stream = system.register_stream();
  for (int frame = 0; frame < 20; ++frame) {
    for (int k = 0; k < 5; ++k) {
      const double t = frame * 0.5 + k * 0.01;
      sim.schedule_at(t, [&system, stream, t] {
        system.receive_patch(
            stream,
            make_patch(static_cast<std::uint64_t>(t * 1000), {250, 350}, t));
      });
    }
  }
  sim.run();
  system.flush();
  sim.run();
  EXPECT_EQ(completed, 100u);
  EXPECT_EQ(violations, 0u);
}

TEST(TangramSystem, OversizedPatchTiledTransparently) {
  sim::Simulator sim;
  std::size_t completed = 0;
  TangramSystem system(sim, quiet_config(),
                       [&](const Patch&, const serverless::InvocationRecord&) {
                         ++completed;
                       });
  const StreamId stream = system.register_stream();
  Patch big = make_patch(1, {1, 1}, 0.0);
  big.region = {100, 100, 2500, 600};
  sim.schedule_at(0.0, [&] { system.receive_patch(stream, big); });
  sim.run();
  system.flush();
  sim.run();
  EXPECT_EQ(completed, 3u);  // three 1024-wide tiles
}

TEST(TangramSystem, SwappingTheFunctionChangesTiming) {
  // The Section-IV claim: replacing the model is a Config change; the
  // estimator re-profiles and the invoker adapts.
  sim::Simulator sim_a, sim_b;
  TangramSystem::Config fast = quiet_config();
  TangramSystem::Config slow = quiet_config();
  slow.function_latency.per_canvas_s = 0.3;

  TangramSystem a(sim_a, fast, nullptr);
  TangramSystem b(sim_b, slow, nullptr);
  EXPECT_GT(b.estimator().slack(4), a.estimator().slack(4));
}

// --- multi-stream facade ----------------------------------------------------

TEST(TangramSystem, StreamsBatchTogetherOnSharedInvoker) {
  sim::Simulator sim;
  TangramSystem system(sim, quiet_config(), nullptr);
  const StreamId a = system.register_stream({"north-gate", 0.0});
  const StreamId b = system.register_stream({"south-gate", 0.0});
  ASSERT_EQ(a, 0);
  ASSERT_EQ(b, 1);
  sim.schedule_at(0.0, [&] {
    for (std::uint64_t i = 1; i <= 3; ++i) {
      system.receive_patch(a, make_patch(i, {300, 300}, 0.0));
      system.receive_patch(b, make_patch(10 + i, {300, 300}, 0.0));
    }
  });
  sim.run();
  // Cross-stream stitching: all six patches leave as ONE invocation.
  EXPECT_EQ(system.platform().invocations(), 1u);
  EXPECT_EQ(system.stream_stats(a).patches_completed, 3u);
  EXPECT_EQ(system.stream_stats(b).patches_completed, 3u);
  EXPECT_EQ(system.stream_stats(a).name, "north-gate");
  EXPECT_GT(system.stream_stats(a).queue_to_invoke.count(), 0u);
  EXPECT_GT(system.stream_stats(a).e2e_latency.count(), 0u);
}

TEST(TangramSystem, StreamSloClassOverridesPatchSlo) {
  sim::Simulator sim;
  std::vector<double> slos;
  TangramSystem system(sim, quiet_config(),
                       [&](const Patch& p, const serverless::InvocationRecord&) {
                         slos.push_back(p.slo);
                       });
  const StreamId strict = system.register_stream({"strict", 0.5});
  const StreamId loose = system.register_stream({"loose", 0.0});
  sim.schedule_at(0.0, [&] {
    system.receive_patch(strict, make_patch(1, {300, 300}, 0.0, /*slo=*/2.0));
    system.receive_patch(loose, make_patch(2, {300, 300}, 0.0, /*slo=*/2.0));
  });
  sim.run();
  ASSERT_EQ(slos.size(), 2u);
  // Stream "strict" rewrites the SLO class; "loose" keeps the patch's own.
  EXPECT_TRUE((slos[0] == 0.5 && slos[1] == 2.0) ||
              (slos[0] == 2.0 && slos[1] == 0.5));
}

TEST(TangramSystem, PerStreamViolationTelemetry) {
  sim::Simulator sim;
  TangramSystem::Config config = quiet_config();
  config.function_latency.overhead_s = 0.2;
  TangramSystem system(sim, config, nullptr);
  const StreamId hopeless = system.register_stream({"hopeless", 0.01});
  const StreamId relaxed = system.register_stream({"relaxed", 10.0});
  sim.schedule_at(0.0, [&] {
    system.receive_patch(hopeless, make_patch(1, {300, 300}, 0.0));
    system.receive_patch(relaxed, make_patch(2, {300, 300}, 0.0));
  });
  sim.run();
  system.flush();
  sim.run();
  EXPECT_EQ(system.stream_stats(hopeless).slo_violations, 1u);
  EXPECT_EQ(system.stream_stats(hopeless).patches_completed, 1u);
  EXPECT_DOUBLE_EQ(system.stream_stats(hopeless).violation_rate(), 1.0);
  EXPECT_EQ(system.stream_stats(relaxed).slo_violations, 0u);
}

TEST(TangramSystem, UnknownStreamIdThrows) {
  sim::Simulator sim;
  TangramSystem system(sim, quiet_config(), nullptr);
  EXPECT_THROW(system.receive_patch(StreamId{0}, make_patch(1, {300, 300}, 0.0)),
               std::out_of_range);
  (void)system.register_stream({});
  EXPECT_THROW(system.receive_patch(StreamId{5}, make_patch(1, {300, 300}, 0.0)),
               std::out_of_range);
}

TEST(TangramSystem, RejectsBadInputBeforeCountingIt) {
  // A stream SLO class must be finite; a patch needs an area, a finite
  // capture time and, on a per-patch-SLO stream, a positive finite SLO.  A
  // rejected call moves no counter or queue.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  sim::Simulator sim;
  TangramSystem system(sim, quiet_config(), nullptr);
  for (const double slo : {kNaN, kInf, -kInf})
    EXPECT_THROW((void)system.register_stream({"bad", slo}),
                 std::invalid_argument)
        << slo;
  EXPECT_TRUE(system.streams().empty());
  EXPECT_EQ(system.pool().shard_count(), 0u);

  const StreamId fixed = system.register_stream({"fixed", 1.0});
  const StreamId per_patch = system.register_stream({"per-patch", 0.0});
  system.receive_patch(fixed, make_patch(1, {300, 300}, 0.0));
  system.receive_patch(per_patch, make_patch(2, {300, 300}, 0.0, 5.0));
  ASSERT_EQ(system.pool().pending_patches(), 2u);

  std::vector<std::pair<StreamId, Patch>> rejected;
  for (const StreamId stream : {fixed, per_patch}) {
    rejected.emplace_back(stream, make_patch(3, {0, 300}, 0.0, 5.0));
    rejected.emplace_back(stream, make_patch(3, {300, 0}, 0.0, 5.0));
    for (const double generation : {kNaN, kInf, -kInf})
      rejected.emplace_back(stream,
                            make_patch(3, {300, 300}, generation, 5.0));
  }
  for (const double slo : {0.0, -1.0, kNaN, kInf})
    rejected.emplace_back(per_patch, make_patch(3, {300, 300}, 0.0, slo));
  for (const auto& [stream, patch] : rejected) {
    EXPECT_THROW(system.receive_patch(stream, patch), std::invalid_argument)
        << "stream " << stream << " region " << patch.region.width << "x"
        << patch.region.height << " generation " << patch.generation_time
        << " slo " << patch.slo;
    EXPECT_EQ(system.stream_stats(stream).patches_received, 1u);
    EXPECT_EQ(system.pool().pending_patches(), 2u);
  }

  sim.run();
  system.flush();
  sim.run();
  EXPECT_EQ(system.stream_stats(fixed).patches_completed, 1u);
  EXPECT_EQ(system.stream_stats(per_patch).patches_completed, 1u);
}

TEST(TangramSystem, UnschedulableGpuConfigThrowsAtConstruction) {
  // Model weights alone exceed the GPU: no batch can ever run, so the old
  // max(1, ...) clamp would only blow up mid-simulation inside invoke().
  sim::Simulator sim;
  TangramSystem::Config config = quiet_config();
  config.platform.model_gpu_gb = config.platform.resources.gpu_gb + 1.0;
  EXPECT_THROW(TangramSystem(sim, config, nullptr), std::invalid_argument);
}

TEST(TangramSystem, CanvasTooLargeForGpuThrowsAtConstruction) {
  // One 4096x4096 canvas needs 16x the calibrated VRAM (area-scaled):
  // 8 GB > the 4.5 GB left beside the model.
  sim::Simulator sim;
  TangramSystem::Config config = quiet_config();
  config.canvas = {4096, 4096};
  EXPECT_THROW(TangramSystem(sim, config, nullptr), std::invalid_argument);
}

TEST(TangramSystem, SplitPatchBytesSumExactlyToOriginal) {
  sim::Simulator sim;
  std::size_t bytes_seen = 0;
  std::size_t tiles_seen = 0;
  TangramSystem system(sim, quiet_config(),
                       [&](const Patch& p, const serverless::InvocationRecord&) {
                         bytes_seen += p.bytes;
                         ++tiles_seen;
                       });
  const StreamId stream = system.register_stream();
  Patch big = make_patch(1, {1, 1}, 0.0);
  big.region = {100, 100, 2500, 600};
  big.bytes = 100003;  // prime: indivisible by any tile count
  sim.schedule_at(0.0, [&] { system.receive_patch(stream, big); });
  sim.run();
  system.flush();
  sim.run();
  EXPECT_EQ(tiles_seen, 3u);
  EXPECT_EQ(bytes_seen, 100003u);  // the old bytes/tiles division lost 1
}

TEST(TangramSystem, OversizedPatchCountsTilesOnItsStream) {
  sim::Simulator sim;
  TangramSystem system(sim, quiet_config(), nullptr);
  const StreamId s = system.register_stream({"wide", 0.0});
  Patch big = make_patch(1, {1, 1}, 0.0);
  big.region = {100, 100, 2500, 600};
  sim.schedule_at(0.0, [&] { system.receive_patch(s, big); });
  sim.run();
  system.flush();
  sim.run();
  EXPECT_EQ(system.stream_stats(s).patches_received, 3u);
  EXPECT_EQ(system.stream_stats(s).patches_completed, 3u);
}

TEST(TangramSystem, FlushIsIdempotent) {
  sim::Simulator sim;
  std::size_t completed = 0;
  TangramSystem system(sim, quiet_config(),
                       [&](const Patch&, const serverless::InvocationRecord&) {
                         ++completed;
                       });
  system.receive_patch(system.register_stream(),
                       make_patch(1, {200, 200}, 0.0, 100.0));
  system.flush();
  system.flush();
  sim.run();
  EXPECT_EQ(completed, 1u);
  EXPECT_EQ(system.platform().invocations(), 1u);
}

}  // namespace
}  // namespace tangram::core
