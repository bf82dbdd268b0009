#include "baselines/strategies.h"

#include <gtest/gtest.h>

namespace tangram::baselines {
namespace {

serverless::PlatformConfig fast_platform() {
  serverless::PlatformConfig c;
  c.cold_start_s = 0.0;
  return c;
}

serverless::LatencyModelParams deterministic_latency() {
  serverless::LatencyModelParams p;
  p.jitter_sigma = 0.0;
  return p;
}

core::Patch make_patch(std::uint64_t id, double generation, double slo = 1.0,
                       common::Size size = {300, 300}) {
  core::Patch p;
  p.id = id;
  p.region = {0, 0, size.width, size.height};
  p.generation_time = generation;
  p.slo = slo;
  return p;
}

struct Completion {
  std::uint64_t patch_id;
  serverless::InvocationRecord record;
};

TEST(ElfStrategy, OneInvocationPerPatch) {
  sim::Simulator sim;
  serverless::FunctionPlatform platform(sim, fast_platform(),
                                        deterministic_latency());
  std::vector<Completion> done;
  ElfStrategy elf(platform, ElfOptions{},
                  [&](const core::Patch& p, const serverless::InvocationRecord& r) {
                    done.push_back({p.id, r});
                  });
  for (int i = 0; i < 5; ++i) elf.on_patch(make_patch(static_cast<std::uint64_t>(i), 0.0));
  sim.run();
  EXPECT_EQ(done.size(), 5u);
  EXPECT_EQ(platform.invocations(), 5u);
}

TEST(ClipperStrategy, ServesImmediatelyWhenIdle) {
  sim::Simulator sim;
  serverless::FunctionPlatform platform(sim, fast_platform(),
                                        deterministic_latency());
  int completions = 0;
  ClipperStrategy clipper(
      platform, ClipperOptions{},
      [&](const core::Patch&, const serverless::InvocationRecord&) {
        ++completions;
      });
  clipper.on_patch(make_patch(1, 0.0));
  sim.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(platform.invocations(), 1u);  // batch of one, served at once
}

TEST(ClipperStrategy, QueuedPatchesBatchWhileBusy) {
  sim::Simulator sim;
  serverless::FunctionPlatform platform(sim, fast_platform(),
                                        deterministic_latency());
  std::vector<int> batch_sizes;
  ClipperOptions options;
  options.initial_max_batch = 8;
  ClipperStrategy clipper(
      platform, options,
      [&](const core::Patch&, const serverless::InvocationRecord& r) {
        if (batch_sizes.empty() || batch_sizes.back() != r.spec.num_items)
          batch_sizes.push_back(r.spec.num_items);
      });
  // First patch dispatches alone; the next 4 arrive while it is in flight
  // and go out as one batch.
  sim.schedule_at(0.0, [&] { clipper.on_patch(make_patch(1, 0.0)); });
  for (int i = 0; i < 4; ++i)
    sim.schedule_at(0.001 + i * 0.001, [&clipper, i] {
      clipper.on_patch(make_patch(static_cast<std::uint64_t>(10 + i), 0.0));
    });
  sim.run();
  ASSERT_EQ(batch_sizes.size(), 2u);
  EXPECT_EQ(batch_sizes[0], 1);
  EXPECT_EQ(batch_sizes[1], 4);
}

TEST(ClipperStrategy, AimdDecreasesOnViolation) {
  sim::Simulator sim;
  serverless::PlatformConfig config = fast_platform();
  serverless::LatencyModelParams slow = deterministic_latency();
  slow.overhead_s = 2.0;  // every batch blows the SLO
  serverless::FunctionPlatform platform(sim, config, slow);
  ClipperOptions options;
  options.initial_max_batch = 8;
  ClipperStrategy clipper(platform, options, nullptr);
  const double before = clipper.current_max_batch();
  clipper.on_patch(make_patch(1, 0.0, /*slo=*/0.5));
  sim.run();
  EXPECT_LT(clipper.current_max_batch(), before);
}

TEST(ClipperStrategy, AimdIncreasesOnSuccess) {
  sim::Simulator sim;
  serverless::FunctionPlatform platform(sim, fast_platform(),
                                        deterministic_latency());
  ClipperOptions options;
  options.initial_max_batch = 4;
  ClipperStrategy clipper(platform, options, nullptr);
  const double before = clipper.current_max_batch();
  clipper.on_patch(make_patch(1, 0.0, /*slo=*/10.0));
  sim.run();
  EXPECT_GT(clipper.current_max_batch(), before);
}

TEST(MArkStrategy, DispatchesWhenBatchFull) {
  sim::Simulator sim;
  serverless::FunctionPlatform platform(sim, fast_platform(),
                                        deterministic_latency());
  MArkOptions options;
  options.batch_size = 3;
  options.timeout_s = 100.0;  // never fires in this test
  int completions = 0;
  MArkStrategy mark(sim, platform, options,
                    [&](const core::Patch&, const serverless::InvocationRecord&) {
                      ++completions;
                    });
  for (int i = 0; i < 3; ++i)
    mark.on_patch(make_patch(static_cast<std::uint64_t>(i), 0.0));
  sim.run();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(platform.invocations(), 1u);  // one batch of 3
}

TEST(MArkStrategy, TimeoutFlushesPartialBatch) {
  sim::Simulator sim;
  serverless::FunctionPlatform platform(sim, fast_platform(),
                                        deterministic_latency());
  MArkOptions options;
  options.batch_size = 8;
  options.timeout_s = 0.2;
  std::vector<double> finish_times;
  MArkStrategy mark(sim, platform, options,
                    [&](const core::Patch&, const serverless::InvocationRecord& r) {
                      finish_times.push_back(r.finish_time);
                    });
  sim.schedule_at(0.0, [&] { mark.on_patch(make_patch(1, 0.0)); });
  sim.run();
  ASSERT_EQ(finish_times.size(), 1u);
  EXPECT_GE(finish_times[0], 0.2);  // waited for the timeout, then served
  EXPECT_EQ(platform.invocations(), 1u);
}

TEST(MArkStrategy, FlushDrainsQueue) {
  sim::Simulator sim;
  serverless::FunctionPlatform platform(sim, fast_platform(),
                                        deterministic_latency());
  MArkOptions options;
  options.batch_size = 8;
  options.timeout_s = 100.0;
  MArkStrategy mark(sim, platform, options, nullptr);
  mark.on_patch(make_patch(1, 0.0));
  mark.on_patch(make_patch(2, 0.0));
  mark.flush();
  sim.run();
  EXPECT_EQ(platform.invocations(), 1u);
}

}  // namespace
}  // namespace tangram::baselines
