#include "core/invoker.h"

#include <gtest/gtest.h>

#include <vector>

namespace tangram::core {
namespace {

// Deterministic latency model (no jitter) so Tslack values are exact.
serverless::InferenceLatencyModel deterministic_model() {
  serverless::LatencyModelParams params;
  params.jitter_sigma = 0.0;
  params.overhead_s = 0.1;
  params.per_canvas_s = 0.1;
  params.batch_alpha = 1.0;
  return serverless::InferenceLatencyModel(params, common::Rng(1, 1));
}

struct Fixture {
  sim::Simulator sim;
  serverless::InferenceLatencyModel model = deterministic_model();
  LatencyEstimator estimator;
  std::vector<Batch> invoked;
  std::unique_ptr<SloAwareInvoker> invoker;

  explicit Fixture(int max_canvases = 9)
      : estimator(model, {1024, 1024},
                  [] {
                    LatencyEstimator::Config c;
                    c.max_profiled_batch = 10;
                    c.iterations = 50;
                    return c;
                  }()) {
    InvokerConfig config;
    config.max_canvases = max_canvases;
    invoker = std::make_unique<SloAwareInvoker>(
        sim, PackHeuristic::kGuillotineBssf, estimator, config,
        [this](Batch&& b) { invoked.push_back(std::move(b)); });
  }

  Patch make_patch(std::uint64_t id, common::Size size, double generation,
                   double slo) const {
    Patch p;
    p.id = id;
    p.region = {0, 0, size.width, size.height};
    p.generation_time = generation;
    p.slo = slo;
    return p;
  }
};

// Tslack(B) with the deterministic model is exactly 0.1 + 0.1 * B.

TEST(Invoker, SinglePatchInvokedAtRemainingTime) {
  Fixture f;
  // Deadline 1.0; slack(1 canvas) = 0.2 -> invoke at t = 0.8.
  f.sim.schedule_at(0.0, [&] {
    f.invoker->on_patch(f.make_patch(1, {300, 300}, 0.0, 1.0));
  });
  f.sim.run();
  ASSERT_EQ(f.invoked.size(), 1u);
  EXPECT_NEAR(f.invoked[0].invoke_time, 0.8, 1e-9);
  EXPECT_EQ(f.invoked[0].total_patches, 1);
  EXPECT_EQ(f.invoked[0].canvas_count(), 1);
}

TEST(Invoker, PatchesBatchTogetherUntilDeadline) {
  Fixture f;
  for (int i = 0; i < 4; ++i) {
    f.sim.schedule_at(0.05 * i, [&f, i] {
      f.invoker->on_patch(
          f.make_patch(static_cast<std::uint64_t>(i), {400, 400},
                       0.05 * i, 1.0));
    });
  }
  f.sim.run();
  ASSERT_EQ(f.invoked.size(), 1u);
  EXPECT_EQ(f.invoked[0].total_patches, 4);
  // Earliest deadline is patch 0's (t=1.0); batch fits one canvas? 4x400^2
  // = 0.61 of a canvas by area, but 400x400 tiles: 2x2 fit in 1024. Either
  // way the batch respects the earliest deadline minus its slack.
  const double slack = 0.1 + 0.1 * f.invoked[0].canvas_count();
  EXPECT_NEAR(f.invoked[0].invoke_time, 1.0 - slack, 1e-9);
}

TEST(Invoker, TimerReArmsAsBatchGrows) {
  Fixture f;
  // Patch A alone -> invoke at 0.8.  Patch B (same deadline) makes the
  // packing 2 canvases -> slack 0.3 -> invoke at 0.7 instead.
  f.sim.schedule_at(0.0, [&] {
    f.invoker->on_patch(f.make_patch(1, {800, 800}, 0.0, 1.0));
  });
  f.sim.schedule_at(0.1, [&] {
    f.invoker->on_patch(f.make_patch(2, {800, 800}, 0.0, 1.0));
  });
  f.sim.run();
  ASSERT_EQ(f.invoked.size(), 1u);
  EXPECT_EQ(f.invoked[0].canvas_count(), 2);
  EXPECT_NEAR(f.invoked[0].invoke_time, 0.7, 1e-9);
}

TEST(Invoker, MemoryOverflowFlushesOldCanvases) {
  Fixture f(/*max_canvases=*/2);
  // Three 800x800 patches need three canvases -> exceeding max 2 forces the
  // first two out as soon as the third arrives.
  for (int i = 0; i < 3; ++i) {
    f.sim.schedule_at(0.1 * i, [&f, i] {
      f.invoker->on_patch(f.make_patch(static_cast<std::uint64_t>(i),
                                       {800, 800}, 0.1 * i, 2.0));
    });
  }
  f.sim.run();
  ASSERT_EQ(f.invoked.size(), 2u);
  EXPECT_EQ(f.invoked[0].total_patches, 2);
  EXPECT_NEAR(f.invoked[0].invoke_time, 0.2, 1e-9);  // at third arrival
  EXPECT_EQ(f.invoked[1].total_patches, 1);
  EXPECT_EQ(f.invoker->stats().forced_flushes, 1u);
}

TEST(Invoker, SloPressureFlushesOldBatch) {
  Fixture f;
  // Patch A: deadline 1.0, slack(1) = 0.2 -> must invoke by 0.8.
  // Patch B arrives at 0.75 with a huge size: packing becomes 2 canvases,
  // slack 0.3, t_remain = 0.7 < now -> A must go immediately; B restarts.
  f.sim.schedule_at(0.0, [&] {
    f.invoker->on_patch(f.make_patch(1, {900, 900}, 0.0, 1.0));
  });
  f.sim.schedule_at(0.75, [&] {
    f.invoker->on_patch(f.make_patch(2, {900, 900}, 0.75, 1.0));
  });
  f.sim.run();
  ASSERT_EQ(f.invoked.size(), 2u);
  EXPECT_EQ(f.invoked[0].total_patches, 1);
  EXPECT_NEAR(f.invoked[0].invoke_time, 0.75, 1e-9);  // forced at arrival
  EXPECT_EQ(f.invoked[1].total_patches, 1);
  // B alone: deadline 1.75, slack 0.2 -> invoked at 1.55.
  EXPECT_NEAR(f.invoked[1].invoke_time, 1.55, 1e-9);
}

TEST(Invoker, HopelessPatchDispatchedImmediately) {
  Fixture f;
  // Deadline already closer than slack(1) = 0.2.
  f.sim.schedule_at(0.5, [&] {
    f.invoker->on_patch(f.make_patch(1, {300, 300}, 0.4, 0.25));
  });
  f.sim.run();
  ASSERT_EQ(f.invoked.size(), 1u);
  EXPECT_NEAR(f.invoked[0].invoke_time, 0.5, 1e-9);
}

// Binary-exact latency constants (0.125-based) so "t_remain == now" holds to
// the last bit: slack(1) = 0.25, slack(2) = 0.375, with no rounding drift.
struct ExactBoundaryFixture {
  sim::Simulator sim;
  serverless::InferenceLatencyModel model = [] {
    serverless::LatencyModelParams params;
    params.jitter_sigma = 0.0;
    params.overhead_s = 0.125;
    params.per_canvas_s = 0.125;
    params.batch_alpha = 1.0;
    return serverless::InferenceLatencyModel(params, common::Rng(1, 1));
  }();
  LatencyEstimator estimator;
  std::vector<Batch> invoked;
  std::unique_ptr<SloAwareInvoker> invoker;

  ExactBoundaryFixture()
      : estimator(model, {1024, 1024},
                  [] {
                    LatencyEstimator::Config c;
                    c.max_profiled_batch = 10;
                    c.iterations = 50;
                    return c;
                  }()) {
    invoker = std::make_unique<SloAwareInvoker>(
        sim, PackHeuristic::kGuillotineBssf, estimator, InvokerConfig{},
        [this](Batch&& b) { invoked.push_back(std::move(b)); });
  }
};

TEST(Invoker, ExactBoundaryArrivalIsOnTimeNotHopeless) {
  // Deadline convention regression: a patch arriving exactly at its own
  // dispatch boundary (t_remain == now) is exactly on time — dispatching
  // now meets the deadline to the second.  Generation 0.25 + SLO 0.5 with
  // slack(1) = 0.25 puts t_remain at precisely the 0.5 arrival instant.
  ExactBoundaryFixture f;
  f.sim.schedule_at(0.5, [&] {
    Patch p;
    p.id = 1;
    p.region = {0, 0, 300, 300};
    p.generation_time = 0.25;
    p.slo = 0.5;  // deadline 0.75; t_remain = 0.75 - 0.25 = 0.5 exactly
    f.invoker->on_patch(p);
  });
  f.sim.run();
  ASSERT_EQ(f.invoked.size(), 1u);
  EXPECT_DOUBLE_EQ(f.invoked[0].invoke_time, 0.5);
  // Invoked at t_remain, the batch finishes exactly at the deadline.
  EXPECT_DOUBLE_EQ(f.invoked[0].earliest_deadline,
                   f.invoked[0].invoke_time + f.invoked[0].slack_estimate);
  EXPECT_EQ(f.invoker->stats().forced_flushes, 0u);
}

TEST(Invoker, ExactBoundaryAdmissionKeepsBatchTogether) {
  // Same convention on the admit path: patch B's arrival pushes the packing
  // to 2 canvases (slack 0.375) at the exact instant t_remain reaches now
  // (1.0 - 0.375 = 0.625).  Boundary == on time: no forced flush; one batch
  // of both patches dispatched immediately.
  ExactBoundaryFixture f;
  const auto make_patch = [](std::uint64_t id) {
    Patch p;
    p.id = id;
    p.region = {0, 0, 800, 800};
    p.generation_time = 0.0;
    p.slo = 1.0;
    return p;
  };
  f.sim.schedule_at(0.0, [&] { f.invoker->on_patch(make_patch(1)); });
  f.sim.schedule_at(0.625, [&] { f.invoker->on_patch(make_patch(2)); });
  f.sim.run();
  ASSERT_EQ(f.invoked.size(), 1u);
  EXPECT_EQ(f.invoked[0].total_patches, 2);
  EXPECT_EQ(f.invoked[0].canvas_count(), 2);
  EXPECT_DOUBLE_EQ(f.invoked[0].invoke_time, 0.625);
  EXPECT_EQ(f.invoker->stats().forced_flushes, 0u);
}

TEST(Invoker, FlushDispatchesPendingWork) {
  Fixture f;
  f.sim.schedule_at(0.0, [&] {
    f.invoker->on_patch(f.make_patch(1, {300, 300}, 0.0, 100.0));
  });
  f.sim.run_until(1.0);
  EXPECT_TRUE(f.invoked.empty());
  EXPECT_EQ(f.invoker->pending_patches(), 1u);
  f.invoker->flush();
  ASSERT_EQ(f.invoked.size(), 1u);
  EXPECT_EQ(f.invoker->pending_patches(), 0u);
  f.invoker->flush();  // idempotent
  EXPECT_EQ(f.invoked.size(), 1u);
}

TEST(Invoker, BatchCarriesPlacementsAndFill) {
  Fixture f;
  f.sim.schedule_at(0.0, [&] {
    f.invoker->on_patch(f.make_patch(1, {512, 512}, 0.0, 1.0));
    f.invoker->on_patch(f.make_patch(2, {512, 512}, 0.0, 1.0));
  });
  f.sim.run();
  ASSERT_EQ(f.invoked.size(), 1u);
  const Batch& batch = f.invoked[0];
  ASSERT_EQ(batch.canvases.size(), 1u);
  const PackedCanvas& canvas = batch.canvases[0];
  ASSERT_EQ(canvas.patches.size(), 2u);
  ASSERT_EQ(canvas.positions.size(), 2u);
  EXPECT_NEAR(canvas.fill, 2.0 * 512 * 512 / (1024.0 * 1024), 1e-12);
  EXPECT_NE(canvas.positions[0], canvas.positions[1]);
}

TEST(Invoker, TelemetryAccumulates) {
  Fixture f;
  for (int i = 0; i < 6; ++i) {
    f.sim.schedule_at(0.01 * i, [&f, i] {
      f.invoker->on_patch(f.make_patch(static_cast<std::uint64_t>(i),
                                       {256, 256}, 0.01 * i, 0.9));
    });
  }
  f.sim.run();
  EXPECT_GE(f.invoker->stats().batches_invoked, 1u);
  EXPECT_EQ(f.invoker->stats().batch_patch_count.stats().sum(), 6.0);
  EXPECT_GT(f.invoker->stats().canvas_efficiency.count(), 0u);
}

TEST(Invoker, IncrementalFastPathAbsorbsEveryArrival) {
  Fixture f;
  for (int i = 0; i < 6; ++i) {
    f.sim.schedule_at(0.01 * i, [&f, i] {
      f.invoker->on_patch(f.make_patch(static_cast<std::uint64_t>(i),
                                       {256, 256}, 0.01 * i, 0.9));
    });
  }
  f.sim.run();
  // Every arrival is absorbed by a session add; the from-scratch solver
  // runs only when migration detaches a stream.
  EXPECT_EQ(f.invoker->stats().incremental_adds, 6u);
  EXPECT_EQ(f.invoker->stats().full_repacks, 0u);
}

TEST(Invoker, ForcedFlushReAdmitsNewcomerIncrementally) {
  Fixture f(/*max_canvases=*/2);
  for (int i = 0; i < 3; ++i) {
    f.sim.schedule_at(0.1 * i, [&f, i] {
      f.invoker->on_patch(f.make_patch(static_cast<std::uint64_t>(i),
                                       {800, 800}, 0.1 * i, 2.0));
    });
  }
  f.sim.run();
  // Third arrival: tentative add, rollback, flush, re-add -> 4 session adds
  // total, still no from-scratch repack.
  EXPECT_EQ(f.invoker->stats().forced_flushes, 1u);
  EXPECT_EQ(f.invoker->stats().incremental_adds, 4u);
  EXPECT_EQ(f.invoker->stats().full_repacks, 0u);
}

TEST(Invoker, DetachStreamRepacksSurvivorsInQueueOrder) {
  // Migration's detach half is the one caller of the from-scratch repack:
  // the survivors' canvas set must be exactly what the batch solver makes
  // of them in queue order.
  Fixture f;
  const std::vector<common::Size> sizes = {{700, 300}, {500, 500},
                                           {300, 700}, {600, 200},
                                           {200, 600}, {450, 450}};
  std::vector<std::uint64_t> detached;
  f.sim.schedule_at(0.0, [&] {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      Patch p = f.make_patch(i, sizes[i], 0.0, 5.0);
      p.stream_id = static_cast<int>(i % 2);
      f.invoker->on_patch(p);
    }
    for (const Patch& p : f.invoker->detach_stream(1))
      detached.push_back(p.id);
    f.invoker->flush();
  });
  f.sim.run();
  EXPECT_EQ(detached, (std::vector<std::uint64_t>{1, 3, 5}));
  EXPECT_EQ(f.invoker->stats().full_repacks, 1u);

  const std::vector<common::Size> survivors = {sizes[0], sizes[2], sizes[4]};
  const StitchResult expected = StitchSolver().pack(survivors, {1024, 1024});
  ASSERT_EQ(f.invoked.size(), 1u);
  const Batch& batch = f.invoked[0];
  EXPECT_EQ(batch.total_patches, 3);
  ASSERT_EQ(batch.canvas_count(), expected.canvas_count);
  for (std::size_t c = 0; c < batch.canvases.size(); ++c) {
    const PackedCanvas& canvas = batch.canvases[c];
    for (std::size_t k = 0; k < canvas.patches.size(); ++k) {
      const Placement& want = expected.placements[canvas.patches[k].id / 2];
      EXPECT_EQ(want.canvas_index, static_cast<int>(c));
      EXPECT_EQ(want.position, canvas.positions[k]);
    }
  }
}

TEST(Invoker, RejectsBadConstruction) {
  sim::Simulator sim;
  auto model = deterministic_model();
  LatencyEstimator::Config c;
  c.iterations = 50;
  const LatencyEstimator estimator(model, {1024, 1024}, c);
  EXPECT_THROW(SloAwareInvoker(sim, PackHeuristic::kGuillotineBssf, estimator,
                               InvokerConfig{}, nullptr),
               std::invalid_argument);
  InvokerConfig bad;
  bad.max_canvases = 0;
  EXPECT_THROW(SloAwareInvoker(sim, PackHeuristic::kGuillotineBssf, estimator,
                               bad, [](Batch&&) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tangram::core
