// Property-based tests for the SLO-aware invoker: random patch streams with
// random sizes, rates, and SLOs must always satisfy the scheduler's core
// invariants, regardless of how the timing works out.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/invoker.h"

namespace tangram::core {
namespace {

serverless::InferenceLatencyModel deterministic_model() {
  serverless::LatencyModelParams params;
  params.jitter_sigma = 0.0;
  return serverless::InferenceLatencyModel(params, common::Rng(1, 1));
}

class InvokerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvokerProperty, EveryPatchDispatchedExactlyOnceAndValid) {
  common::Rng rng(GetParam(), 41);
  sim::Simulator sim;
  auto model = deterministic_model();
  LatencyEstimator::Config est_config;
  est_config.iterations = 50;
  est_config.max_profiled_batch = 12;
  const LatencyEstimator estimator(model, {1024, 1024}, est_config);

  InvokerConfig config;
  config.max_canvases = rng.uniform_int(1, 9);

  std::vector<Batch> batches;
  SloAwareInvoker invoker(sim, PackHeuristic::kGuillotineBssf, estimator,
                          config,
                          [&](Batch&& b) { batches.push_back(std::move(b)); });

  // Random stream: bursty arrivals, mixed sizes, mixed SLOs.
  const int n = rng.uniform_int(5, 120);
  std::map<std::uint64_t, double> deadlines;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(rng.uniform(2.0, 40.0));
    Patch p;
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.region = {0, 0, rng.uniform_int(20, 1024), rng.uniform_int(20, 1024)};
    p.generation_time = t;
    p.slo = rng.uniform(0.3, 2.5);
    deadlines[p.id] = p.deadline();
    const double arrival = t + rng.uniform(0.0, 0.2);
    sim.schedule_at(arrival, [&invoker, p] { invoker.on_patch(p); });
  }

  sim.run();
  invoker.flush();
  sim.run();

  // Invariant 1: every patch appears in exactly one batch / one canvas.
  std::set<std::uint64_t> seen;
  for (const auto& batch : batches) {
    EXPECT_GT(batch.canvas_count(), 0);
    EXPECT_LE(batch.canvas_count(), config.max_canvases);
    int patch_count = 0;
    for (const auto& canvas : batch.canvases) {
      ASSERT_EQ(canvas.patches.size(), canvas.positions.size());
      EXPECT_FALSE(canvas.patches.empty());
      EXPECT_GT(canvas.fill, 0.0);
      EXPECT_LE(canvas.fill, 1.0 + 1e-9);
      patch_count += static_cast<int>(canvas.patches.size());
      // Invariant 2: placements never overlap and stay inside the canvas.
      for (std::size_t i = 0; i < canvas.patches.size(); ++i) {
        const common::Rect a{canvas.positions[i].x, canvas.positions[i].y,
                             canvas.patches[i].region.width,
                             canvas.patches[i].region.height};
        EXPECT_TRUE((common::Rect{0, 0, 1024, 1024}).contains(a));
        for (std::size_t j = i + 1; j < canvas.patches.size(); ++j) {
          const common::Rect b{canvas.positions[j].x, canvas.positions[j].y,
                               canvas.patches[j].region.width,
                               canvas.patches[j].region.height};
          EXPECT_FALSE(common::overlaps(a, b));
        }
      }
      for (const auto& patch : canvas.patches)
        EXPECT_TRUE(seen.insert(patch.id).second)
            << "patch " << patch.id << " dispatched twice";
    }
    EXPECT_EQ(patch_count, batch.total_patches);
    // Invariant 3: the recorded earliest deadline is the minimum.
    double min_deadline = std::numeric_limits<double>::infinity();
    for (const auto& canvas : batch.canvases)
      for (const auto& patch : canvas.patches)
        min_deadline = std::min(min_deadline, patch.deadline());
    EXPECT_NEAR(batch.earliest_deadline, min_deadline, 1e-9);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));

  // Invariant 4: the invoker never waits past the earliest deadline —
  // unless a patch *arrived* with its deadline already blown (network
  // queueing), in which case it dispatches at arrival.  So the invoke time
  // is bounded by max(earliest deadline, latest arrival in the batch).
  for (const auto& batch : batches) {
    double latest_arrival = 0.0;
    for (const auto& canvas : batch.canvases)
      for (const auto& patch : canvas.patches)
        latest_arrival = std::max(latest_arrival, patch.arrival_time);
    EXPECT_LE(batch.invoke_time,
              std::max(batch.earliest_deadline, latest_arrival) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, InvokerProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace tangram::core
