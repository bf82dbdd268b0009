// End-to-end integration tests asserting the paper's qualitative claims on
// reduced-size workloads: Tangram wins on cost, keeps SLO violations low,
// and its canvas efficiency responds to the SLO knob as in Fig. 13.

#include <gtest/gtest.h>

#include "experiments/harness.h"

namespace tangram::experiments {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TraceConfig config;
    config.raster.analysis = {320, 180};
    video::SceneSpec a = video::test_scene(51);
    a.base_population = 30;
    a.total_frames = 60;
    a.training_frames = 15;
    video::SceneSpec b = video::test_scene(52);
    b.base_population = 50;
    b.total_frames = 60;
    b.training_frames = 15;
    b.roi_proportion = 0.09;
    traces_ = new std::vector<SceneTrace>;
    traces_->push_back(build_trace(a, config));
    traces_->push_back(build_trace(b, config));
  }
  static void TearDownTestSuite() {
    delete traces_;
    traces_ = nullptr;
  }

  static std::vector<const SceneTrace*> cameras() {
    return {&(*traces_)[0], &(*traces_)[1]};
  }

  static EndToEndConfig config_with(double bandwidth, double slo) {
    EndToEndConfig c;
    c.bandwidth_mbps = bandwidth;
    c.slo_s = slo;
    return c;
  }

  static std::vector<SceneTrace>* traces_;
};

std::vector<SceneTrace>* IntegrationTest::traces_ = nullptr;

TEST_F(IntegrationTest, TangramKeepsViolationsUnderFivePercent) {
  // The headline claim, on every bandwidth/SLO corner of the Fig. 12 grid.
  for (const auto& [bw, slo] : std::vector<std::pair<double, double>>{
           {20.0, 1.2}, {40.0, 1.0}, {80.0, 0.8}}) {
    const auto result = run_end_to_end(cameras(), StrategyKind::kTangram,
                                       config_with(bw, slo));
    EXPECT_LT(result.violation_rate(), 0.05)
        << "bw=" << bw << " slo=" << slo;
  }
}

TEST_F(IntegrationTest, TangramCheaperThanBatchingBaselines) {
  const auto config = config_with(40.0, 1.0);
  const auto tangram =
      run_end_to_end(cameras(), StrategyKind::kTangram, config);
  const auto clipper =
      run_end_to_end(cameras(), StrategyKind::kClipper, config);
  const auto mark = run_end_to_end(cameras(), StrategyKind::kMArk, config);
  EXPECT_LT(tangram.total_cost, clipper.total_cost);
  EXPECT_LT(tangram.total_cost, mark.total_cost);
}

TEST_F(IntegrationTest, TangramCostDecreasesWithLooserSlo) {
  const auto tight = run_end_to_end(cameras(), StrategyKind::kTangram,
                                    config_with(40.0, 0.7));
  const auto loose = run_end_to_end(cameras(), StrategyKind::kTangram,
                                    config_with(40.0, 1.6));
  EXPECT_LE(loose.total_cost, tight.total_cost * 1.02);
  EXPECT_LE(loose.invocations, tight.invocations);
}

TEST_F(IntegrationTest, CanvasEfficiencyRisesWithSlo) {
  const auto tight = run_end_to_end(cameras(), StrategyKind::kTangram,
                                    config_with(20.0, 0.8));
  const auto loose = run_end_to_end(cameras(), StrategyKind::kTangram,
                                    config_with(20.0, 2.0));
  EXPECT_GE(loose.canvas_efficiency.mean(),
            tight.canvas_efficiency.mean() * 0.98);
  EXPECT_GE(loose.batch_patches.mean(), tight.batch_patches.mean());
}

TEST_F(IntegrationTest, TangramUsesFewerInvocationsThanElf) {
  const auto config = config_with(40.0, 1.0);
  const auto tangram =
      run_end_to_end(cameras(), StrategyKind::kTangram, config);
  const auto elf = run_end_to_end(cameras(), StrategyKind::kElf, config);
  EXPECT_LT(tangram.invocations, elf.invocations / 3);
}

TEST_F(IntegrationTest, DeterministicAcrossRuns) {
  const auto config = config_with(40.0, 1.0);
  const auto a = run_end_to_end(cameras(), StrategyKind::kTangram, config);
  const auto b = run_end_to_end(cameras(), StrategyKind::kTangram, config);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.slo_violations, b.slo_violations);
}

}  // namespace
}  // namespace tangram::experiments
