#include "common/stats.h"

#include <gtest/gtest.h>

namespace tangram::common {
namespace {

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  // Sample variance with n-1: sum of squared deviations = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, EmptyIsSafe) {
  const RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.37 * i - 20.0 + (i % 7);
    all.add(x);
    (i < 40 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Sampler, QuantileInterpolates) {
  Sampler s;
  for (const double x : {10.0, 20.0, 30.0, 40.0, 50.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 20.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.125), 15.0);  // interpolated
}

TEST(Sampler, QuantileThrowsOnEmpty) {
  const Sampler s;
  EXPECT_THROW((void)s.quantile(0.5), std::logic_error);
}

TEST(Sampler, CdfMatchesDefinition) {
  Sampler s;
  for (const double x : {1.0, 2.0, 2.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(s.cdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(s.cdf(10.0), 1.0);
}

TEST(Sampler, CdfSeriesCoversRangeAndIsMonotone) {
  Sampler s;
  for (int i = 0; i < 100; ++i) s.add(i * 0.31);
  const auto series = s.cdf_series(20);
  ASSERT_EQ(series.size(), 20u);
  EXPECT_DOUBLE_EQ(series.front().first, 0.0);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].first, series[i - 1].first);
    EXPECT_GE(series[i].second, series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(Sampler, AddAfterQuantileStillCorrect) {
  Sampler s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 2.0);
  s.add(3.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
}

TEST(Sampler, ReservoirExactBelowCapacity) {
  Sampler s(8);
  for (int i = 0; i < 8; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.values().size(), 8u);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.0);
}

TEST(Sampler, ReservoirBoundsRetainedValues) {
  Sampler s(16);
  for (int i = 0; i < 10000; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.values().size(), 16u);  // retained subset is bounded...
  EXPECT_EQ(s.count(), 10000u);       // ...but the totals see every sample
  EXPECT_EQ(s.capacity(), 16u);
  EXPECT_FALSE(s.empty());
}

TEST(Sampler, ReservoirKeepsExactMoments) {
  // mean / stddev / min / max come from RunningStats, never the reservoir.
  Sampler bounded(4);
  Sampler exact;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    bounded.add(x);
    exact.add(x);
  }
  EXPECT_DOUBLE_EQ(bounded.mean(), exact.mean());
  EXPECT_DOUBLE_EQ(bounded.stddev(), exact.stddev());
  EXPECT_DOUBLE_EQ(bounded.stats().min(), exact.stats().min());
  EXPECT_DOUBLE_EQ(bounded.stats().max(), exact.stats().max());
}

TEST(Sampler, ReservoirIsDeterministic) {
  // The replacement RNG is embedded per sampler with a fixed seed, so the
  // retained subset is a pure function of the add() sequence — the property
  // run-to-run byte-identity of bounded telemetry rests on.
  Sampler a(32), b(32);
  for (int i = 0; i < 5000; ++i) {
    a.add(static_cast<double>(i % 977));
    b.add(static_cast<double>(i % 977));
  }
  EXPECT_EQ(a.values(), b.values());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), b.quantile(0.5));
}

TEST(Sampler, ZeroCapacityRetainsEverything) {
  Sampler s(0);
  for (int i = 0; i < 1000; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.values().size(), 1000u);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 999.0);
}

}  // namespace
}  // namespace tangram::common
