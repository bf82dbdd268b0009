// The demand forecasters as pure functions (serverless/forecast.h):
// recurrences against hand-rolled references, windowed-max properties,
// NaN / empty-series / cold-start edge cases, determinism, and the
// forecast-accuracy harness itself.

#include "serverless/forecast.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace tangram::serverless::forecast {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- EWMA --------------------------------------------------------------------

TEST(Ewma, MatchesHandRolledRecurrence) {
  const std::vector<double> series{4.0, 2.0, 8.0, 6.0, 1.0};
  const double alpha = 0.3;
  // Seeded with the first observation, then s = a*x + (1-a)*s.
  double expected = series[0];
  for (std::size_t t = 1; t < series.size(); ++t)
    expected = alpha * series[t] + (1.0 - alpha) * expected;
  EXPECT_DOUBLE_EQ(ewma(series, alpha), expected);
}

TEST(Ewma, AlphaOneTracksLastObservation) {
  const std::vector<double> series{3.0, 9.0, 5.5};
  EXPECT_DOUBLE_EQ(ewma(series, 1.0), 5.5);
}

TEST(Ewma, EmptySeriesForecastsZero) {
  EXPECT_EQ(ewma({}, 0.5), 0.0);
}

TEST(Ewma, SingleObservationIsTheSeed) {
  const std::vector<double> series{7.0};
  EXPECT_DOUBLE_EQ(ewma(series, 0.1), 7.0);
}

TEST(Ewma, ConstantSeriesForecastsTheConstant) {
  const std::vector<double> series(25, 4.0);
  EXPECT_DOUBLE_EQ(ewma(series, 0.2), 4.0);
}

TEST(Ewma, NonFiniteObservationsAreSkipped) {
  const std::vector<double> clean{4.0, 2.0, 8.0};
  const std::vector<double> dirty{4.0, kNan, 2.0, kInf, 8.0, -kInf};
  EXPECT_DOUBLE_EQ(ewma(dirty, 0.4), ewma(clean, 0.4));
  EXPECT_EQ(ewma(std::vector<double>{kNan, kInf}, 0.5), 0.0);
}

TEST(Ewma, InvalidAlphaThrows) {
  const std::vector<double> series{1.0};
  EXPECT_THROW((void)ewma(series, 0.0), std::invalid_argument);
  EXPECT_THROW((void)ewma(series, -0.5), std::invalid_argument);
  EXPECT_THROW((void)ewma(series, 1.5), std::invalid_argument);
  EXPECT_THROW((void)ewma(series, kNan), std::invalid_argument);
}

// --- windowed max ------------------------------------------------------------

TEST(WindowedMax, TakesTheTrailingWindowPeak) {
  const std::vector<double> x{9.0, 1.0, 4.0, 3.0, 2.0};
  EXPECT_EQ(windowed_max(x, 3), 4.0);  // {4, 3, 2}
  EXPECT_EQ(windowed_max(x, 1), 2.0);
  EXPECT_EQ(windowed_max(x, 5), 9.0);
  EXPECT_EQ(windowed_max(x, 100), 9.0);  // window past the start: whole series
}

TEST(WindowedMax, MonotoneInWindowSize) {
  const std::vector<double> x{3.0, 7.0, 2.0, 5.0, 1.0, 4.0};
  for (std::size_t w = 1; w < x.size(); ++w)
    EXPECT_LE(windowed_max(x, w), windowed_max(x, w + 1)) << "window=" << w;
}

TEST(WindowedMax, NeverBelowTheLatestObservation) {
  const std::vector<double> x{0.0, 2.0, 5.0, 3.0};
  for (std::size_t w = 1; w <= x.size(); ++w)
    EXPECT_GE(windowed_max(x, w), x.back()) << "window=" << w;
}

TEST(WindowedMax, EdgeCases) {
  EXPECT_EQ(windowed_max({}, 4), 0.0);
  const std::vector<double> nans{kNan, kNan};
  EXPECT_EQ(windowed_max(nans, 2), 0.0);
  // NaN entries are skipped WITHOUT consuming the window: the peak behind
  // them stays visible.
  const std::vector<double> dirty{6.0, kNan, 2.0};
  EXPECT_EQ(windowed_max(dirty, 2), 6.0);
  EXPECT_THROW((void)windowed_max(dirty, 0), std::invalid_argument);
}

// --- determinism -------------------------------------------------------------

TEST(Forecast, RepeatedEvaluationIsDeterministic) {
  std::vector<double> x;
  for (int t = 0; t < 64; ++t)
    x.push_back(std::sin(0.37 * t) * 3.0 + 4.0 + (t % 8));
  const double e = ewma(x, 0.42);
  const double w = windowed_max(x, 11);
  for (int rep = 0; rep < 10; ++rep) {
    EXPECT_EQ(ewma(x, 0.42), e);
    EXPECT_EQ(windowed_max(x, 11), w);
  }
}

// --- accuracy harness --------------------------------------------------------

TEST(Accuracy, ScoresForecastsAgainstShiftedDemand) {
  // forecasts[t] targets demand[t + 1]; errors: (3-4)=-1, (5-5)=0, (7-6)=+1.
  const std::vector<double> demand{9.0, 4.0, 5.0, 6.0};
  const std::vector<double> forecasts{3.0, 5.0, 7.0, 99.0};  // last unscored
  const Accuracy acc = accuracy(demand, forecasts, 1);
  EXPECT_EQ(acc.samples, 3u);
  EXPECT_DOUBLE_EQ(acc.mae, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(acc.rmse, std::sqrt(2.0 / 3.0));
  EXPECT_DOUBLE_EQ(acc.bias, 0.0);
}

TEST(Accuracy, PerfectForecastScoresZero) {
  const std::vector<double> demand{1.0, 2.0, 3.0, 4.0, 5.0};
  // Predict demand[t + 2] exactly.
  const std::vector<double> forecasts{3.0, 4.0, 5.0};
  const Accuracy acc = accuracy(demand, forecasts, 2);
  EXPECT_EQ(acc.samples, 3u);
  EXPECT_EQ(acc.mae, 0.0);
  EXPECT_EQ(acc.rmse, 0.0);
  EXPECT_EQ(acc.bias, 0.0);
}

TEST(Accuracy, BiasSignsOverProvisioning) {
  const std::vector<double> demand{0.0, 2.0, 2.0};
  const std::vector<double> over{5.0, 5.0};
  const std::vector<double> under{0.0, 0.0};
  EXPECT_GT(accuracy(demand, over, 1).bias, 0.0);
  EXPECT_LT(accuracy(demand, under, 1).bias, 0.0);
}

TEST(Accuracy, EmptyAndNonFiniteEdgeCases) {
  EXPECT_EQ(accuracy({}, {}, 1).samples, 0u);
  const std::vector<double> demand{1.0, kNan, 3.0};
  const std::vector<double> forecasts{kNan, 2.0, 9.0};
  // t=0: forecast NaN; t=1: (2, 3) valid.  t=2's target is past the end.
  const Accuracy acc = accuracy(demand, forecasts, 1);
  EXPECT_EQ(acc.samples, 1u);
  EXPECT_DOUBLE_EQ(acc.mae, 1.0);
  EXPECT_THROW((void)accuracy(demand, forecasts, 0), std::invalid_argument);
}

}  // namespace
}  // namespace tangram::serverless::forecast
