#include "serverless/forecast.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tangram::serverless::forecast {

namespace {

void check_alpha(double alpha) {
  if (!(alpha > 0.0) || alpha > 1.0)
    throw std::invalid_argument("forecast: alpha must be in (0, 1]");
}

}  // namespace

double ewma(std::span<const double> series, double alpha) {
  check_alpha(alpha);
  double level = 0.0;
  bool seeded = false;
  for (const double x : series) {
    if (!std::isfinite(x)) continue;
    if (!seeded) {
      level = x;  // seed with the first observation, not a spurious 0
      seeded = true;
    } else {
      level = alpha * x + (1.0 - alpha) * level;
    }
  }
  return seeded ? std::max(0.0, level) : 0.0;
}

double windowed_max(std::span<const double> series, std::size_t window) {
  if (window < 1) throw std::invalid_argument("forecast: window must be >= 1");
  double peak = 0.0;
  bool seeded = false;
  std::size_t seen = 0;
  for (std::size_t i = series.size(); i-- > 0 && seen < window;) {
    const double x = series[i];
    if (!std::isfinite(x)) continue;  // skipped, does not consume the window
    ++seen;
    if (!seeded || x > peak) peak = x;
    seeded = true;
  }
  return seeded ? std::max(0.0, peak) : 0.0;
}

Accuracy accuracy(std::span<const double> demand,
                  std::span<const double> forecasts, std::size_t horizon) {
  if (horizon < 1)
    throw std::invalid_argument("forecast: horizon must be >= 1");
  Accuracy acc;
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  double err_sum = 0.0;
  for (std::size_t t = 0; t + horizon < demand.size() && t < forecasts.size();
       ++t) {
    const double actual = demand[t + horizon];
    const double predicted = forecasts[t];
    if (!std::isfinite(actual) || !std::isfinite(predicted)) continue;
    const double err = predicted - actual;
    abs_sum += std::abs(err);
    sq_sum += err * err;
    err_sum += err;
    ++acc.samples;
  }
  if (acc.samples == 0) return acc;
  const double n = static_cast<double>(acc.samples);
  acc.mae = abs_sum / n;
  acc.rmse = std::sqrt(sq_sum / n);
  acc.bias = err_sum / n;
  return acc;
}

}  // namespace tangram::serverless::forecast
