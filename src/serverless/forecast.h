// Demand forecasters for predictive provisioning — pure functions over a
// demand history, separately testable from the platform that feeds them.
//
// Each estimator consumes the per-pool demand series the autoscaler records
// (one observation per tick) and predicts the demand ahead of it:
//
//  * ewma            — exponentially weighted moving average; the flat
//                      forecast of a level-only series.  Reacts in O(1/alpha)
//                      ticks, never anticipates trends.
//  * windowed_max    — max over the trailing window; the conservative
//                      "provision for the recent peak" rule.  Never
//                      under-provisions relative to the window, never reacts
//                      to transient dips.
//
// Both are flat forecasts: the prediction is the same at every horizon, so
// the horizon only matters when scoring them with accuracy().  Conventions
// shared by both: an empty series forecasts 0 (a pool that has never seen
// demand needs nothing); non-finite observations (NaN/inf) are skipped
// rather than poisoning every later forecast; forecasts are clamped
// to >= 0 (negative demand is meaningless); evaluation is deterministic and
// side-effect free.

#pragma once

#include <cstddef>
#include <span>

namespace tangram::serverless::forecast {

// EWMA level of the series (alpha in (0, 1]; alpha = 1 tracks the last
// observation exactly).  The EWMA forecast is flat: the same level is the
// prediction at every horizon.
[[nodiscard]] double ewma(std::span<const double> series, double alpha);

// Maximum over the trailing `window` observations (window >= 1).
[[nodiscard]] double windowed_max(std::span<const double> series,
                                  std::size_t window);

// --- forecast-accuracy harness -----------------------------------------------
//
// Scores a forecast series against the demand that actually materialised:
// forecasts[t] was the prediction for demand[t + horizon], so each pair
// (forecasts[t], demand[t + horizon]) contributes one error sample.

struct Accuracy {
  std::size_t samples = 0;
  double mae = 0.0;   // mean |error|
  double rmse = 0.0;  // sqrt(mean error^2)
  double bias = 0.0;  // mean (forecast - actual); > 0 = over-provisioning
};

[[nodiscard]] Accuracy accuracy(std::span<const double> demand,
                                std::span<const double> forecasts,
                                std::size_t horizon);

}  // namespace tangram::serverless::forecast
