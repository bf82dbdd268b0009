// Latency Estimator — Eqn. (9) of the paper.
//
// Offline, for each batch size b = 1..max_profiled_batch, the estimator runs
// `iterations` inference samples against the (simulated) serverless function
// and records mean and standard deviation; online it returns the
// conservative slack
//
//     Tslack(b) = mu_b + k * sigma_b          (paper: k = 3)
//
// which by the usual concentration argument leaves the function enough time
// to finish before the deadline with high probability.  The multiplier k is
// exposed as a knob ("applications highly sensitive to the SLO can manually
// adjust the slack time to a more conservative estimation") and is swept by
// the slack ablation bench.

#pragma once

#include <vector>

#include "common/geometry.h"
#include "serverless/latency_model.h"

namespace tangram::core {

class LatencyEstimator {
 public:
  struct Config {
    int max_profiled_batch = 16;
    int iterations = 1000;       // paper: 1000 inference iterations per size
    double sigma_multiplier = 3.0;
  };

  // Profiles `model` (taken by value: profiling is an offline campaign on a
  // private copy, so it never perturbs the online model's RNG stream).
  LatencyEstimator(serverless::InferenceLatencyModel model,
                   common::Size canvas, Config config);

  // Conservative execution-time estimate for a batch of `num_canvases`.
  // Sizes beyond the profiled range extrapolate linearly from the last two
  // profiled points (still conservative: slope is never taken below zero).
  [[nodiscard]] double slack(int num_canvases) const;

  [[nodiscard]] double mean(int num_canvases) const;
  [[nodiscard]] double stddev(int num_canvases) const;
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] common::Size canvas() const { return canvas_; }

 private:
  [[nodiscard]] int clamp_index(int num_canvases) const;

  Config config_;
  common::Size canvas_;
  std::vector<double> mean_;    // index b-1
  std::vector<double> stddev_;  // index b-1
};

}  // namespace tangram::core
