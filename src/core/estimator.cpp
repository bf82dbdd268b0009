#include "core/estimator.h"

#include <algorithm>
#include <stdexcept>

#include "common/stats.h"

namespace tangram::core {

LatencyEstimator::LatencyEstimator(serverless::InferenceLatencyModel model,
                                   common::Size canvas, Config config)
    : config_(config), canvas_(canvas) {
  if (config_.max_profiled_batch < 1)
    throw std::invalid_argument("LatencyEstimator: need at least batch 1");
  if (config_.iterations < 2)
    throw std::invalid_argument("LatencyEstimator: need >= 2 iterations");

  mean_.reserve(static_cast<std::size_t>(config_.max_profiled_batch));
  stddev_.reserve(static_cast<std::size_t>(config_.max_profiled_batch));
  for (int b = 1; b <= config_.max_profiled_batch; ++b) {
    common::RunningStats stats;
    for (int i = 0; i < config_.iterations; ++i)
      stats.add(model.sample_batch_latency(b, canvas_));
    mean_.push_back(stats.mean());
    stddev_.push_back(stats.stddev());
  }
}

int LatencyEstimator::clamp_index(int num_canvases) const {
  if (num_canvases < 1)
    throw std::invalid_argument("LatencyEstimator: batch size must be >= 1");
  return std::min(num_canvases, config_.max_profiled_batch) - 1;
}

double LatencyEstimator::mean(int num_canvases) const {
  const int idx = clamp_index(num_canvases);
  if (num_canvases <= config_.max_profiled_batch) return mean_[static_cast<std::size_t>(idx)];
  // Linear extrapolation from the last two profiled batch sizes.
  const std::size_t last = mean_.size() - 1;
  const double slope =
      last > 0 ? std::max(0.0, mean_[last] - mean_[last - 1]) : 0.0;
  return mean_[last] + slope * (num_canvases - config_.max_profiled_batch);
}

double LatencyEstimator::stddev(int num_canvases) const {
  const int idx = clamp_index(num_canvases);
  if (num_canvases <= config_.max_profiled_batch)
    return stddev_[static_cast<std::size_t>(idx)];
  return stddev_.back();
}

double LatencyEstimator::slack(int num_canvases) const {
  return mean(num_canvases) +
         config_.sigma_multiplier * stddev(num_canvases);
}

}  // namespace tangram::core
