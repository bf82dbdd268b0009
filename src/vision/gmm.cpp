#include "vision/gmm.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace tangram::vision {

GmmBackgroundSubtractor::GmmBackgroundSubtractor(common::Size frame,
                                                 GmmParams params)
    : size_(frame), params_(params) {
  if (frame.empty())
    throw std::invalid_argument("GmmBackgroundSubtractor: empty frame size");
  if (params_.num_gaussians < 1 || params_.num_gaussians > 8)
    throw std::invalid_argument("GmmBackgroundSubtractor: K must be in 1..8");
  mixtures_.resize(static_cast<std::size_t>(frame.area()) *
                   static_cast<std::size_t>(params_.num_gaussians));
  for (auto& g : mixtures_) g = Gaussian{0.0f, 0.0f, 0.0f};
}

// One pass over the frame with K fixed at compile time, so every per-pixel
// loop below unrolls.  Each pixel's arithmetic is the textbook per-pixel
// update: the distance test in double, the model state in float.
template <int K>
void GmmBackgroundSubtractor::update(const std::uint8_t* src,
                                     std::uint8_t* dst) {
  const auto alpha = static_cast<float>(params_.learning_rate);
  // Stauffer-Grimson uses alpha*N(x); the common practical simplification
  // uses alpha directly.
  const double rho = alpha;
  const double match_threshold = params_.match_threshold;
  const double background_ratio = params_.background_ratio;
  const auto min_variance = static_cast<float>(params_.min_variance);
  const auto initial_weight = static_cast<float>(params_.initial_weight);
  const auto initial_variance = static_cast<float>(params_.initial_variance);
  const auto n = static_cast<std::size_t>(size_.area());

  Gaussian* mix = mixtures_.data();
  for (std::size_t px = 0; px < n; ++px, mix += K) {
    const auto value = static_cast<double>(src[px]);

    // 1. Find the first matching component (components kept sorted by
    //    weight/sigma fitness, approximated by weight order here).
    int matched = -1;
    double matched_d = 0.0;
    for (int i = 0; i < K; ++i) {
      if (mix[i].weight <= 0.0f) break;
      const double d = value - mix[i].mean;
      if (d * d <= match_threshold * mix[i].variance) {
        matched = i;
        matched_d = d;
        break;
      }
    }

    // Weights live in registers until they are final; writing them back
    // once keeps the sort's reads off a store that is still in flight.
    float w[K] = {};
    for (int i = 0; i < K; ++i) w[i] = mix[i].weight;
    if (matched >= 0) {
      // 2a. Update the matched component.
      Gaussian& g = mix[matched];
      g.mean += static_cast<float>(rho * matched_d);
      g.variance +=
          static_cast<float>(rho * (matched_d * matched_d - g.variance));
      g.variance = std::max(g.variance, min_variance);
      for (int i = 0; i < K; ++i) {
        if (w[i] <= 0.0f) break;
        w[i] += alpha * ((i == matched ? 1.0f : 0.0f) - w[i]);
      }
    } else {
      // 2b. Replace the weakest component with a new one centred on the
      //     value.
      int weakest = 0;
      for (int i = 1; i < K; ++i)
        if (w[i] < w[weakest]) weakest = i;
      mix[weakest].mean = static_cast<float>(value);
      mix[weakest].variance = initial_variance;
      w[weakest] = initial_weight;
    }

    // 3. Renormalize weights and keep components sorted by descending
    //    weight.
    float wsum = 0.0f;
    for (int i = 0; i < K; ++i) wsum += std::max(0.0f, w[i]);
    if (wsum > 0.0f)
      for (int i = 0; i < K; ++i) w[i] /= wsum;
    // The sort is libstdc++'s std::sort for ranges of at most 16 elements:
    // an insertion sort whose step i first tests element i against the
    // front (moving it there if heavier, which also bounds the scan that
    // follows), then against its left neighbours.  When none of those tests
    // holds it moves nothing -- the usual case -- and the order, ties
    // included, is exactly std::sort's either way.
    bool in_order = true;
    for (int i = 1; i < K; ++i)
      in_order = in_order & !(w[i] > w[0]) & !(w[i] > w[i - 1]);
    for (int i = 0; i < K; ++i) mix[i].weight = w[i];
    if (!in_order) {
      for (int i = 1; i < K; ++i) {
        const Gaussian moving = mix[i];
        int j = i;
        if (moving.weight > mix[0].weight) {
          for (; j > 0; --j) mix[j] = mix[j - 1];
        } else {
          for (; moving.weight > mix[j - 1].weight; --j) mix[j] = mix[j - 1];
        }
        mix[j] = moving;
      }
    }

    // 4. Background = the top components accumulating `background_ratio`
    //    weight.  The pixel is foreground if it matches none of them.
    std::uint8_t foreground = 255;
    float acc = 0.0f;
    for (int i = 0; i < K; ++i) {
      if (mix[i].weight <= 0.0f) break;
      acc += mix[i].weight;
      const double d = value - mix[i].mean;
      if (d * d <= match_threshold * mix[i].variance) {
        foreground = 0;  // matches a background component
        break;
      }
      if (acc >= background_ratio) break;
    }
    dst[px] = foreground;
  }
}

video::Mask GmmBackgroundSubtractor::apply(const video::Image& frame) {
  if (frame.size() != size_)
    throw std::invalid_argument("GmmBackgroundSubtractor: frame size mismatch");

  video::Mask fg(size_.width, size_.height, 0);
  const std::uint8_t* src = frame.data();
  std::uint8_t* dst = fg.data();

  if (frames_seen_ == 0) {
    // Bootstrap: initialize the dominant component from the first frame and
    // report no foreground (the model has no history yet).
    const auto n = static_cast<std::size_t>(size_.area());
    for (std::size_t px = 0; px < n; ++px) {
      Gaussian* mix =
          &mixtures_[px * static_cast<std::size_t>(params_.num_gaussians)];
      mix[0] = Gaussian{1.0f, static_cast<float>(src[px]),
                        static_cast<float>(params_.initial_variance)};
    }
  } else {
    // The constructor holds K to 1..8.
    switch (params_.num_gaussians) {
      case 1:
        update<1>(src, dst);
        break;
      case 2:
        update<2>(src, dst);
        break;
      case 3:
        update<3>(src, dst);
        break;
      case 4:
        update<4>(src, dst);
        break;
      case 5:
        update<5>(src, dst);
        break;
      case 6:
        update<6>(src, dst);
        break;
      case 7:
        update<7>(src, dst);
        break;
      default:
        update<8>(src, dst);
        break;
    }
  }
  ++frames_seen_;
  return fg;
}

}  // namespace tangram::vision
