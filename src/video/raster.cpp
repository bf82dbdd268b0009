#include "video/raster.h"

#include <algorithm>
#include <cmath>

namespace tangram::video {

namespace {

// Cheap deterministic 2D hash -> [0, 1); used for object textures so pixels
// are stable across frames without storing per-object bitmaps.
double hash01(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t h = a * 0x9E3779B97F4A7C15ULL ^ b * 0xC2B2AE3D27D4EB4FULL ^
                    c * 0x165667B19E3779F9ULL;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FrameRasterizer::FrameRasterizer(common::Size native, RasterConfig config)
    : native_(native),
      config_(config),
      sx_(static_cast<double>(config.analysis.width) / native.width),
      sy_(static_cast<double>(config.analysis.height) / native.height),
      background_(config.analysis.width, config.analysis.height),
      noise_rng_(config.seed, 11) {
  // Static background: sum of a few low-frequency cosine plateaus, giving
  // smooth structure (walls, road, sky bands) in [80, 170].
  common::Rng rng(config.seed, 3);
  const double fx1 = rng.uniform(0.5, 2.0), fy1 = rng.uniform(0.5, 2.0);
  const double fx2 = rng.uniform(2.0, 5.0), fy2 = rng.uniform(2.0, 5.0);
  const double p1 = rng.uniform(0, 6.28), p2 = rng.uniform(0, 6.28);
  for (int y = 0; y < background_.height(); ++y) {
    for (int x = 0; x < background_.width(); ++x) {
      const double u = static_cast<double>(x) / background_.width();
      const double v = static_cast<double>(y) / background_.height();
      const double val =
          125.0 + 28.0 * std::cos(2 * 3.14159265 * (fx1 * u + fy1 * v) + p1) +
          12.0 * std::cos(2 * 3.14159265 * (fx2 * u - fy2 * v) + p2);
      background_.at(x, y) =
          static_cast<std::uint8_t>(std::clamp(val, 60.0, 200.0));
    }
  }
}

common::Rect FrameRasterizer::to_native(const common::Rect& r) const {
  return common::scale_rect(r, 1.0 / sx_, 1.0 / sy_);
}

common::Rect FrameRasterizer::to_analysis(const common::Rect& r) const {
  return common::scale_rect(r, sx_, sy_);
}

double FrameRasterizer::object_offset(int object_id) const {
  // Contrast sign and magnitude are deterministic per object.
  const double pick = hash01(static_cast<std::uint64_t>(object_id), 17, 29);
  const double contrast =
      config_.min_contrast +
      (config_.max_contrast - config_.min_contrast) *
          hash01(static_cast<std::uint64_t>(object_id), 41, 53);
  const double sign = pick < 0.5 ? -1.0 : 1.0;
  return sign * contrast;
}

Image FrameRasterizer::render(const FrameTruth& truth) {
  Image frame = background_;

  // Slow illumination drift + per-frame sensor noise.  Uniform noise with a
  // matched standard deviation (width = sigma * sqrt(12)) instead of a
  // Gaussian: the GMM only cares about second moments and a uniform draw is
  // one RNG call instead of a Box-Muller pair.  One draw per pixel makes
  // this loop most of a frame's render time, though rendering is a small
  // share of trace generation next to background subtraction.
  const double drift =
      config_.illum_drift *
      std::sin(2 * 3.14159265 * truth.timestamp / config_.illum_period_s);
  const double half_width = config_.noise_sigma * 1.7320508;
  std::uint8_t* px = frame.data();
  const std::size_t n = frame.pixel_count();
  for (std::size_t i = 0; i < n; ++i) {
    const double noisy =
        px[i] + drift + noise_rng_.uniform(-half_width, half_width);
    px[i] = static_cast<std::uint8_t>(std::clamp(noisy, 0.0, 255.0));
  }

  // Paint objects (native boxes scaled down to analysis space) as textured
  // rectangles offset from the background.
  const auto stride = static_cast<std::size_t>(frame.width());
  for (const auto& obj : truth.objects) {
    const common::Rect r = common::clamp_to(
        to_analysis(obj.box), common::Rect{0, 0, frame.width(), frame.height()});
    const auto id = static_cast<std::uint64_t>(obj.id);
    const double offset = object_offset(obj.id);
    for (int y = r.top(); y < r.bottom(); ++y) {
      const std::uint8_t* const base = background_.data() + y * stride;
      std::uint8_t* const row = frame.data() + y * stride;
      const auto cell_y = static_cast<std::uint64_t>(y / 2);
      for (int x = r.left(); x < r.right(); ++x) {
        // Coarse texture: 2x2-pixel blocks of deterministic variation.
        const auto cell_x = static_cast<std::uint64_t>(x / 2);
        const double tex = 18.0 * (hash01(id, cell_x, cell_y) - 0.5);
        const double val = base[x] + offset + tex;
        row[x] = static_cast<std::uint8_t>(std::clamp(val, 5.0, 250.0));
      }
    }
  }
  return frame;
}

}  // namespace tangram::video
