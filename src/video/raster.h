// Frame rasterization at analysis resolution.
//
// The background-subtraction substrate needs actual pixels.  We render each
// frame's ground truth onto a static-but-noisy background:
//  * the background is a fixed smooth intensity field plus per-frame sensor
//    noise and a slow global illumination drift (sunlight / auto-exposure),
//  * each object is a textured rectangle whose base intensity contrasts with
//    the local background; texture and contrast are deterministic per object
//    id so an object looks the same frame to frame.
//
// Rendering happens at `analysis` resolution (default 480x270 for a 4K
// native frame — the same downsampling a Jetson-class edge box applies before
// running MOG2).  Consequently small/distant objects occupy only a few
// pixels and are genuinely hard for the GMM to pick up, which is exactly the
// failure mode the paper's adaptive partitioner exists to repair.

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/geometry.h"
#include "common/rng.h"
#include "video/image.h"
#include "video/scene.h"

namespace tangram::video {

struct RasterConfig {
  common::Size analysis{480, 270};  // rendering resolution
  double noise_sigma = 2.2;         // per-pixel per-frame sensor noise
  double illum_drift = 1.5;         // amplitude of slow illumination change
  double illum_period_s = 240.0;    // drift period
  // Object-vs-background intensity gap.  The low end sits near the GMM's
  // detection floor on purpose: real distant pedestrians are low-contrast,
  // and background subtraction genuinely losing a fraction of them is the
  // failure mode the adaptive partitioner exists to repair (Table IV).
  double min_contrast = 7.0;
  double max_contrast = 62.0;
  std::uint64_t seed = 99;
};

class FrameRasterizer {
 public:
  FrameRasterizer(common::Size native, RasterConfig config);

  [[nodiscard]] const RasterConfig& config() const { return config_; }
  [[nodiscard]] common::Size analysis_size() const {
    return config_.analysis;
  }

  // Scale factors native -> analysis.
  [[nodiscard]] double sx() const { return sx_; }
  [[nodiscard]] double sy() const { return sy_; }

  // Render one frame; `truth` boxes are in native coordinates.
  [[nodiscard]] Image render(const FrameTruth& truth);

  // Map an analysis-space rect back to native coordinates (rounds outward).
  [[nodiscard]] common::Rect to_native(const common::Rect& analysis_rect) const;
  // Map a native-space rect down to analysis coordinates.
  [[nodiscard]] common::Rect to_analysis(const common::Rect& native_rect) const;

 private:
  // Signed intensity offset of an object from the background under it.
  [[nodiscard]] double object_offset(int object_id) const;

  common::Size native_;
  RasterConfig config_;
  double sx_, sy_;
  Image background_;     // static base field
  common::Rng noise_rng_;
};

namespace detail {

// The code that adds a frame's sensor noise.  Both paths draw the same PCG
// values for the same pixels and round them identically.
enum class NoisePath {
  kScalar,  // one rng.uniform() per pixel
  kAvx2,    // 8 pixels per step from 8 leapfrogged PCG lanes, then kScalar
            // on the pixels after the last multiple of 8
};

// Whether this build and this CPU can run `path`: kScalar always, kAvx2 on
// an x86-64 CPU with AVX2.
[[nodiscard]] bool noise_path_supported(NoisePath path);

// kAvx2 where it is supported, else kScalar.
[[nodiscard]] NoisePath fastest_noise_path();

// For i in [0, n), in order: px[i] = clamp(px[i] + drift +
// rng.uniform(-half_width, half_width), 0, 255), truncated.  Leaves `rng`
// n draws on.  Throws std::invalid_argument unless `path` is supported.
void add_sensor_noise(std::uint8_t* px, std::size_t n, double drift,
                      double half_width, common::Rng& rng, NoisePath path);

}  // namespace detail
}  // namespace tangram::video
