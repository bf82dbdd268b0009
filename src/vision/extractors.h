// Edge-side RoI extraction strategies (Table IV of the paper).
//
// All extractors consume the same FrameInput and return RoI boxes in native
// frame coordinates.  Two families:
//
//  * Pixel-based (GMM, optical flow): run on the rasterized analysis-
//    resolution frame — real algorithms with real failure modes.
//  * Learned lightweight detectors (SSDLite-MobileNetV2, Yolov3-MobileNetV2):
//    we do not ship neural networks; these are stochastic models whose
//    per-object recall follows the same size-dependent logistic family used
//    for the cloud detector (detector.h) with profiles calibrated to the
//    Table IV accuracy/bandwidth rows.  They consume ground truth + an Rng,
//    never the pixels.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "video/image.h"
#include "video/raster.h"
#include "video/scene.h"
#include "vision/components.h"
#include "vision/gmm.h"

namespace tangram::vision {

struct FrameInput {
  common::Size frame{3840, 2160};             // native frame size
  const video::FrameTruth* truth = nullptr;   // ground truth (simulated nets)
  const video::Image* analysis_frame = nullptr;  // rasterized pixels
  const video::FrameRasterizer* rasterizer = nullptr;  // coordinate mapping
};

class RoiExtractor {
 public:
  virtual ~RoiExtractor() = default;
  // Returns RoI boxes in native frame coordinates.
  virtual std::vector<common::Rect> extract(const FrameInput& input) = 0;
};

// --- GMM (the extractor Tangram selects) ------------------------------------
class GmmRoiExtractor final : public RoiExtractor {
 public:
  GmmRoiExtractor(common::Size analysis, GmmParams gmm = {},
                  ComponentParams components = {});
  std::vector<common::Rect> extract(const FrameInput& input) override;

 private:
  GmmBackgroundSubtractor subtractor_;
  ComponentParams components_;
};

// --- Optical flow (Farneback stand-in) --------------------------------------
// Magnitude-thresholded temporal differencing with a 2-frame history: moving
// objects pop out, stationary ones fade — the characteristic optical-flow
// weakness (Table IV row 2: higher bandwidth, slightly lower AP than GMM).
class OpticalFlowExtractor final : public RoiExtractor {
 public:
  // The default magnitude threshold sits above the GMM's adaptive floor:
  // flow needs a hard global threshold to reject noise, so low-contrast
  // movers that the per-pixel background model still catches fall through —
  // one reason flow trails GMM in Table IV.
  OpticalFlowExtractor(common::Size analysis,
                       double magnitude_threshold = 21.0,
                       ComponentParams components = {});
  std::vector<common::Rect> extract(const FrameInput& input) override;

 private:
  common::Size analysis_;
  double threshold_;
  ComponentParams components_;
  video::Image previous_;
  bool has_previous_ = false;
};

// --- Simulated lightweight learned detectors --------------------------------
struct LearnedExtractorProfile {
  double plateau = 0.85;     // max recall on large objects
  double d50_px = 42.0;      // sqrt(object area) at 50% recall (native px)
  double steepness = 1.5;
  double box_slack = 0.22;   // boxes are loose: each side inflated ~N(0,slack)
  double fp_per_frame = 1.2; // spurious proposals
};

// Built-in profiles for the two Table IV baselines.
[[nodiscard]] LearnedExtractorProfile ssdlite_mobilenetv2_profile();
[[nodiscard]] LearnedExtractorProfile yolov3_mobilenetv2_profile();

class LearnedRoiExtractor final : public RoiExtractor {
 public:
  LearnedRoiExtractor(LearnedExtractorProfile profile, common::Rng rng);
  std::vector<common::Rect> extract(const FrameInput& input) override;

 private:
  LearnedExtractorProfile profile_;
  common::Rng rng_;
};

// Factory covering every Table IV row.  `analysis` sizes the pixel-based
// extractors; `seed` seeds the learned ones.
[[nodiscard]] std::unique_ptr<RoiExtractor> make_extractor(
    const std::string& kind, common::Size analysis, std::uint64_t seed);

}  // namespace tangram::vision
