#include "vision/extractors.h"

#include <cmath>
#include <stdexcept>

namespace tangram::vision {

namespace {

// Shared logistic recall curve: probability of proposing an object whose
// native-pixel sqrt-area is `d`.
double recall_probability(double d, double plateau, double d50,
                          double steepness) {
  if (d <= 0) return 0.0;
  const double z = steepness * (std::log2(d) - std::log2(d50));
  return plateau / (1.0 + std::exp(-z));
}

}  // namespace

// --- GMM ---------------------------------------------------------------------

GmmRoiExtractor::GmmRoiExtractor(common::Size analysis, GmmParams gmm,
                                 ComponentParams components)
    : subtractor_(analysis, gmm), components_(components) {}

std::vector<common::Rect> GmmRoiExtractor::extract(const FrameInput& input) {
  if (!input.analysis_frame || !input.rasterizer)
    throw std::invalid_argument("GmmRoiExtractor: pixel input required");
  const video::Mask fg = subtractor_.apply(*input.analysis_frame);
  const auto blobs = extract_blobs(fg, components_);
  std::vector<common::Rect> out;
  out.reserve(blobs.size());
  for (const auto& b : blobs) out.push_back(input.rasterizer->to_native(b));
  return out;
}

// --- Optical flow --------------------------------------------------------------

OpticalFlowExtractor::OpticalFlowExtractor(common::Size analysis,
                                           double magnitude_threshold,
                                           ComponentParams components)
    : analysis_(analysis),
      threshold_(magnitude_threshold),
      components_(components) {}

std::vector<common::Rect> OpticalFlowExtractor::extract(
    const FrameInput& input) {
  if (!input.analysis_frame || !input.rasterizer)
    throw std::invalid_argument("OpticalFlowExtractor: pixel input required");
  const video::Image& frame = *input.analysis_frame;
  if (frame.size() != analysis_)
    throw std::invalid_argument("OpticalFlowExtractor: frame size mismatch");

  std::vector<common::Rect> out;
  if (has_previous_) {
    video::Mask motion(frame.width(), frame.height(), 0);
    for (int y = 0; y < frame.height(); ++y) {
      for (int x = 0; x < frame.width(); ++x) {
        const double diff =
            std::abs(static_cast<double>(frame.at(x, y)) - previous_.at(x, y));
        if (diff >= threshold_) motion.at(x, y) = 255;
      }
    }
    // Flow maps bleed around moving objects; a slightly larger dilation than
    // GMM models that (and is why flow costs more bandwidth in Table IV).
    ComponentParams p = components_;
    p.dilate_radius = components_.dilate_radius + 1;
    for (const auto& b : extract_blobs(motion, p))
      out.push_back(input.rasterizer->to_native(b));
  }
  previous_ = frame;
  has_previous_ = true;
  return out;
}

// --- Learned extractors ---------------------------------------------------------

LearnedExtractorProfile ssdlite_mobilenetv2_profile() {
  // Table IV: RoI-only AP 0.436, bandwidth 82.26% — a proposer with loose,
  // over-sized boxes (high bandwidth) and mediocre recall on small objects.
  LearnedExtractorProfile p;
  p.plateau = 0.82;
  p.d50_px = 52.0;
  p.steepness = 1.35;
  p.box_slack = 0.35;
  p.fp_per_frame = 2.2;
  return p;
}

LearnedExtractorProfile yolov3_mobilenetv2_profile() {
  // Table IV: RoI-only AP 0.397, bandwidth 54.81% — tight boxes (cheap) but
  // the worst recall of the four extractors.
  LearnedExtractorProfile p;
  p.plateau = 0.74;
  p.d50_px = 58.0;
  p.steepness = 1.3;
  p.box_slack = 0.10;
  p.fp_per_frame = 0.8;
  return p;
}

LearnedRoiExtractor::LearnedRoiExtractor(LearnedExtractorProfile profile,
                                         common::Rng rng)
    : profile_(std::move(profile)), rng_(rng) {}

std::vector<common::Rect> LearnedRoiExtractor::extract(
    const FrameInput& input) {
  if (!input.truth)
    throw std::invalid_argument("LearnedRoiExtractor: ground truth required");
  std::vector<common::Rect> out;
  const common::Rect bounds{0, 0, input.frame.width, input.frame.height};

  for (const auto& obj : input.truth->objects) {
    const double d = std::sqrt(static_cast<double>(obj.box.area()));
    if (!rng_.bernoulli(recall_probability(d, profile_.plateau, profile_.d50_px,
                                           profile_.steepness)))
      continue;
    // Loose localization: inflate each side by ~N(slack, slack/2) * size.
    const double sw = std::max(
        0.0, rng_.normal(profile_.box_slack, profile_.box_slack * 0.5));
    const double sh = std::max(
        0.0, rng_.normal(profile_.box_slack, profile_.box_slack * 0.5));
    const common::Rect r{
        obj.box.x - static_cast<int>(obj.box.width * sw / 2.0),
        obj.box.y - static_cast<int>(obj.box.height * sh / 2.0),
        static_cast<int>(obj.box.width * (1.0 + sw)),
        static_cast<int>(obj.box.height * (1.0 + sh))};
    out.push_back(common::clamp_to(r, bounds));
  }

  // Spurious proposals (shadows, textures the tiny net mistakes for people).
  const int fps_count = rng_.poisson(profile_.fp_per_frame);
  for (int i = 0; i < fps_count; ++i) {
    const int w = rng_.uniform_int(30, 140);
    const int h = rng_.uniform_int(60, 280);
    if (w + 1 >= input.frame.width || h + 1 >= input.frame.height) continue;
    out.push_back(
        common::Rect{rng_.uniform_int(0, input.frame.width - w - 1),
                     rng_.uniform_int(0, input.frame.height - h - 1), w, h});
  }
  return out;
}

// --- Factory -------------------------------------------------------------------

std::unique_ptr<RoiExtractor> make_extractor(const std::string& kind,
                                             common::Size analysis,
                                             std::uint64_t seed) {
  if (kind == "GMM")
    return std::make_unique<GmmRoiExtractor>(analysis);
  if (kind == "OpticalFlow")
    return std::make_unique<OpticalFlowExtractor>(analysis);
  if (kind == "SSDLite-MobileNetV2")
    return std::make_unique<LearnedRoiExtractor>(ssdlite_mobilenetv2_profile(),
                                                 common::Rng(seed, 21));
  if (kind == "Yolov3-MobileNetV2")
    return std::make_unique<LearnedRoiExtractor>(yolov3_mobilenetv2_profile(),
                                                 common::Rng(seed, 23));
  throw std::invalid_argument("make_extractor: unknown kind " + kind);
}

}  // namespace tangram::vision
