#include "vision/gmm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "video/raster.h"
#include "video/scene_catalog.h"

namespace tangram::vision {
namespace {

// Render a noisy flat background with an optional bright square.
video::Image make_frame(common::Rng& rng, bool with_object, int ox = 20,
                        int oy = 20) {
  video::Image img(64, 48, 0);
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      img.at(x, y) = static_cast<std::uint8_t>(
          std::clamp(120.0 + rng.normal(0.0, 2.0), 0.0, 255.0));
  if (with_object) img.fill_rect({ox, oy, 8, 8}, 200);
  return img;
}

TEST(Gmm, FirstFrameHasNoForeground) {
  common::Rng rng(1);
  GmmBackgroundSubtractor gmm({64, 48});
  const video::Mask fg = gmm.apply(make_frame(rng, true));
  for (int y = 0; y < fg.height(); ++y)
    for (int x = 0; x < fg.width(); ++x) EXPECT_EQ(fg.at(x, y), 0);
}

TEST(Gmm, StaticBackgroundStaysQuiet) {
  common::Rng rng(2);
  GmmBackgroundSubtractor gmm({64, 48});
  for (int i = 0; i < 30; ++i) (void)gmm.apply(make_frame(rng, false));
  const video::Mask fg = gmm.apply(make_frame(rng, false));
  int fg_pixels = 0;
  for (int y = 0; y < fg.height(); ++y)
    for (int x = 0; x < fg.width(); ++x) fg_pixels += fg.at(x, y) ? 1 : 0;
  EXPECT_LT(fg_pixels, static_cast<int>(fg.pixel_count() / 100));
}

TEST(Gmm, NewObjectIsForeground) {
  common::Rng rng(3);
  GmmBackgroundSubtractor gmm({64, 48});
  for (int i = 0; i < 30; ++i) (void)gmm.apply(make_frame(rng, false));
  const video::Mask fg = gmm.apply(make_frame(rng, true));
  int hits = 0;
  for (int y = 20; y < 28; ++y)
    for (int x = 20; x < 28; ++x) hits += fg.at(x, y) ? 1 : 0;
  EXPECT_GT(hits, 48);  // at least 75% of the object's 64 pixels
}

TEST(Gmm, MovingObjectTrackedAcrossFrames) {
  common::Rng rng(4);
  GmmBackgroundSubtractor gmm({64, 48});
  for (int i = 0; i < 30; ++i) (void)gmm.apply(make_frame(rng, false));
  for (int step = 0; step < 5; ++step) {
    const int ox = 10 + step * 6;
    const video::Mask fg = gmm.apply(make_frame(rng, true, ox, 16));
    int hits = 0;
    for (int y = 16; y < 24; ++y)
      for (int x = ox; x < ox + 8; ++x) hits += fg.at(x, y) ? 1 : 0;
    EXPECT_GT(hits, 32) << "step " << step;
  }
}

TEST(Gmm, StationaryObjectAbsorbedIntoBackground) {
  common::Rng rng(5);
  GmmParams params;
  params.learning_rate = 0.05;
  GmmBackgroundSubtractor gmm({64, 48}, params);
  for (int i = 0; i < 30; ++i) (void)gmm.apply(make_frame(rng, false));
  // Object appears and never moves; within ~3/alpha frames it must fade.
  int last_hits = 0;
  for (int i = 0; i < 80; ++i) {
    const video::Mask fg = gmm.apply(make_frame(rng, true));
    last_hits = 0;
    for (int y = 20; y < 28; ++y)
      for (int x = 20; x < 28; ++x) last_hits += fg.at(x, y) ? 1 : 0;
  }
  EXPECT_LT(last_hits, 8);
}

TEST(Gmm, IlluminationDriftTolerated) {
  common::Rng rng(6);
  GmmBackgroundSubtractor gmm({64, 48});
  for (int i = 0; i < 30; ++i) (void)gmm.apply(make_frame(rng, false));
  // Shift the whole background slowly by 6 levels over 30 frames.
  int total_fg = 0;
  for (int i = 0; i < 30; ++i) {
    video::Image img = make_frame(rng, false);
    for (std::size_t p = 0; p < img.pixel_count(); ++p)
      img.data()[p] = static_cast<std::uint8_t>(
          std::min(255, img.data()[p] + i / 5));
    const video::Mask fg = gmm.apply(img);
    for (std::size_t p = 0; p < fg.pixel_count(); ++p)
      total_fg += fg.data()[p] ? 1 : 0;
  }
  EXPECT_LT(total_fg, static_cast<int>(30 * 64 * 48 / 50));
}

TEST(Gmm, RejectsMismatchedFrameSize) {
  GmmBackgroundSubtractor gmm({64, 48});
  video::Image wrong(32, 32);
  EXPECT_THROW((void)gmm.apply(wrong), std::invalid_argument);
}

TEST(Gmm, RejectsBadParams) {
  GmmParams params;
  params.num_gaussians = 0;
  EXPECT_THROW(GmmBackgroundSubtractor({64, 48}, params),
               std::invalid_argument);
  params.num_gaussians = 9;
  EXPECT_THROW(GmmBackgroundSubtractor({64, 48}, params),
               std::invalid_argument);
  EXPECT_THROW(GmmBackgroundSubtractor({0, 48}), std::invalid_argument);
}

// The per-pixel update as first written -- one call per pixel, K read at run
// time, std::sort on the components -- kept as the reference the frame
// kernel must reproduce bit for bit.
class ReferenceGmm {
 public:
  ReferenceGmm(common::Size frame, GmmParams params)
      : size_(frame),
        params_(params),
        mixtures_(static_cast<std::size_t>(frame.area()) *
                      static_cast<std::size_t>(params.num_gaussians),
                  Gaussian{0.0f, 0.0f, 0.0f}) {}

  video::Mask apply(const video::Image& frame) {
    video::Mask fg(size_.width, size_.height, 0);
    const std::uint8_t* src = frame.data();
    std::uint8_t* dst = fg.data();
    const auto n = static_cast<std::size_t>(size_.area());
    if (frames_seen_ == 0) {
      for (std::size_t px = 0; px < n; ++px) {
        Gaussian* mix =
            &mixtures_[px * static_cast<std::size_t>(params_.num_gaussians)];
        mix[0] = Gaussian{1.0f, static_cast<float>(src[px]),
                          static_cast<float>(params_.initial_variance)};
      }
    } else {
      for (std::size_t px = 0; px < n; ++px)
        dst[px] = process_pixel(px, static_cast<double>(src[px])) ? 255 : 0;
    }
    ++frames_seen_;
    return fg;
  }

 private:
  struct Gaussian {
    float weight;
    float mean;
    float variance;
  };

  bool process_pixel(std::size_t px, double value) {
    const int k = params_.num_gaussians;
    Gaussian* mix = &mixtures_[px * static_cast<std::size_t>(k)];
    const auto alpha = static_cast<float>(params_.learning_rate);
    int matched = -1;
    for (int i = 0; i < k; ++i) {
      if (mix[i].weight <= 0.0f) break;
      const double d = value - mix[i].mean;
      if (d * d <= params_.match_threshold * mix[i].variance) {
        matched = i;
        break;
      }
    }
    if (matched >= 0) {
      Gaussian& g = mix[matched];
      const double rho = alpha;
      const double d = value - g.mean;
      g.mean += static_cast<float>(rho * d);
      g.variance += static_cast<float>(rho * (d * d - g.variance));
      g.variance =
          std::max(g.variance, static_cast<float>(params_.min_variance));
      for (int i = 0; i < k; ++i) {
        if (mix[i].weight <= 0.0f) break;
        mix[i].weight +=
            alpha * ((i == matched ? 1.0f : 0.0f) - mix[i].weight);
      }
    } else {
      int weakest = 0;
      for (int i = 1; i < k; ++i)
        if (mix[i].weight < mix[weakest].weight) weakest = i;
      mix[weakest] = Gaussian{static_cast<float>(params_.initial_weight),
                              static_cast<float>(value),
                              static_cast<float>(params_.initial_variance)};
    }
    float wsum = 0.0f;
    for (int i = 0; i < k; ++i) wsum += std::max(0.0f, mix[i].weight);
    if (wsum > 0.0f)
      for (int i = 0; i < k; ++i) mix[i].weight /= wsum;
    std::sort(mix, mix + k, [](const Gaussian& a, const Gaussian& b) {
      return a.weight > b.weight;
    });
    float acc = 0.0f;
    for (int i = 0; i < k; ++i) {
      if (mix[i].weight <= 0.0f) break;
      acc += mix[i].weight;
      const double d = value - mix[i].mean;
      if (d * d <= params_.match_threshold * mix[i].variance) return false;
      if (acc >= params_.background_ratio) break;
    }
    return true;
  }

  common::Size size_;
  GmmParams params_;
  std::vector<Gaussian> mixtures_;
  std::size_t frames_seen_ = 0;
};

constexpr common::Size kEquivalenceSize{128, 72};
constexpr int kEquivalenceFrames = 110;

// Frames of a rendered test scene: a noisy static background with moving,
// appearing and departing textured objects.
std::vector<video::Image> rendered_frames() {
  video::SyntheticScene scene(video::test_scene(7));
  video::RasterConfig raster;
  raster.analysis = kEquivalenceSize;
  video::FrameRasterizer rasterizer(scene.spec().frame, raster);
  std::vector<video::Image> frames;
  for (int f = 0; f < kEquivalenceFrames; ++f)
    frames.push_back(rasterizer.render(scene.next_frame()));
  return frames;
}

// Frames where every pixel random-walks and now and then jumps to a new
// level: components keep being replaced and re-ranked, and many distance
// tests land near the match threshold, where a changed rounding anywhere in
// the update would flip a mask bit.
std::vector<video::Image> churning_frames() {
  common::Rng rng(17);
  const auto n = static_cast<std::size_t>(kEquivalenceSize.area());
  std::vector<double> level(n, 128.0);
  std::vector<video::Image> frames;
  for (int f = 0; f < kEquivalenceFrames; ++f) {
    video::Image img(kEquivalenceSize.width, kEquivalenceSize.height, 0);
    for (std::size_t px = 0; px < n; ++px) {
      level[px] = rng.bernoulli(0.08)
                      ? rng.uniform(0.0, 255.0)
                      : std::clamp(level[px] + rng.uniform(-7.0, 7.0), 0.0,
                                   255.0);
      img.data()[px] = static_cast<std::uint8_t>(level[px]);
    }
    frames.push_back(std::move(img));
  }
  return frames;
}

void expect_reference_masks(const std::vector<video::Image>& frames,
                            const GmmParams& params) {
  ReferenceGmm reference(kEquivalenceSize, params);
  GmmBackgroundSubtractor gmm(kEquivalenceSize, params);
  std::size_t foreground = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const video::Mask want = reference.apply(frames[f]);
    const video::Mask got = gmm.apply(frames[f]);
    ASSERT_TRUE(std::equal(want.data(), want.data() + want.pixel_count(),
                           got.data()))
        << "K=" << params.num_gaussians << " alpha=" << params.learning_rate
        << " frame " << f;
    foreground += static_cast<std::size_t>(
        std::count(got.data(), got.data() + got.pixel_count(), 255));
  }
  // K = 1 re-centres its only component on every miss, so it never reports
  // foreground; every other model must have had something to classify.
  if (params.num_gaussians > 1) {
    EXPECT_GT(foreground, 0u);
  }
}

std::vector<GmmParams> equivalence_params() {
  std::vector<GmmParams> all;
  for (const int k : {1, 2, 3, 5, 8}) {
    GmmParams p;
    p.num_gaussians = k;
    all.push_back(p);
  }
  GmmParams fast;  // quick adaptation, short background, loose match
  fast.num_gaussians = 4;
  fast.learning_rate = 0.1;
  fast.background_ratio = 0.6;
  fast.match_threshold = 3.0 * 3.0;
  all.push_back(fast);
  GmmParams slow;  // slow adaptation, deep background, tight match
  slow.num_gaussians = 3;
  slow.learning_rate = 0.005;
  slow.background_ratio = 0.9;
  slow.match_threshold = 2.0 * 2.0;
  slow.initial_weight = 0.2;
  slow.min_variance = 2.0;
  all.push_back(slow);
  return all;
}

TEST(GmmReference, RenderedSceneMasksMatchPerPixelReference) {
  const auto frames = rendered_frames();
  for (const auto& params : equivalence_params())
    expect_reference_masks(frames, params);
}

TEST(GmmReference, ChurningPixelMasksMatchPerPixelReference) {
  const auto frames = churning_frames();
  for (const auto& params : equivalence_params())
    expect_reference_masks(frames, params);
}

}  // namespace
}  // namespace tangram::vision
