#include "vision/gmm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/alloc_probe.h"
#include "common/rng.h"
#include "video/raster.h"
#include "video/scene_catalog.h"
#include "vision/gmm_kernel.h"

TANGRAM_DEFINE_ALLOC_PROBE_HOOK();

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

TEST(Gmm, WarmApplyAllocatesOnlyItsMask) {
  common::Rng rng(8);
  GmmBackgroundSubtractor gmm({64, 48});
  for (int i = 0; i < 5; ++i) (void)gmm.apply(make_frame(rng, i % 2 == 0));
  const video::Image frame = make_frame(rng, true, 30, 12);
  const common::AllocationProbe probe;
  const video::Mask mask = gmm.apply(frame);
  EXPECT_EQ(probe.allocations(), 1u);  // the mask's pixel buffer
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

  struct Gaussian {
    float weight;
    float mean;
    float variance;
  };

  // Component `i` of pixel `px`, as the last frame left it.
  [[nodiscard]] const Gaussian& component(std::size_t px, int i) const {
    return mixtures_[px * static_cast<std::size_t>(params_.num_gaussians) +
                     static_cast<std::size_t>(i)];
  }

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
// 2747 pixels: the last mixture block has 3 live lanes and 5 padded ones.
constexpr common::Size kTailSize{67, 41};
constexpr int kEquivalenceFrames = 110;

// Frames of a rendered test scene: a noisy static background with moving,
// appearing and departing textured objects.
std::vector<video::Image> rendered_frames(common::Size size) {
  video::SyntheticScene scene(video::test_scene(7));
  video::RasterConfig raster;
  raster.analysis = size;
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
std::vector<video::Image> churning_frames(common::Size size) {
  common::Rng rng(17);
  const auto n = static_cast<std::size_t>(size.area());
  std::vector<double> level(n, 128.0);
  std::vector<video::Image> frames;
  for (int f = 0; f < kEquivalenceFrames; ++f) {
    video::Image img(size.width, size.height, 0);
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

// A float w with 1 / (1 + w) == w exactly, about 0.618.  With it as the
// initial weight, K = 3 and three far-apart values, the third frame leaves
// weights [w, q, w] with q < w, so after renormalizing, a tie the sort must
// order as std::sort does (the new component after the older one).
constexpr double kTieWeight = 0x1.3c6ef4p-1;
static_assert(1.0f / (1.0f + static_cast<float>(kTieWeight)) ==
              static_cast<float>(kTieWeight));

GmmParams tie_params() {
  GmmParams p;
  p.num_gaussians = 3;
  p.initial_weight = kTieWeight;
  // Below the tied weight (~0.38 once renormalized): only the first of the
  // tied pair is background, so their order decides the third frame's mask.
  p.background_ratio = 0.3;
  return p;
}

// Uniform frames at levels a match never bridges (initial sigma ~11):
// three misses build the tie, then the levels come back in turn.
std::vector<video::Image> tie_frames(common::Size size) {
  std::vector<video::Image> frames;
  for (const int level : {40, 100, 160, 160, 40, 100, 220, 100, 40})
    frames.emplace_back(size.width, size.height,
                        static_cast<std::uint8_t>(level));
  return frames;
}

std::vector<GmmParams> equivalence_params() {
  std::vector<GmmParams> all;
  for (int k = 1; k <= 8; ++k) {
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

enum class FrameKind { kRendered, kChurning, kTied };

// One frame sequence under one parameter set.
struct EquivalenceCase {
  FrameKind kind;
  common::Size size;
  const std::vector<video::Image>* frames;
  GmmParams params;
};

// Every rendered and churning frame set x parameter set, plus the tied
// frames under tie_params(); built once per test binary.
const std::vector<EquivalenceCase>& equivalence_cases() {
  static const std::vector<std::vector<video::Image>> frame_sets{
      rendered_frames(kEquivalenceSize), churning_frames(kEquivalenceSize),
      rendered_frames(kTailSize), churning_frames(kTailSize)};
  static const std::vector<video::Image> tied = tie_frames(kEquivalenceSize);
  static const std::vector<EquivalenceCase> cases = [] {
    std::vector<EquivalenceCase> all;
    for (std::size_t set = 0; set < frame_sets.size(); ++set) {
      const FrameKind kind =
          set % 2 == 1 ? FrameKind::kChurning : FrameKind::kRendered;
      const common::Size size = set < 2 ? kEquivalenceSize : kTailSize;
      for (const auto& params : equivalence_params())
        all.push_back({kind, size, &frame_sets[set], params});
    }
    all.push_back({FrameKind::kTied, kEquivalenceSize, &tied, tie_params()});
    return all;
  }();
  return cases;
}

std::string describe(const EquivalenceCase& c) {
  std::ostringstream out;
  static constexpr const char* kKindNames[] = {"rendered", "churning", "tied"};
  out << kKindNames[static_cast<int>(c.kind)] << " " << c.size.width << "x"
      << c.size.height << " K=" << c.params.num_gaussians
      << " alpha=" << c.params.learning_rate;
  return out.str();
}

// The first component of `mixture` whose weight, mean or variance differs
// from the reference's in any bit, described; empty if there is none.  The
// masks alone would miss a last-bit difference (an FMA contracted into the
// update, say) that no threshold test happens to straddle.
std::string state_mismatch(const detail::GmmMixture& mixture,
                           const ReferenceGmm& reference, std::size_t pixels,
                           int k) {
  const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
  for (std::size_t px = 0; px < pixels; ++px) {
    for (int i = 0; i < k; ++i) {
      const detail::GmmMixture::Component got = mixture.component(px, i);
      const ReferenceGmm::Gaussian& want = reference.component(px, i);
      if (bits(got.weight) != bits(want.weight) ||
          bits(got.mean) != bits(want.mean) ||
          bits(got.variance) != bits(want.variance)) {
        std::ostringstream out;
        out.precision(9);
        out << "pixel " << px << " component " << i << ": (weight, mean, "
            << "variance) = (" << got.weight << ", " << got.mean << ", "
            << got.variance << "), reference (" << want.weight << ", "
            << want.mean << ", " << want.variance << ")";
        return out.str();
      }
    }
  }
  return {};
}

// Run case `c` through `apply`, which takes a frame and returns its mask's
// bytes, beside ReferenceGmm, and check after every frame the mask and, if
// `mixture` is given, the state it holds; stops at the first mismatch.
// K = 1 re-centres its only component on every miss, so it never reports
// foreground; every other model must have had something to classify on the
// full-size frames.  (The slow parameter set finds none in the small
// churning frames, so the tail cases are not held to that.)
template <class Apply>
void expect_reference_run(const EquivalenceCase& c, Apply apply,
                          const detail::GmmMixture* mixture = nullptr) {
  ReferenceGmm reference(c.size, c.params);
  const auto pixels = static_cast<std::size_t>(c.size.area());
  std::size_t foreground = 0;
  for (std::size_t f = 0; f < c.frames->size(); ++f) {
    const video::Image& frame = (*c.frames)[f];
    const video::Mask want = reference.apply(frame);
    const std::uint8_t* got = apply(frame);
    if (!std::equal(want.data(), want.data() + pixels, got)) {
      ADD_FAILURE() << describe(c) << " frame " << f << ": masks differ";
      return;
    }
    if (mixture != nullptr) {
      const std::string diff = state_mismatch(*mixture, reference, pixels,
                                              c.params.num_gaussians);
      if (!diff.empty()) {
        ADD_FAILURE() << describe(c) << " frame " << f << ": " << diff;
        return;
      }
    }
    foreground += static_cast<std::size_t>(std::count(got, got + pixels, 255));
  }
  if (c.params.num_gaussians > 1 && c.size == kEquivalenceSize) {
    EXPECT_GT(foreground, 0u) << describe(c);
  }
}

// The public subtractor runs whichever pack the CPU supports best.
TEST(GmmReference, SubtractorMasksMatchPerPixelReference) {
  for (const auto& c : equivalence_cases()) {
    GmmBackgroundSubtractor gmm(c.size, c.params);
    video::Mask mask;
    expect_reference_run(c, [&](const video::Image& frame) {
      mask = gmm.apply(frame);
      return mask.data();
    });
  }
}

class GmmLanePackReference
    : public ::testing::TestWithParam<detail::GmmLanePack> {};

// Each lane pack, driven directly, against the per-pixel reference -- the
// masks and every component's weight, mean and variance after every frame:
// all K from 1 to 8, a padded last block, weight ties, and -- on the
// churning frames -- lanes through both the vector and the scalar pass.
TEST_P(GmmLanePackReference, MasksAndStateMatchPerPixelReference) {
  const detail::GmmLanePack pack = GetParam();
  if (!detail::gmm_lane_pack_supported(pack))
    GTEST_SKIP() << "lane pack not supported by this build or CPU";
  for (const auto& c : equivalence_cases()) {
    const auto pixels = static_cast<std::size_t>(c.size.area());
    detail::GmmMixture mixture(pixels, c.params, pack);
    std::vector<std::uint8_t> mask(pixels);
    std::size_t slow_lanes = 0;
    expect_reference_run(
        c,
        [&](const video::Image& frame) {
          slow_lanes += mixture.apply(frame.data(), mask.data());
          return mask.data();
        },
        &mixture);
    const std::size_t updated_lanes = (c.frames->size() - 1) * pixels;
    if (pack == detail::GmmLanePack::kScalar) {
      EXPECT_EQ(slow_lanes, updated_lanes) << describe(c);
    } else if (c.kind == FrameKind::kChurning) {
      EXPECT_GT(slow_lanes, 0u) << describe(c);
      EXPECT_LT(slow_lanes, updated_lanes) << describe(c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPacks, GmmLanePackReference,
    ::testing::Values(detail::GmmLanePack::kScalar, detail::GmmLanePack::kAvx2),
    [](const ::testing::TestParamInfo<detail::GmmLanePack>& info) {
      return std::string(info.param == detail::GmmLanePack::kScalar ? "Scalar"
                                                                    : "Avx2");
    });

TEST(GmmLanePack, FastestIsSupportedAndScalarAlwaysIs) {
  EXPECT_TRUE(detail::gmm_lane_pack_supported(detail::GmmLanePack::kScalar));
  EXPECT_TRUE(detail::gmm_lane_pack_supported(detail::gmm_fastest_lane_pack()));
}

}  // namespace
}  // namespace tangram::vision
