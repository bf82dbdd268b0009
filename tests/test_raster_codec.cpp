#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "video/codec.h"
#include "video/raster.h"
#include "video/scene_catalog.h"

namespace tangram::video {
namespace {

RasterConfig small_raster() {
  RasterConfig c;
  c.analysis = {160, 90};
  return c;
}

TEST(FrameRasterizer, RendersAtAnalysisResolution) {
  FrameRasterizer r({1920, 1080}, small_raster());
  FrameTruth truth;
  const Image img = r.render(truth);
  EXPECT_EQ(img.width(), 160);
  EXPECT_EQ(img.height(), 90);
}

TEST(FrameRasterizer, CoordinateMappingRoundTrips) {
  FrameRasterizer r({1920, 1080}, small_raster());
  const common::Rect native{480, 270, 240, 135};
  const common::Rect analysis = r.to_analysis(native);
  EXPECT_EQ(analysis, (common::Rect{40, 22, 20, 12}));
  // Scaling back up covers the original region (outward rounding).
  EXPECT_TRUE(r.to_native(analysis).contains(native));
}

TEST(FrameRasterizer, ObjectsContrastWithBackground) {
  RasterConfig config = small_raster();
  config.noise_sigma = 0.0;
  FrameRasterizer with_obj({1920, 1080}, config);
  FrameRasterizer without_obj({1920, 1080}, config);

  FrameTruth truth;
  truth.objects.push_back({0, common::Rect{480, 270, 480, 405}});
  const Image a = with_obj.render(truth);
  const Image b = without_obj.render(FrameTruth{});

  // Inside the object's footprint the images differ markedly.
  double diff_inside = 0;
  int n = 0;
  for (int y = 25; y < 50; ++y)
    for (int x = 42; x < 78; ++x) {
      diff_inside += std::abs(static_cast<double>(a.at(x, y)) - b.at(x, y));
      ++n;
    }
  EXPECT_GT(diff_inside / n, 5.0);
}

TEST(FrameRasterizer, BackgroundIsTemporallyStable) {
  FrameRasterizer r({1920, 1080}, small_raster());
  FrameTruth t0, t1;
  t1.frame_index = 1;
  t1.timestamp = 1.0;
  const Image a = r.render(t0);
  const Image b = r.render(t1);
  double total_diff = 0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x)
      total_diff += std::abs(static_cast<double>(a.at(x, y)) - b.at(x, y));
  // Only noise + drift: small average difference.
  EXPECT_LT(total_diff / a.pixel_count(), 8.0);
}

// ---- render against the per-pixel reference --------------------------------

// The noise loop as first written: one rng.uniform() per pixel.  Like
// src/video/raster.cpp, this file is compiled with FP contraction off.
void reference_noise(std::uint8_t* px, std::size_t n, double drift,
                     double half_width, common::Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    const double noisy = px[i] + drift + rng.uniform(-half_width, half_width);
    px[i] = static_cast<std::uint8_t>(std::clamp(noisy, 0.0, 255.0));
  }
}

double reference_hash01(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t h = a * 0x9E3779B97F4A7C15ULL ^ b * 0xC2B2AE3D27D4EB4FULL ^
                    c * 0x165667B19E3779F9ULL;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// FrameRasterizer as it was before its noise had a vector path, kept as the
// reference every path must reproduce bit for bit: the same background,
// per-pixel noise, drift and object painting.
class ReferenceRasterizer {
 public:
  ReferenceRasterizer(common::Size native, RasterConfig config)
      : config_(config),
        sx_(static_cast<double>(config.analysis.width) / native.width),
        sy_(static_cast<double>(config.analysis.height) / native.height),
        background_(config.analysis.width, config.analysis.height),
        noise_rng_(config.seed, 11) {
    common::Rng rng(config.seed, 3);
    const double fx1 = rng.uniform(0.5, 2.0), fy1 = rng.uniform(0.5, 2.0);
    const double fx2 = rng.uniform(2.0, 5.0), fy2 = rng.uniform(2.0, 5.0);
    const double p1 = rng.uniform(0, 6.28), p2 = rng.uniform(0, 6.28);
    for (int y = 0; y < background_.height(); ++y) {
      for (int x = 0; x < background_.width(); ++x) {
        const double u = static_cast<double>(x) / background_.width();
        const double v = static_cast<double>(y) / background_.height();
        const double val =
            125.0 +
            28.0 * std::cos(2 * 3.14159265 * (fx1 * u + fy1 * v) + p1) +
            12.0 * std::cos(2 * 3.14159265 * (fx2 * u - fy2 * v) + p2);
        background_.at(x, y) =
            static_cast<std::uint8_t>(std::clamp(val, 60.0, 200.0));
      }
    }
  }

  Image render(const FrameTruth& truth) {
    Image frame = background_;
    reference_noise(frame.data(), frame.pixel_count(), drift(truth),
                    config_.noise_sigma * 1.7320508, noise_rng_);
    for (const auto& obj : truth.objects) {
      const common::Rect r = common::clamp_to(
          common::scale_rect(obj.box, sx_, sy_),
          common::Rect{0, 0, frame.width(), frame.height()});
      const auto id = static_cast<std::uint64_t>(obj.id);
      const double contrast =
          config_.min_contrast + (config_.max_contrast - config_.min_contrast) *
                                     reference_hash01(id, 41, 53);
      const double offset =
          (reference_hash01(id, 17, 29) < 0.5 ? -1.0 : 1.0) * contrast;
      for (int y = r.top(); y < r.bottom(); ++y) {
        for (int x = r.left(); x < r.right(); ++x) {
          const double tex =
              18.0 * (reference_hash01(id, static_cast<std::uint64_t>(x / 2),
                                       static_cast<std::uint64_t>(y / 2)) -
                      0.5);
          const double val = background_.at(x, y) + offset + tex;
          frame.at(x, y) =
              static_cast<std::uint8_t>(std::clamp(val, 5.0, 250.0));
        }
      }
    }
    return frame;
  }

  [[nodiscard]] double drift(const FrameTruth& truth) const {
    return config_.illum_drift *
           std::sin(2 * 3.14159265 * truth.timestamp / config_.illum_period_s);
  }
  [[nodiscard]] const Image& background() const { return background_; }

 private:
  RasterConfig config_;
  double sx_, sy_;
  Image background_;
  common::Rng noise_rng_;
};

// One render case: analysis size, raster seed and the timestamp the frames
// start at (the illumination drift's phase).
struct RenderCase {
  common::Size analysis;
  std::uint64_t seed;
  double start_s;
};

std::vector<RenderCase> render_cases() {
  std::vector<RenderCase> all;
  // 67x41 = 2747 pixels: not a multiple of 8, so the AVX2 path ends on the
  // scalar loop.
  for (const common::Size size : {common::Size{480, 270}, common::Size{67, 41}})
    for (const std::uint64_t seed : {99ULL, 1ULL, 0xC0FFEEULL})
      for (const double start_s : {0.0, 70.0, 190.0})
        all.push_back({size, seed, start_s});
  return all;
}

std::string describe(const RenderCase& c) {
  std::ostringstream out;
  out << c.analysis.width << "x" << c.analysis.height << " seed " << c.seed
      << " start " << c.start_s << " s";
  return out.str();
}

// Frames of PANDA scene 1 (native 3840x2160) from `start_s` on, then frames
// with objects clipped at every border of the native frame.
std::vector<FrameTruth> render_truths(double start_s) {
  const SceneSpec spec = panda4k_scene(1);
  SyntheticScene scene(spec);
  std::vector<FrameTruth> truths;
  for (int f = 0; f < 12; ++f) {
    FrameTruth truth = scene.next_frame();
    truth.timestamp += start_s;
    truths.push_back(std::move(truth));
  }
  const int w = spec.frame.width;
  const int h = spec.frame.height;
  for (int f = 0; f < 3; ++f) {
    FrameTruth truth;
    truth.frame_index = 12 + f;
    truth.timestamp = start_s + 12.5 + f * 7.0;
    truth.objects = {{1, {-150, -90, 400 + 10 * f, 300}},
                     {2, {w - 230, h - 170, 500, 400}},
                     {3, {w / 2, -40 - f, 120, 200}},
                     {4, {-60, h / 3, 200, 150 + f}},
                     {5, {w - 1, h - 1, 90, 90}},
                     {6, {w + 50, 100, 80, 80}}};
    truths.push_back(std::move(truth));
  }
  return truths;
}

// The public render runs the fastest noise path the CPU has.
TEST(RenderReference, FramesMatchPerPixelReference) {
  for (const auto& c : render_cases()) {
    RasterConfig config;
    config.analysis = c.analysis;
    config.seed = c.seed;
    const SceneSpec spec = panda4k_scene(1);
    FrameRasterizer rasterizer(spec.frame, config);
    ReferenceRasterizer reference(spec.frame, config);
    const std::vector<FrameTruth> truths = render_truths(c.start_s);
    for (std::size_t f = 0; f < truths.size(); ++f) {
      const Image got = rasterizer.render(truths[f]);
      const Image want = reference.render(truths[f]);
      ASSERT_TRUE(std::equal(want.data(), want.data() + want.pixel_count(),
                             got.data()))
          << describe(c) << " frame " << f;
    }
  }
}

class NoisePathReference
    : public ::testing::TestWithParam<detail::NoisePath> {};

// Each noise path, driven directly, against the per-pixel loop: the bytes
// and the generator's next draw after every frame.
TEST_P(NoisePathReference, BytesAndNextDrawMatchPerPixelLoop) {
  const detail::NoisePath path = GetParam();
  if (!detail::noise_path_supported(path))
    GTEST_SKIP() << "noise path not supported by this build or CPU";
  for (const auto& c : render_cases()) {
    RasterConfig config;
    config.analysis = c.analysis;
    config.seed = c.seed;
    const ReferenceRasterizer base(panda4k_scene(1).frame, config);
    const double half_width = config.noise_sigma * 1.7320508;
    common::Rng want_rng(c.seed, 11);
    common::Rng got_rng(c.seed, 11);
    for (const FrameTruth& truth : render_truths(c.start_s)) {
      const double drift = base.drift(truth);
      Image want = base.background();
      Image got = base.background();
      reference_noise(want.data(), want.pixel_count(), drift, half_width,
                      want_rng);
      detail::add_sensor_noise(got.data(), got.pixel_count(), drift,
                               half_width, got_rng, path);
      ASSERT_TRUE(std::equal(want.data(), want.data() + want.pixel_count(),
                             got.data()))
          << describe(c) << " frame " << truth.frame_index;
      ASSERT_EQ(got_rng.state(), want_rng.state()) << describe(c);
      common::Rng got_next = got_rng;
      common::Rng want_next = want_rng;
      ASSERT_EQ(got_next.next_u32(), want_next.next_u32()) << describe(c);
    }
  }
}

// Pixels across the whole byte range, wide noise and a large drift, so both
// ends of the clamp are hit, and every length from 0 to 40.
TEST_P(NoisePathReference, ClampedBytesMatchPerPixelLoop) {
  const detail::NoisePath path = GetParam();
  if (!detail::noise_path_supported(path))
    GTEST_SKIP() << "noise path not supported by this build or CPU";
  common::Rng pixels(5, 7);
  common::Rng want_rng(77, 11);
  common::Rng got_rng(77, 11);
  std::size_t clamped = 0;
  for (std::size_t n = 0; n <= 40; ++n) {
    for (const double drift : {-30.5, 0.0, 17.25}) {
      std::vector<std::uint8_t> want(n);
      for (auto& p : want) p = static_cast<std::uint8_t>(pixels.next_u32());
      std::vector<std::uint8_t> got = want;
      reference_noise(want.data(), n, drift, 40.0, want_rng);
      detail::add_sensor_noise(got.data(), n, drift, 40.0, got_rng, path);
      ASSERT_EQ(got, want) << "n " << n << " drift " << drift;
      ASSERT_EQ(got_rng.state(), want_rng.state()) << "n " << n;
      clamped += static_cast<std::size_t>(
          std::count_if(want.begin(), want.end(),
                        [](std::uint8_t p) { return p == 0 || p == 255; }));
    }
  }
  EXPECT_GT(clamped, 0u);
}

// A half-width under which draw `at` of `rng`'s stream, added to a zero
// pixel with no drift, truncates one way when `lo + span * u` rounds twice,
// as written, and the other way when an FMA rounds it once; 0 if no
// candidate near the first few integers is one.
double contraction_canary(const common::Rng& rng, std::size_t at) {
  common::Rng draw = rng;
  draw.advance(at);
  const double u = draw.next_u32() * 0x1.0p-32;
  if (u <= 0.5) return 0.0;
  for (int level = 1; level <= 16; ++level) {
    double half_width = level / (2 * u - 1);
    for (int ulp = 0; ulp < 16; ++ulp) {
      const double lo = -half_width;
      const double span = half_width - lo;
      const double twice = lo + span * u;  // this file: contraction off
      const double once = std::fma(span, u, lo);
      if (static_cast<int>(twice) != static_cast<int>(once)) return half_width;
      half_width = std::nextafter(half_width, 0.0);
    }
  }
  return 0.0;
}

// An FMA in the noise changes a byte only where the two roundings straddle
// an integer, which rendered frames almost never hit.  So build such pixels
// from the stream itself, in the vector part (draw 0) and in the scalar
// remainder (draw 8) of a 9-pixel frame, and check each path rounds twice,
// as the per-pixel loop does: under an FMA -march, a build without
// -ffp-contract=off on raster.cpp or on this file fails here.
TEST_P(NoisePathReference, RoundsLikeTheUncontractedLoop) {
  const detail::NoisePath path = GetParam();
  if (!detail::noise_path_supported(path))
    GTEST_SKIP() << "noise path not supported by this build or CPU";
  std::size_t canaries = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const common::Rng rng(seed, 11);
    for (const std::size_t at : {std::size_t{0}, std::size_t{8}}) {
      const double half_width = contraction_canary(rng, at);
      if (half_width == 0.0) continue;
      std::vector<std::uint8_t> want(9, 0);
      std::vector<std::uint8_t> got(9, 0);
      common::Rng want_rng = rng;
      common::Rng got_rng = rng;
      reference_noise(want.data(), want.size(), 0.0, half_width, want_rng);
      detail::add_sensor_noise(got.data(), got.size(), 0.0, half_width,
                               got_rng, path);
      ASSERT_EQ(got, want) << "seed " << seed << " draw " << at;
      ++canaries;
    }
  }
  EXPECT_GE(canaries, 8u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, NoisePathReference,
    ::testing::Values(detail::NoisePath::kScalar, detail::NoisePath::kAvx2),
    [](const ::testing::TestParamInfo<detail::NoisePath>& info) {
      return std::string(info.param == detail::NoisePath::kScalar ? "Scalar"
                                                                  : "Avx2");
    });

TEST(NoisePath, FastestIsSupportedAndScalarAlwaysIs) {
  EXPECT_TRUE(detail::noise_path_supported(detail::NoisePath::kScalar));
  EXPECT_TRUE(detail::noise_path_supported(detail::fastest_noise_path()));
}

TEST(Image, FillRectClamps) {
  Image img(10, 10, 0);
  img.fill_rect({8, 8, 5, 5}, 255);
  EXPECT_EQ(img.at(9, 9), 255);
  EXPECT_EQ(img.at(7, 7), 0);
  img.fill_rect({-3, -3, 4, 4}, 7);
  EXPECT_EQ(img.at(0, 0), 7);
}

TEST(Image, RejectsBadDimensions) {
  EXPECT_THROW(Image(0, 5), std::invalid_argument);
  EXPECT_THROW(Image(5, -1), std::invalid_argument);
}

// --- codec ---------------------------------------------------------------

TEST(CodecModel, FullFrameBytesPlausible) {
  const CodecModel codec;
  // A 4K frame at ~8% content should encode to roughly 1-2 MB.
  const std::size_t bytes = codec.full_frame_bytes({3840, 2160}, 0.08);
  EXPECT_GT(bytes, 800u * 1024);
  EXPECT_LT(bytes, 2u * 1024 * 1024);
}

TEST(CodecModel, MoreContentCostsMoreBits) {
  const CodecModel codec;
  EXPECT_GT(codec.full_frame_bytes({3840, 2160}, 0.15),
            codec.full_frame_bytes({3840, 2160}, 0.05));
  EXPECT_GT(codec.masked_frame_bytes({3840, 2160}, 0.15, 1000.0),
            codec.masked_frame_bytes({3840, 2160}, 0.05, 1000.0));
}

TEST(CodecModel, MaskedNearFullFrame) {
  // Fig. 9: masked frames land within ~±35% of the full-frame bytes
  // (typical merged-RoI perimeters in the traces are a few 10^4 px).
  const CodecModel codec;
  for (const double cf : {0.05, 0.10, 0.15}) {
    const double full = static_cast<double>(
        codec.full_frame_bytes({3840, 2160}, cf));
    const double masked = static_cast<double>(
        codec.masked_frame_bytes({3840, 2160}, cf, 3.0e4));
    EXPECT_GT(masked / full, 0.8) << "cf=" << cf;
    EXPECT_LT(masked / full, 1.35) << "cf=" << cf;
  }
}

TEST(CodecModel, PatchBytesScaleWithArea) {
  const CodecModel codec;
  const std::size_t small = codec.patch_bytes({100, 100});
  const std::size_t large = codec.patch_bytes({200, 200});
  // 4x area -> a bit under 4x bytes (fixed per-message header).
  const double ratio = static_cast<double>(large) / small;
  EXPECT_GT(ratio, 3.0);
  EXPECT_LE(ratio, 4.0);
}

TEST(CodecModel, ElfEncodeCostsMoreThanPatchEncode) {
  const CodecModel codec;
  EXPECT_GT(codec.elf_patch_bytes({300, 300}),
            2 * codec.patch_bytes({300, 300}));
}

TEST(CodecModel, HeaderDominatesTinyMessages) {
  const CodecModel codec;
  const std::size_t bytes = codec.patch_bytes({4, 4});
  EXPECT_GE(bytes, 600u);  // per-message overhead floor
}

}  // namespace
}  // namespace tangram::video
