#include "video/raster.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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
  // the noise most of a frame's render time, and with GMM vectorized,
  // rendering is about a quarter of a live edge frame and of trace
  // generation -- hence the AVX2 path (detail::add_sensor_noise).
  const double drift =
      config_.illum_drift *
      std::sin(2 * 3.14159265 * truth.timestamp / config_.illum_period_s);
  const double half_width = config_.noise_sigma * 1.7320508;
  detail::add_sensor_noise(frame.data(), frame.pixel_count(), drift,
                           half_width, noise_rng_,
                           detail::fastest_noise_path());

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

namespace detail {
namespace {

// Pixels [begin, n) of add_sensor_noise, one draw each: the whole frame on
// the scalar path, the pixels after the last multiple of 8 on the AVX2 one.
void add_noise_scalar(std::uint8_t* px, std::size_t begin, std::size_t n,
                      double drift, double half_width, common::Rng& rng) {
  for (std::size_t i = begin; i < n; ++i) {
    const double noisy = px[i] + drift + rng.uniform(-half_width, half_width);
    px[i] = static_cast<std::uint8_t>(std::clamp(noisy, 0.0, 255.0));
  }
}

// ---- AVX2 path --------------------------------------------------------------
//
// 8 pixels per step, each from its own PCG lane: lane j starts j draws into
// the stream and every step moves all lanes 8 draws on (common::Rng's
// leapfrog), so pixel i still gets draw i.  The lanes' 64-bit states are two
// __m256i of 4; the noise arithmetic runs on two __m256d of 4, with the
// scalar loop's IEEE operations in its order.  As in vision/gmm.cpp, every
// function that touches a 32-byte vector is compiled for AVX2 and all but
// add_noise_avx2 are inlined into it, so no such vector crosses a call into
// baseline x86-64 code.

#if defined(__x86_64__)

constexpr std::size_t kNoiseLanes = 8;

[[gnu::target("avx2"), gnu::always_inline]] inline __m256i broadcast_u64(
    std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<std::int64_t>(v));
}

// Per 64-bit lane: x * m mod 2^64, with m given as its low and high 32-bit
// halves (each in the low half of the lane).  AVX2 multiplies only 32x32 ->
// 64 bits; the high x high product falls off the top.
[[gnu::target("avx2"), gnu::always_inline]] inline __m256i multiply_u64(
    __m256i x, __m256i m_low, __m256i m_high) {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), m_low),
                       _mm256_mul_epu32(x, m_high));
  return _mm256_add_epi64(_mm256_mul_epu32(x, m_low),
                          _mm256_slli_epi64(cross, 32));
}

// common::pcg_output of each 64-bit lane's state, as an exact double.
[[gnu::target("avx2"), gnu::always_inline]] inline __m256d pcg_output_pd(
    __m256i state) {
  const __m256i xorshifted = _mm256_srli_epi64(
      _mm256_xor_si256(_mm256_srli_epi64(state, 18), state), 27);
  // The low 32 bits copied into the high 32: rotating that 32-bit word
  // right by `rot` is shifting the doubled word right by `rot`.
  const __m256i doubled =
      _mm256_shuffle_epi32(xorshifted, _MM_SHUFFLE(2, 2, 0, 0));
  const __m256i rotated =
      _mm256_srlv_epi64(doubled, _mm256_srli_epi64(state, 59));
  // u32 -> double: the word under a high half of 0x43300000 is the double
  // 2^52 + word, exactly.
  const __m256i two_52_bits = _mm256_set1_epi64x(0x4330000000000000);
  const __m256i biased = _mm256_blend_epi32(rotated, two_52_bits, 0xAA);
  return _mm256_castsi256_pd(biased) - _mm256_castsi256_pd(two_52_bits);
}

// Pixels [0, n - n % 8) of add_sensor_noise; returns how many it did.
[[gnu::target("avx2")]] std::size_t add_noise_avx2(std::uint8_t* px,
                                                   std::size_t n, double drift,
                                                   double half_width,
                                                   common::Rng& rng) {
  const std::size_t done = n - n % kNoiseLanes;
  if (done == 0) return 0;

  alignas(32) std::uint64_t start[kNoiseLanes];
  for (std::size_t j = 0; j < kNoiseLanes; ++j)
    start[j] = rng.jump(j)(rng.state());
  __m256i state_lo = _mm256_load_si256(reinterpret_cast<__m256i*>(start));
  __m256i state_hi = _mm256_load_si256(reinterpret_cast<__m256i*>(start + 4));
  const common::PcgJump step = rng.jump(kNoiseLanes);
  const __m256i step_low = broadcast_u64(step.multiplier & 0xFFFFFFFFu);
  const __m256i step_high = broadcast_u64(step.multiplier >> 32);
  const __m256i step_add = broadcast_u64(step.increment);

  // rng.uniform(lo, hi) is lo + (hi - lo) * (draw * 2^-32).
  const double lo = -half_width;
  const double hi = half_width;
  const __m256d lo_v = _mm256_set1_pd(lo);
  const __m256d span = _mm256_set1_pd(hi - lo);
  const __m256d scale = _mm256_set1_pd(0x1.0p-32);
  const __m256d drift_v = _mm256_set1_pd(drift);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d max_level = _mm256_set1_pd(255.0);

  for (std::size_t i = 0; i < done; i += kNoiseLanes) {
    std::int64_t bytes = 0;
    std::memcpy(&bytes, px + i, sizeof bytes);
    const __m256i ints = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(bytes));
    const __m256d value_lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(ints));
    const __m256d value_hi =
        _mm256_cvtepi32_pd(_mm256_extracti128_si256(ints, 1));
    const __m256d noise_lo = lo_v + span * (pcg_output_pd(state_lo) * scale);
    const __m256d noise_hi = lo_v + span * (pcg_output_pd(state_hi) * scale);
    // std::clamp(v, 0, 255) is std::min(std::max(v, 0), 255), and
    // std::max(v, 0) is v < 0 ? 0 : v: _mm256_max_pd(0, v), since
    // _mm256_max_pd(a, b) is a > b ? a : b.  Likewise for the min.
    const __m256d clamped_lo = _mm256_min_pd(
        max_level, _mm256_max_pd(zero, (value_lo + drift_v) + noise_lo));
    const __m256d clamped_hi = _mm256_min_pd(
        max_level, _mm256_max_pd(zero, (value_hi + drift_v) + noise_hi));
    const __m128i words = _mm_packus_epi32(_mm256_cvttpd_epi32(clamped_lo),
                                           _mm256_cvttpd_epi32(clamped_hi));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(px + i),
                     _mm_packus_epi16(words, words));
    state_lo = _mm256_add_epi64(multiply_u64(state_lo, step_low, step_high),
                                step_add);
    state_hi = _mm256_add_epi64(multiply_u64(state_hi, step_low, step_high),
                                step_add);
  }
  rng.advance(done);
  return done;
}

#endif  // __x86_64__

}  // namespace

bool noise_path_supported(NoisePath path) {
  if (path == NoisePath::kScalar) return true;
#if defined(__x86_64__)
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

NoisePath fastest_noise_path() {
  return noise_path_supported(NoisePath::kAvx2) ? NoisePath::kAvx2
                                                : NoisePath::kScalar;
}

void add_sensor_noise(std::uint8_t* px, std::size_t n, double drift,
                      double half_width, common::Rng& rng, NoisePath path) {
  if (!noise_path_supported(path))
    throw std::invalid_argument("add_sensor_noise: path not supported here");
  std::size_t done = 0;
#if defined(__x86_64__)
  if (path == NoisePath::kAvx2)
    done = add_noise_avx2(px, n, drift, half_width, rng);
#endif
  add_noise_scalar(px, done, n, drift, half_width, rng);
}

}  // namespace detail
}  // namespace tangram::video
