#include "vision/gmm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace tangram::vision {
namespace detail {
namespace {

using Constants = GmmMixture::Constants;

// A block's rows: K weight rows, then K mean rows, then K variance rows.
template <int K>
constexpr std::size_t kMeanRow = K;
template <int K>
constexpr std::size_t kVarianceRow = std::size_t{2} * K;
template <int K>
constexpr std::size_t kRowsPerBlock = std::size_t{3} * K;

// ---- Scalar pass ------------------------------------------------------------

// The per-pixel update on lane `lane` of `block`, K components, in place:
// the textbook Stauffer-Grimson step, with the distance test in double and
// the model state in float.  Returns the lane's mask byte.  Inlined into the
// loops that call it, so its K-loops are inner loops GCC unrolls fully
// rather than vectorizes into partial-vector stores.
template <int K>
[[gnu::always_inline]] inline std::uint8_t update_lane(GmmRow* block,
                                                       std::size_t lane,
                                                       double value,
                                                       const Constants& c) {
  // Component i's weight, mean and variance, one row apart.
  constexpr std::size_t kStride = kGmmBlockLanes;
  float* const weight = &block[0].lane[lane];
  float* const mean = &block[kMeanRow<K>].lane[lane];
  float* const variance = &block[kVarianceRow<K>].lane[lane];

  // 1. Find the first matching component (components kept sorted by
  //    weight/sigma fitness, approximated by weight order here).
  int matched = -1;
  double matched_d = 0.0;
  for (int i = 0; i < K; ++i) {
    if (weight[i * kStride] <= 0.0f) break;
    const double d = value - mean[i * kStride];
    if (d * d <= c.match_threshold * variance[i * kStride]) {
      matched = i;
      matched_d = d;
      break;
    }
  }

  // Weights live in registers until they are final; writing them back
  // once keeps the sort's reads off a store that is still in flight.
  float w[K] = {};
  for (int i = 0; i < K; ++i) w[i] = weight[i * kStride];
  if (matched >= 0) {
    // 2a. Update the matched component.  Stauffer-Grimson uses alpha*N(x);
    //     the common practical simplification uses alpha directly.
    float& m = mean[matched * kStride];
    float& v = variance[matched * kStride];
    m += static_cast<float>(c.rho * matched_d);
    v += static_cast<float>(c.rho * (matched_d * matched_d - v));
    v = std::max(v, c.min_variance);
    for (int i = 0; i < K; ++i) {
      if (w[i] <= 0.0f) break;
      w[i] += c.alpha * ((i == matched ? 1.0f : 0.0f) - w[i]);
    }
  } else {
    // 2b. Replace the weakest component with a new one centred on the
    //     value.
    int weakest = 0;
    for (int i = 1; i < K; ++i)
      if (w[i] < w[weakest]) weakest = i;
    mean[weakest * kStride] = static_cast<float>(value);
    variance[weakest * kStride] = c.initial_variance;
    w[weakest] = c.initial_weight;
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
  // holds it moves nothing, and the order, ties included, is exactly
  // std::sort's either way.
  bool in_order = true;
  for (int i = 1; i < K; ++i)
    in_order = in_order & !(w[i] > w[0]) & !(w[i] > w[i - 1]);
  for (int i = 0; i < K; ++i) weight[i * kStride] = w[i];
  if (!in_order) {
    const auto move = [&](int to, int from) {
      weight[to * kStride] = weight[from * kStride];
      mean[to * kStride] = mean[from * kStride];
      variance[to * kStride] = variance[from * kStride];
    };
    for (int i = 1; i < K; ++i) {
      const float moving_weight = weight[i * kStride];
      const float moving_mean = mean[i * kStride];
      const float moving_variance = variance[i * kStride];
      int j = i;
      if (moving_weight > weight[0]) {
        for (; j > 0; --j) move(j, j - 1);
      } else {
        for (; moving_weight > weight[(j - 1) * kStride]; --j) move(j, j - 1);
      }
      weight[j * kStride] = moving_weight;
      mean[j * kStride] = moving_mean;
      variance[j * kStride] = moving_variance;
    }
  }

  // 4. Background = the top components accumulating `background_ratio`
  //    weight.  The pixel is foreground if it matches none of them.
  std::uint8_t foreground = 255;
  float acc = 0.0f;
  for (int i = 0; i < K; ++i) {
    if (weight[i * kStride] <= 0.0f) break;
    acc += weight[i * kStride];
    const double d = value - mean[i * kStride];
    if (d * d <= c.match_threshold * variance[i * kStride]) {
      foreground = 0;  // matches a background component
      break;
    }
    if (acc >= c.background_ratio) break;
  }
  return foreground;
}

template <int K>
GmmRow* block_of(GmmRow* rows, std::size_t px) {
  return rows + px / kGmmBlockLanes * kRowsPerBlock<K>;
}

// Blocks the vector pass runs before the scalar pass finishes their slow
// lanes: 1024 pixels, whose rows (36 KiB at K = 3) are still in cache when
// the scalar pass reads them, and whose slow-lane list fits on the stack.
constexpr std::size_t kChunkBlocks = 128;

// How far past the block it updates the vector pass prefetches the mixture.
// A frame streams the whole mixture once (36 B per pixel at K = 3, 4.7 MB
// at 480x270), and with a dozen cameras' mixtures updated in turn, as a live
// edge fleet does, each one comes back from memory: the pass is then bound
// by memory, not arithmetic, and the hardware prefetchers alone leave it
// waiting.  On a 4-vCPU Xeon VM with AVX2, BM_GmmApplyFleet/12 took a
// median 0.93 ms per apply without prefetching, 0.59 ms prefetching 1 KiB
// ahead, and 0.44-0.54 ms at every distance from 2 to 64 KiB (0.47 ms at
// 16 KiB, 57 blocks at K = 3; 3-7 alternating rounds per distance).  The
// scalar pack has no prefetch: taking about four times as long per frame
// over the same bytes, it is bound by its arithmetic.
constexpr std::size_t kPrefetchAheadBytes = 16 * 1024;
constexpr std::size_t kCacheLineBytes = 64;

// ---- Vector pass (AVX2) -----------------------------------------------------
//
// A block's 8 lanes in registers: each row as one __m256, the double
// arithmetic as two __m256d halves.  Every function that touches a 32-byte
// vector is compiled for AVX2, and all but vector_pass are inlined into it,
// so no such vector crosses a call into baseline x86-64 code (no -Wpsabi).

#if defined(__x86_64__)

// The 8 lanes of a block as doubles: lanes 0-3 and 4-7.
struct Doubles {
  __m256d lo;
  __m256d hi;
};

[[gnu::target("avx2"), gnu::always_inline]] inline Doubles broadcast(double d) {
  return {_mm256_set1_pd(d), _mm256_set1_pd(d)};
}

[[gnu::target("avx2"), gnu::always_inline]] inline Doubles widen(__m256 f) {
  return {_mm256_cvtps_pd(_mm256_castps256_ps128(f)),
          _mm256_cvtps_pd(_mm256_extractf128_ps(f, 1))};
}

[[gnu::target("avx2"), gnu::always_inline]] inline __m256 narrow(Doubles d) {
  return _mm256_set_m128(_mm256_cvtpd_ps(d.hi), _mm256_cvtpd_ps(d.lo));
}

[[gnu::target("avx2"), gnu::always_inline]] inline Doubles operator-(
    Doubles a, Doubles b) {
  return {a.lo - b.lo, a.hi - b.hi};
}

[[gnu::target("avx2"), gnu::always_inline]] inline Doubles operator*(
    Doubles a, Doubles b) {
  return {a.lo * b.lo, a.hi * b.hi};
}

// Bit i set iff lane i of `a` compares true against lane i of `b`.
template <int kPredicate>
[[gnu::target("avx2"), gnu::always_inline]] inline unsigned compare_bits(
    Doubles a, Doubles b) {
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(a.lo, b.lo, kPredicate)) |
      (_mm256_movemask_pd(_mm256_cmp_pd(a.hi, b.hi, kPredicate)) << 4));
}

// The 8 pixel values at `src`, as doubles.
[[gnu::target("avx2"), gnu::always_inline]] inline Doubles load_values(
    const std::uint8_t* src) {
  std::int64_t bytes = 0;
  std::memcpy(&bytes, src, sizeof bytes);
  const __m256i ints = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(bytes));
  return {_mm256_cvtepi32_pd(_mm256_castsi256_si128(ints)),
          _mm256_cvtepi32_pd(_mm256_extracti128_si256(ints, 1))};
}

// Lane i all ones iff bit i of `bits` is set.
[[gnu::target("avx2"), gnu::always_inline]] inline __m256 lane_mask(
    unsigned bits) {
  const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i set = _mm256_and_si256(
      _mm256_set1_epi32(static_cast<std::int32_t>(bits)), lane_bit);
  return _mm256_castsi256_ps(_mm256_cmpeq_epi32(set, lane_bit));
}

// Write `v` to the lanes of `row` that `mask` selects.
[[gnu::target("avx2"), gnu::always_inline]] inline void commit(GmmRow& row,
                                                               __m256 mask,
                                                               __m256 v) {
  _mm256_storeu_ps(row.lane,
                   _mm256_blendv_ps(_mm256_loadu_ps(row.lane), v, mask));
}

// kForegroundBytes[b]: a block's 8 mask bytes when the lanes set in `b` are
// background (0) and the rest foreground (255), as one little-endian word.
constexpr std::array<std::uint64_t, 256> foreground_bytes() {
  std::array<std::uint64_t, 256> bytes{};
  for (std::size_t b = 0; b < bytes.size(); ++b)
    for (std::size_t lane = 0; lane < kGmmBlockLanes; ++lane)
      if (((b >> lane) & 1) == 0) bytes[b] |= std::uint64_t{0xFF} << (8 * lane);
  return bytes;
}
constexpr std::array<std::uint64_t, 256> kForegroundBytes = foreground_bytes();

// The vector pass over blocks [begin, end) of the `row_count` rows at `rows`:
// commit and classify every lane it can, write the others' pixel indices to
// `slow_lanes` (room for 8 per block) and return how many it wrote.  Selects
// are intrinsics: blendv, and _mm256_max_ps(a, b), which is a > b ? a : b --
// std::max(b, a) lane for lane, NaN included.
template <int K>
[[gnu::target("avx2")]] std::size_t vector_pass(const Constants& c,
                                                const std::uint8_t* src,
                                                std::uint8_t* dst, GmmRow* rows,
                                                std::size_t row_count,
                                                std::size_t begin,
                                                std::size_t end,
                                                std::uint32_t* slow_lanes) {
  constexpr unsigned kAllLanes = 0xFF;
  constexpr std::size_t kBlockBytes = kRowsPerBlock<K> * sizeof(GmmRow);
  // Prefetches are clamped to the mixture's last byte: near the end they
  // repeat it rather than point past the mixture.
  const char* const mixture = reinterpret_cast<const char*>(rows);
  const std::size_t last_byte = row_count * sizeof(GmmRow) - 1;
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 alpha = _mm256_set1_ps(c.alpha);
  const __m256 min_variance = _mm256_set1_ps(c.min_variance);
  const Doubles rho = broadcast(c.rho);
  const Doubles threshold = broadcast(c.match_threshold);
  const Doubles ratio = broadcast(c.background_ratio);

  std::size_t slow_count = 0;
  for (std::size_t b = begin; b < end; ++b) {
    const std::size_t ahead = b * kBlockBytes + kPrefetchAheadBytes;
    for (std::size_t line = 0; line < kBlockBytes; line += kCacheLineBytes)
      _mm_prefetch(mixture + std::min(ahead + line, last_byte), _MM_HINT_T0);
    GmmRow* block = rows + b * kRowsPerBlock<K>;
    const std::size_t first = b * kGmmBlockLanes;
    __m256 w[K];
    for (int i = 0; i < K; ++i) w[i] = _mm256_loadu_ps(block[i].lane);
    const __m256 mean = _mm256_loadu_ps(block[kMeanRow<K>].lane);
    const __m256 var = _mm256_loadu_ps(block[kVarianceRow<K>].lane);
    const Doubles value = load_values(src + first);
    const Doubles var_d = widen(var);

    // 1. The distance test on component 0.
    const Doubles d = value - widen(mean);
    const Doubles dd = d * d;
    const unsigned matched = compare_bits<_CMP_LE_OQ>(dd, threshold * var_d);

    // 2a. Update component 0 as if it matched; the commit below keeps only
    //     the lanes where it did.
    const __m256 new_mean = mean + narrow(rho * d);
    const __m256 new_var =
        _mm256_max_ps(min_variance, var + narrow(rho * (dd - var_d)));
    // The weight update stops at the first empty component; `live` marks
    // the components it reaches.
    const __m256 live0 = _mm256_cmp_ps(w[0], zero, _CMP_NLE_UQ);
    w[0] = w[0] + alpha * (one - w[0]);
    __m256 live = live0;
    for (int i = 1; i < K; ++i) {
      live = _mm256_and_ps(live, _mm256_cmp_ps(w[i], zero, _CMP_NLE_UQ));
      w[i] = _mm256_blendv_ps(w[i], w[i] + alpha * (zero - w[i]), live);
    }

    // 3. Renormalize.  A lane whose weights need reordering, or do not sum
    //    above zero, is left to the scalar pass.
    __m256 wsum = zero;
    for (int i = 0; i < K; ++i) wsum = wsum + _mm256_max_ps(w[i], zero);
    for (int i = 0; i < K; ++i) w[i] = w[i] / wsum;
    __m256 in_order = _mm256_cmp_ps(wsum, zero, _CMP_GT_OQ);
    for (int i = 1; i < K; ++i) {
      const __m256 front = _mm256_cmp_ps(w[i], w[0], _CMP_NGT_UQ);
      const __m256 left = _mm256_cmp_ps(w[i], w[i - 1], _CMP_NGT_UQ);
      in_order = _mm256_and_ps(in_order, _mm256_and_ps(front, left));
    }

    // 4. The background test on component 0.  It decides the lane when
    //    component 0 is empty, matches, or alone reaches the background
    //    ratio -- or is the only component.
    const auto empty = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(w[0], zero, _CMP_LE_OQ)));
    const unsigned full = compare_bits<_CMP_GE_OQ>(widen(zero + w[0]), ratio);
    const Doubles e = value - widen(new_mean);
    const unsigned near =
        compare_bits<_CMP_LE_OQ>(e * e, threshold * widen(new_var));
    const unsigned decided = K == 1 ? kAllLanes : (empty | near | full);
    const auto live_in_order = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_and_ps(live0, in_order)));
    const unsigned fast = live_in_order & matched & decided;

    if (fast == kAllLanes) {
      for (int i = 0; i < K; ++i) _mm256_storeu_ps(block[i].lane, w[i]);
      _mm256_storeu_ps(block[kMeanRow<K>].lane, new_mean);
      _mm256_storeu_ps(block[kVarianceRow<K>].lane, new_var);
    } else {
      const __m256 selected = lane_mask(fast);
      for (int i = 0; i < K; ++i) commit(block[i], selected, w[i]);
      commit(block[kMeanRow<K>], selected, new_mean);
      commit(block[kVarianceRow<K>], selected, new_var);
    }

    const unsigned background = ~empty & near & kAllLanes;
    std::memcpy(dst + first, &kForegroundBytes[background], kGmmBlockLanes);
    for (unsigned slow = ~fast & kAllLanes; slow != 0; slow &= slow - 1)
      slow_lanes[slow_count++] =
          static_cast<std::uint32_t>(first + std::countr_zero(slow));
  }
  return slow_count;
}

#endif  // __x86_64__

}  // namespace

bool gmm_lane_pack_supported(GmmLanePack pack) {
  if (pack == GmmLanePack::kScalar) return true;
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

GmmLanePack gmm_fastest_lane_pack() {
  return gmm_lane_pack_supported(GmmLanePack::kAvx2) ? GmmLanePack::kAvx2
                                                     : GmmLanePack::kScalar;
}

GmmMixture::GmmMixture(std::size_t pixels, const GmmParams& params,
                       GmmLanePack pack)
    : pixels_(pixels),
      k_(params.num_gaussians),
      constants_{static_cast<float>(params.learning_rate),
                 static_cast<double>(static_cast<float>(params.learning_rate)),
                 params.match_threshold,
                 params.background_ratio,
                 static_cast<float>(params.min_variance),
                 static_cast<float>(params.initial_weight),
                 static_cast<float>(params.initial_variance)},
      pack_(pack) {
  if (pixels == 0 || pixels > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("GmmMixture: pixel count out of range");
  if (k_ < 1 || k_ > 8)
    throw std::invalid_argument("GmmMixture: K must be in 1..8");
  if (!gmm_lane_pack_supported(pack))
    throw std::invalid_argument("GmmMixture: lane pack not supported here");
  const std::size_t blocks = (pixels + kGmmBlockLanes - 1) / kGmmBlockLanes;
  rows_.resize(blocks * 3 * static_cast<std::size_t>(k_));
}

template <int K>
std::size_t GmmMixture::update(const std::uint8_t* src, std::uint8_t* dst) {
  GmmRow* rows = rows_.data();
  // Locals, not members: a store to the rows (float) or to the mask (which
  // may alias anything) would otherwise force a reload of each constant.
  const Constants constants = constants_;
  const std::size_t pixels = pixels_;
  // The blocks the vector pass runs; the scalar pack has none.
  const std::size_t blocks =
      pack_ == GmmLanePack::kScalar ? 0 : pixels / kGmmBlockLanes;
  std::size_t slow = 0;
#if defined(__x86_64__)
  std::array<std::uint32_t, kChunkBlocks * kGmmBlockLanes> slow_lanes{};
  for (std::size_t begin = 0; begin < blocks; begin += kChunkBlocks) {
    const std::size_t end = std::min(blocks, begin + kChunkBlocks);
    const std::size_t count = vector_pass<K>(constants, src, dst, rows,
                                             rows_.size(), begin, end,
                                             slow_lanes.data());
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t px = slow_lanes[i];
      dst[px] = update_lane<K>(block_of<K>(rows, px), px % kGmmBlockLanes,
                               src[px], constants);
    }
    slow += count;
  }
#endif
  // The blocks after the vector pass's -- the padded last block, or every
  // block for the scalar pack -- take the scalar pass lane by lane.
  for (std::size_t b = blocks; b * kGmmBlockLanes < pixels; ++b) {
    GmmRow* block = rows + b * kRowsPerBlock<K>;
    const std::size_t first = b * kGmmBlockLanes;
    const std::size_t lanes = std::min(kGmmBlockLanes, pixels - first);
    for (std::size_t lane = 0; lane < lanes; ++lane)
      dst[first + lane] =
          update_lane<K>(block, lane, src[first + lane], constants);
    slow += lanes;
  }
  return slow;
}

GmmMixture::Component GmmMixture::component(std::size_t px, int i) const {
  const auto k = static_cast<std::size_t>(k_);
  const auto row = static_cast<std::size_t>(i);
  const GmmRow* block = rows_.data() + px / kGmmBlockLanes * 3 * k;
  const std::size_t lane = px % kGmmBlockLanes;
  return {block[row].lane[lane], block[k + row].lane[lane],
          block[2 * k + row].lane[lane]};
}

std::size_t GmmMixture::apply(const std::uint8_t* src, std::uint8_t* dst) {
  std::size_t slow = 0;
  if (frames_seen_ == 0) {
    // Bootstrap: initialize the dominant component from the first frame and
    // report no foreground (the model has no history yet).
    const auto k = static_cast<std::size_t>(k_);
    for (std::size_t px = 0; px < pixels_; ++px) {
      GmmRow* block = rows_.data() + px / kGmmBlockLanes * 3 * k;
      const std::size_t lane = px % kGmmBlockLanes;
      block[0].lane[lane] = 1.0f;
      block[k].lane[lane] = static_cast<float>(src[px]);
      block[2 * k].lane[lane] = constants_.initial_variance;
    }
    std::fill(dst, dst + pixels_, std::uint8_t{0});
  } else {
    // The constructor holds K to 1..8.
    switch (k_) {
      case 1:
        slow = update<1>(src, dst);
        break;
      case 2:
        slow = update<2>(src, dst);
        break;
      case 3:
        slow = update<3>(src, dst);
        break;
      case 4:
        slow = update<4>(src, dst);
        break;
      case 5:
        slow = update<5>(src, dst);
        break;
      case 6:
        slow = update<6>(src, dst);
        break;
      case 7:
        slow = update<7>(src, dst);
        break;
      default:
        slow = update<8>(src, dst);
        break;
    }
  }
  ++frames_seen_;
  return slow;
}

}  // namespace detail

namespace {

std::size_t checked_area(common::Size frame) {
  if (frame.empty())
    throw std::invalid_argument("GmmBackgroundSubtractor: empty frame size");
  return static_cast<std::size_t>(frame.area());
}

}  // namespace

GmmBackgroundSubtractor::GmmBackgroundSubtractor(common::Size frame,
                                                 GmmParams params)
    : size_(frame),
      params_(params),
      mixture_(checked_area(frame), params_,
               detail::gmm_fastest_lane_pack()) {}

video::Mask GmmBackgroundSubtractor::apply(const video::Image& frame) {
  if (frame.size() != size_)
    throw std::invalid_argument("GmmBackgroundSubtractor: frame size mismatch");
  video::Mask fg(size_.width, size_.height, 0);
  (void)mixture_.apply(frame.data(), fg.data());
  return fg;
}

}  // namespace tangram::vision
