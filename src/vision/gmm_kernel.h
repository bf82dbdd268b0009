// Internal: the GMM mixture state and the kernels that update it.
//
// GmmBackgroundSubtractor (gmm.h) is the public face; tests drive each lane
// pack through GmmMixture directly.  The kernels live in gmm.cpp, which the
// build compiles with FP contraction off.
//
// Layout.  The mixture is stored in blocks of kGmmBlockLanes pixels.  A block
// holds K weight rows, then K mean rows, then K variance rows, one float per
// pixel each -- still 12 bytes per component per pixel; only the last block
// is padded.  Pixel p is lane p % 8 of block p / 8.
//
// Update.  A frame runs in two passes.  The vector pass (AVX2, one block of
// 8 lanes at a time) updates, in registers, every lane whose first match is
// component 0 and whose renormalized weights need no reordering, commits
// those lanes with a select, and classifies them with the background test on
// component 0.  Every other lane -- no match at component 0, a reorder, or a
// background test component 0 does not decide -- goes on a slow-lane list,
// and the scalar pass runs the per-pixel update on that lane's K components.
// The passes alternate every 128 blocks, so the list is a fixed stack buffer
// and the scalar pass finds its rows in cache.  Both passes use the same
// IEEE operations in the same order (the distance test and the
// mean/variance update in double, the weights in float), so the masks are
// bit-identical whichever pack runs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tangram::vision {

struct GmmParams;

namespace detail {

inline constexpr std::size_t kGmmBlockLanes = 8;

// One parameter of one component for the kGmmBlockLanes pixels of a block.
// Aligned to 16 bytes, the default new alignment: a 32-byte-aligned type
// would be allocated with aligned_alloc, and glibc keeps freed multi-MiB
// aligned blocks on its heap, so peak RSS grew by a mixture per trace build.
struct alignas(16) GmmRow {
  float lane[kGmmBlockLanes];
};

// Which passes a mixture runs.
enum class GmmLanePack {
  kScalar,  // no vector pass: the per-pixel update on every lane
  kAvx2,    // the AVX2 vector pass, then the scalar pass on the slow lanes
};

// Whether this build and this CPU can run `pack`: kScalar always, kAvx2 on
// an x86-64 CPU with AVX2.
[[nodiscard]] bool gmm_lane_pack_supported(GmmLanePack pack);

// kAvx2 where it is supported, else kScalar.
[[nodiscard]] GmmLanePack gmm_fastest_lane_pack();

class GmmMixture {
 public:
  // Throws std::invalid_argument unless `pixels` > 0, K is in 1..8 and
  // `pack` is supported.
  GmmMixture(std::size_t pixels, const GmmParams& params, GmmLanePack pack);

  // The first frame seeds component 0 of every pixel and reports no
  // foreground; every later frame updates the model.  Writes one mask byte
  // per pixel of `src` to `dst` (255 = foreground) and returns the number of
  // lanes the scalar pass finished.
  std::size_t apply(const std::uint8_t* src, std::uint8_t* dst);

  [[nodiscard]] std::size_t frames_seen() const { return frames_seen_; }

  // Component `i` (0 <= i < K, heaviest first) of pixel `px` (< pixels), as
  // the last frame left it.
  struct Component {
    float weight;
    float mean;
    float variance;
  };
  [[nodiscard]] Component component(std::size_t px, int i) const;

  // The parameters, hoisted into the types the update computes in.
  struct Constants {
    float alpha;
    double rho;
    double match_threshold;
    double background_ratio;
    float min_variance;
    float initial_weight;
    float initial_variance;
  };

 private:
  template <int K>
  std::size_t update(const std::uint8_t* src, std::uint8_t* dst);

  std::size_t pixels_;
  int k_;
  Constants constants_;
  GmmLanePack pack_;
  std::vector<GmmRow> rows_;  // ceil(pixels / 8) blocks of 3K rows
  std::size_t frames_seen_ = 0;
};

}  // namespace detail
}  // namespace tangram::vision
