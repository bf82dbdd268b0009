// Deterministic random number generation.
//
// Every stochastic component in the simulator draws from an explicitly seeded
// Rng so experiments are bit-reproducible across runs and machines.  The
// engine is PCG32 (O'Neill 2014): tiny state, excellent statistical quality,
// and — unlike std::mt19937 — identical streams across standard libraries.
//
// Per-sim seeding contract (reproducibility): Rng is a 16-byte value type
// with NO static or global state — this header defines no globals, never
// touches ::rand/std::random_device, and every draw mutates only the owning
// object.  Each simulation owns its Rngs (seeded from its config seed,
// decorrelated via the `stream` parameter or fork()), so a run's result
// depends on its config alone: the same run repeated, in the same process
// after any other runs or in another process, is byte-identical.  Do not
// share one Rng object across sims — hand each consumer its own seeded
// instance instead, which is also what keeps a sim's draws independent of
// what else draws, and when.
//
// Leapfrogging.  PCG32's state is a 64-bit LCG, so n steps compose into one
// step state -> state * A + C (Brown, "Random number generation with
// arbitrary strides", 1994).  A kernel that draws L values per step can run
// L lanes that each start j draws in and move by the L-step jump: lane j
// then emits draws j, j + L, j + 2L, ... of the sequential stream, exactly
// (video/raster.cpp's AVX2 noise pass does this with L = 8).

#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

namespace tangram::common {

// PCG32's LCG multiplier.
inline constexpr std::uint64_t kPcgMultiplier = 6364136223846793005ULL;

// PCG32's output permutation (XSH-RR): the draw a state yields.
constexpr std::uint32_t pcg_output(std::uint64_t state) {
  const auto xorshifted =
      static_cast<std::uint32_t>(((state >> 18u) ^ state) >> 27u);
  const auto rot = static_cast<std::uint32_t>(state >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

// Some number of LCG steps of one stream as a single step.
struct PcgJump {
  std::uint64_t multiplier;
  std::uint64_t increment;

  [[nodiscard]] constexpr std::uint64_t operator()(std::uint64_t state) const {
    return state * multiplier + increment;
  }
};

class Rng {
 public:
  // `seed` selects the stream content; `stream` selects one of 2^63
  // independent sequences for the same seed (used to decorrelate e.g.
  // per-camera noise from per-function latency jitter).
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 1) {
    state_ = 0;
    inc_ = (stream << 1u) | 1u;
    next_u32();
    state_ += seed;
    next_u32();
  }

  std::uint32_t next_u32() {
    const std::uint64_t old = state_;
    state_ = old * kPcgMultiplier + inc_;
    return pcg_output(old);
  }

  std::uint64_t next_u64() {
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  }

  // Uniform in [0, 1).
  double uniform() { return next_u32() * 0x1.0p-32; }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  int uniform_int(int lo, int hi) {
    const auto span = static_cast<std::uint32_t>(hi - lo + 1);
    return lo + static_cast<int>(bounded(span));
  }

  bool bernoulli(double p) { return uniform() < p; }

  // Standard normal via Box–Muller (no cached second value — simplicity over
  // a 2x speedup that never matters here).
  double normal() {
    double u1 = uniform();
    if (u1 <= 1e-300) u1 = 1e-300;
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  // Lognormal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  double exponential(double rate) {
    double u = uniform();
    if (u <= 1e-300) u = 1e-300;
    return -std::log(u) / rate;
  }

  int poisson(double mean) {
    // Knuth's algorithm; fine for the small means used here (< ~50).
    const double limit = std::exp(-mean);
    int k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }

  // Derive an independent child generator (e.g. one per camera).
  Rng fork(std::uint64_t salt) {
    return Rng(next_u64() ^ (salt * 0x9e3779b97f4a7c15ULL), next_u64() | 1);
  }

  // ---- Leapfrog (see the file comment) ----
  // The state the next draw comes from: next_u32() == pcg_output(state()).
  [[nodiscard]] std::uint64_t state() const { return state_; }

  // The step of `n` draws on this stream, by squaring: O(log n).
  [[nodiscard]] PcgJump jump(std::uint64_t n) const {
    PcgJump total{1, 0};
    PcgJump square{kPcgMultiplier, inc_};
    for (; n != 0; n >>= 1u) {
      if ((n & 1u) != 0)
        total = {total.multiplier * square.multiplier, square(total.increment)};
      square = {square.multiplier * square.multiplier,
                (square.multiplier + 1) * square.increment};
    }
    return total;
  }

  // Skip `n` draws: leaves the generator where n next_u32() calls would.
  void advance(std::uint64_t n) { state_ = jump(n)(state_); }

 private:
  // Lemire-style unbiased bounded draw.
  std::uint32_t bounded(std::uint32_t bound) {
    if (bound <= 1) return 0;
    const std::uint32_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint32_t r = next_u32();
      if (r >= threshold) return r % bound;
    }
  }

  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
};

}  // namespace tangram::common
