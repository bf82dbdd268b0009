// Streaming statistics and empirical distributions.
//
// RunningStats implements Welford's online algorithm, which every latency /
// cost / efficiency aggregate in the benchmarks uses.  Sampler keeps the raw
// values so percentile and CDF queries are exact — by default unbounded
// (sample counts in the paper-replication benches are thousands, so the
// memory is irrelevant).  For city-scale sweeps (10k streams x dozens of
// telemetry series per sim) a Sampler can instead be constructed with a
// fixed reservoir capacity: mean/stddev/min/max/count stay exact over every
// sample seen, while quantile/CDF queries answer from a uniform reservoir
// (Vitter's Algorithm R) whose memory never exceeds the capacity.  The
// reservoir's RNG is embedded and fixed-seeded, so a bounded Sampler is a
// pure function of its add() sequence — bit-reproducible across runs.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace tangram::common {

class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

  void merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double delta = other.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
    mean_ += delta * nb / (na + nb);
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Retains raw samples for exact quantile / CDF queries; with a capacity it
// degrades gracefully into a fixed-size uniform reservoir (see file header).
class Sampler {
 public:
  Sampler() = default;
  // capacity == 0: retain every sample (exact quantiles, unbounded memory).
  // capacity  > 0: retain a uniform reservoir of at most `capacity` samples.
  explicit Sampler(std::size_t capacity) : capacity_(capacity) {}

  void add(double x) {
    stats_.add(x);
    if (capacity_ == 0 || values_.size() < capacity_) {
      values_.push_back(x);
      sorted_ = false;
      return;
    }
    // Algorithm R: the i-th sample (1-based) replaces a random reservoir
    // slot with probability capacity / i, keeping the retained set a
    // uniform sample of everything seen.  Modulo bias is ~capacity/2^64 —
    // irrelevant statistically, and the draw itself is deterministic.
    const auto slot =
        static_cast<std::size_t>(reservoir_rng_.next_u64() % stats_.count());
    if (slot < capacity_) {
      values_[slot] = x;
      sorted_ = false;
    }
  }

  // Total samples observed (NOT the retained-reservoir size; for that, use
  // values().size()).  Identical to values().size() when unbounded.
  [[nodiscard]] std::size_t count() const { return stats_.count(); }
  [[nodiscard]] bool empty() const { return stats_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const RunningStats& stats() const { return stats_; }
  [[nodiscard]] double mean() const { return stats_.mean(); }
  [[nodiscard]] double stddev() const { return stats_.stddev(); }
  // Retained samples: everything seen when unbounded, the reservoir when
  // capacity-bounded.
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  // Quantile q in [0,1] with linear interpolation between order statistics.
  [[nodiscard]] double quantile(double q) const {
    if (values_.empty())
      throw std::logic_error("Sampler::quantile on empty sampler");
    ensure_sorted();
    if (q <= 0.0) return sorted_values_.front();
    if (q >= 1.0) return sorted_values_.back();
    const double pos = q * static_cast<double>(sorted_values_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= sorted_values_.size()) return sorted_values_.back();
    return sorted_values_[lo] * (1.0 - frac) + sorted_values_[lo + 1] * frac;
  }

  // Empirical CDF: fraction of samples <= x.
  [[nodiscard]] double cdf(double x) const {
    if (values_.empty()) return 0.0;
    ensure_sorted();
    const auto it =
        std::upper_bound(sorted_values_.begin(), sorted_values_.end(), x);
    return static_cast<double>(it - sorted_values_.begin()) /
           static_cast<double>(sorted_values_.size());
  }

  // Evenly spaced (x, CDF(x)) pairs covering [min, max]; used by the
  // figure-reproduction benches to print CDF series.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf_series(
      int points) const {
    std::vector<std::pair<double, double>> out;
    if (values_.empty() || points < 2) return out;
    ensure_sorted();
    const double lo = sorted_values_.front();
    const double hi = sorted_values_.back();
    out.reserve(static_cast<std::size_t>(points));
    for (int i = 0; i < points; ++i) {
      const double x =
          lo + (hi - lo) * static_cast<double>(i) / (points - 1);
      out.emplace_back(x, cdf(x));
    }
    return out;
  }

 private:
  void ensure_sorted() const {
    if (!sorted_) {
      sorted_values_ = values_;
      std::sort(sorted_values_.begin(), sorted_values_.end());
      sorted_ = true;
    }
  }

  std::size_t capacity_ = 0;  // 0 = unbounded
  // Fixed seed: reservoir contents depend only on the add() sequence, never
  // on global state — required for runs to be bit-identical whatever else
  // the process ran before them.
  Rng reservoir_rng_{0x5eedc0ffee1234abULL, 0x51};
  std::vector<double> values_;
  mutable std::vector<double> sorted_values_;
  mutable bool sorted_ = false;
  RunningStats stats_;
};

}  // namespace tangram::common
