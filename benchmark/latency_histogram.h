// Exact fixed-resolution latency histogram for tangram_bench.
//
// Counts every sample in 0.1 ms buckets, so memory grows with the largest
// latency seen, never with the number of samples: a run twice as long keeps
// the same footprint, and peak RSS measures the system's working set rather
// than the run length.  Quantiles are rank-interpolated inside the bucket,
// which keeps them continuous (two different runs rarely land on the same
// value) while staying within one bucket of the exact order statistic.
// Exact zeros (a stage a patch skipped) are counted apart and read as zero.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace tangram_bench {

class LatencyHistogram {
 public:
  static constexpr double kResolutionS = 1e-4;

  void add(double seconds) {
    ++count_;
    if (!(seconds > 0.0)) {
      ++zeros_;
      return;
    }
    const auto bucket = static_cast<std::size_t>(seconds / kResolutionS);
    if (bucket >= counts_.size()) counts_.resize(bucket + 1);
    ++counts_[bucket];
  }

  // q-quantile in seconds (0 when empty).
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_ - 1);
    if (rank < static_cast<double>(zeros_)) return 0.0;
    std::uint64_t below = zeros_;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      const std::uint64_t here = counts_[b];
      if (here != 0 && static_cast<double>(below + here) > rank) {
        const double within = (rank - static_cast<double>(below) + 0.5) /
                              static_cast<double>(here);
        return (static_cast<double>(b) + within) * kResolutionS;
      }
      below += here;
    }
    return static_cast<double>(counts_.size()) * kResolutionS;
  }

 private:
  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t zeros_ = 0;
};

}  // namespace tangram_bench
