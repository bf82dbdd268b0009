#include "common/rng.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace tangram::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123, 5), b(123, 5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(123, 5), b(124, 5);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next_u32() == b.next_u32()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, DifferentStreamsDiverge) {
  Rng a(123, 1), b(123, 2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next_u32() == b.next_u32()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const int v = rng.uniform_int(2, 7);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 7);
    ++counts[static_cast<std::size_t>(v - 2)];
  }
  // Roughly uniform: each bucket within 10% of expectation.
  for (const int c : counts) EXPECT_NEAR(c, 10000, 1000);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, PoissonMean) {
  Rng rng(23);
  double sum = 0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(3.5);
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng rng(29);
  std::vector<double> values;
  constexpr int n = 20001;
  values.reserve(n);
  for (int i = 0; i < n; ++i) values.push_back(rng.lognormal(0.0, 0.5));
  std::nth_element(values.begin(), values.begin() + n / 2, values.end());
  EXPECT_NEAR(values[n / 2], 1.0, 0.05);  // median of lognormal(0, s) is 1
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31, 1);
  Rng child = parent.fork(42);
  Rng parent2(31, 1);
  Rng child2 = parent2.fork(42);
  // Same derivation -> same stream.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next_u32(), child2.next_u32());
  // Different salt -> different stream.
  Rng parent3(31, 1);
  Rng other = parent3.fork(43);
  Rng child3 = Rng(31, 1).fork(42);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (other.next_u32() == child3.next_u32()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, ConcurrentSameSeedStreamsIdentical) {
  // Rng is a 16-byte value type with no static or global state, so two
  // identically-seeded generators advanced on racing threads must emit the
  // same sequence: any hidden shared state would make them interfere here.
  constexpr int kDraws = 100000;
  std::vector<std::uint64_t> left(kDraws), right(kDraws);
  const auto fill = [](std::vector<std::uint64_t>& out) {
    Rng rng(2024, 17);
    for (auto& v : out) v = rng.next_u64();
  };
  std::thread a(fill, std::ref(left));
  std::thread b(fill, std::ref(right));
  a.join();
  b.join();
  EXPECT_EQ(left, right);
}

// `n` draws made the way video/raster.cpp's AVX2 noise pass makes them, on
// scalars: lane j starts at jump(j)(state()), every step emits each lane's
// pcg_output and moves it by jump(lanes), advance() then skips the draws
// the lanes made, and next_u32() makes the n % lanes after the last step.
std::vector<std::uint32_t> leapfrog_draws(Rng& rng, std::size_t n,
                                          std::size_t lanes) {
  std::vector<std::uint64_t> lane(lanes);
  for (std::size_t j = 0; j < lanes; ++j) lane[j] = rng.jump(j)(rng.state());
  const PcgJump step = rng.jump(lanes);
  const std::size_t stepped = n - n % lanes;
  std::vector<std::uint32_t> draws(n);
  for (std::size_t i = 0; i < stepped; i += lanes) {
    for (std::size_t j = 0; j < lanes; ++j) {
      draws[i + j] = pcg_output(lane[j]);
      lane[j] = step(lane[j]);
    }
  }
  rng.advance(stepped);
  for (std::size_t i = stepped; i < n; ++i) draws[i] = rng.next_u32();
  return draws;
}

TEST(RngLeapfrog, ReproducesSequentialDrawsAndFinalState) {
  std::vector<std::size_t> counts;
  for (std::size_t n = 0; n <= 17; ++n) counts.push_back(n);
  counts.push_back(1000);
  counts.push_back(129603);  // a 480x270 frame plus 3
  const std::pair<std::uint64_t, std::uint64_t> streams[] = {
      {0x853c49e6748fea9bULL, 1}, {99, 11}, {2024, 17}, {7, 1ULL << 62}};
  for (const auto& [seed, stream] : streams) {
    for (const std::size_t lanes : {std::size_t{8}, std::size_t{3}}) {
      for (const std::size_t n : counts) {
        Rng sequential(seed, stream);
        Rng leapfrog(seed, stream);
        std::vector<std::uint32_t> want(n);
        for (auto& draw : want) draw = sequential.next_u32();
        EXPECT_EQ(leapfrog_draws(leapfrog, n, lanes), want)
            << "seed " << seed << " lanes " << lanes << " n " << n;
        EXPECT_EQ(leapfrog.state(), sequential.state())
            << "seed " << seed << " lanes " << lanes << " n " << n;
        EXPECT_EQ(leapfrog.next_u32(), sequential.next_u32());
      }
    }
  }
}

}  // namespace
}  // namespace tangram::common
