#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <latch>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

namespace smartmem {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(RngTest, UniformBoundOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(13);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.uniform(kBuckets)];
  }
  const double expected = kSamples / static_cast<double>(kBuckets);
  for (int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.1);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(29);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(ZipfTest, SamplesInRange) {
  Rng rng(31);
  ZipfSampler zipf(1000, 0.9);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(zipf.sample(rng), 1000u);
  }
}

TEST(ZipfTest, HeadIsHotterThanTail) {
  Rng rng(37);
  ZipfSampler zipf(10000, 0.9);
  int head = 0, tail = 0;
  for (int i = 0; i < 50000; ++i) {
    const auto v = zipf.sample(rng);
    if (v < 100) ++head;
    if (v >= 9900) ++tail;
  }
  // The first 1% of ranks should be hit far more than the last 1%.
  EXPECT_GT(head, tail * 10);
}

TEST(ZipfTest, ExponentControlsSkew) {
  Rng rng(41);
  ZipfSampler mild(10000, 0.5), strong(10000, 1.2);
  auto head_fraction = [&rng](const ZipfSampler& z) {
    int head = 0;
    for (int i = 0; i < 30000; ++i) {
      if (z.sample(rng) < 100) ++head;
    }
    return head / 30000.0;
  };
  EXPECT_GT(head_fraction(strong), head_fraction(mild) * 2);
}

TEST(ZipfTest, SingleElementAlwaysZero) {
  Rng rng(43);
  ZipfSampler z(1, 0.9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(z.sample(rng), 0u);
}

// Parameterized sweep: for any (n, s), samples stay in range and rank 0 is
// the most frequent element (the defining zipf property).
class ZipfSweep : public ::testing::TestWithParam<std::pair<std::uint64_t, double>> {};

TEST_P(ZipfSweep, FirstRankDominates) {
  const auto [n, s] = GetParam();
  Rng rng(47);
  ZipfSampler z(n, s);
  std::vector<int> counts(std::min<std::uint64_t>(n, 64), 0);
  for (int i = 0; i < 40000; ++i) {
    const auto v = z.sample(rng);
    ASSERT_LT(v, n);
    if (v < counts.size()) ++counts[static_cast<std::size_t>(v)];
  }
  int max_count = 0;
  for (std::size_t i = 1; i < counts.size(); ++i) {
    max_count = std::max(max_count, counts[i]);
  }
  EXPECT_GE(counts[0], max_count);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ZipfSweep,
    ::testing::Values(std::pair<std::uint64_t, double>{10, 0.5},
                      std::pair<std::uint64_t, double>{100, 0.8},
                      std::pair<std::uint64_t, double>{1000, 0.9},
                      std::pair<std::uint64_t, double>{100000, 0.99},
                      std::pair<std::uint64_t, double>{100000, 1.3},
                      std::pair<std::uint64_t, double>{7, 1.0}));

// ---- Table-driven sampler against the table-free reference -----------------

// The sampler as it was before it had a table: rejection-inversion computing
// exp(log1p(.)) on every step. The table-driven sampler must reproduce its
// draws exactly.
class ReferenceZipf {
 public:
  ReferenceZipf(std::uint64_t n, double s) : n_(n), s_(s) {
    h_integral_x1_ = h_integral(1.5) - 1.0;
    h_integral_n_ = h_integral(static_cast<double>(n) + 0.5);
    threshold_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
  }

  std::uint64_t sample(Rng& rng) const {
    while (true) {
      const double u = h_integral_n_ +
                       rng.uniform_double() * (h_integral_x1_ - h_integral_n_);
      const std::uint64_t k = step(u);
      if (k < n_) return k;
    }
  }

  std::uint64_t step(double u) const {
    const double x = h_integral_inverse(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= threshold_ || u >= h_integral(kd + 0.5) - h(kd)) {
      return k - 1;
    }
    return n_;
  }

  double h(double x) const { return std::exp(-s_ * std::log(x)); }
  double h_integral(double x) const {
    const double log_x = std::log(x);
    if (std::abs(1.0 - s_) > 1e-8) {
      return std::expm1((1.0 - s_) * log_x) / (1.0 - s_);
    }
    return log_x;
  }
  double h_integral_inverse(double x) const {
    double t = x * (1.0 - s_);
    if (t < -1.0) t = -1.0;
    if (std::abs(1.0 - s_) > 1e-8) {
      return std::exp(std::log1p(t) / (1.0 - s_));
    }
    return std::exp(x);
  }

  double threshold() const { return threshold_; }
  double u_min() const { return h_integral_x1_; }
  double u_max() const { return h_integral_n_; }

 private:
  std::uint64_t n_;
  double s_;
  double h_integral_x1_;
  double h_integral_n_;
  double threshold_;
};

// Draws `count` values from both samplers on equal generators; returns the
// number of differing draws and whether the generators end in equal states.
std::pair<int, bool> diff_draws(std::uint64_t n, double s, int count,
                                std::uint64_t seed) {
  const ZipfSampler table(n, s);
  const ReferenceZipf reference(n, s);
  Rng a(seed), b(seed);
  int differing = 0;
  for (int i = 0; i < count; ++i) {
    if (table.sample(a) != reference.sample(b)) ++differing;
  }
  return {differing, a.next() == b.next()};
}

class ZipfExactness
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ZipfExactness, MillionDrawsEqualTheReference) {
  const auto [n, s] = GetParam();
  const auto [differing, same_state] = diff_draws(n, s, 1'000'000, n ^ 0x5eed);
  EXPECT_EQ(differing, 0);
  EXPECT_TRUE(same_state) << "the samplers consumed different rng values";
}

// Every tabulated boundary, probed at itself and at the doubles on either
// side: the table must not decide there (the guard fallback runs) and the
// step must equal the reference's.
TEST_P(ZipfExactness, GuardFallbackAtEveryTabulatedBoundary) {
  const auto [n, s] = GetParam();
  const ZipfSampler table(n, s);
  const ReferenceZipf reference(n, s);
  const std::uint64_t head = table.table_ranks();
  ASSERT_GT(head, 0u) << "every grid pair is inside the table's domain";
  ASSERT_LE(head, n);
  std::vector<double> cuts;
  for (std::uint64_t k = 1; k <= head; ++k) {
    const double kd = static_cast<double>(k);
    cuts.push_back(reference.h_integral(kd - 0.5));
    cuts.push_back(reference.h_integral(kd - reference.threshold()));
  }
  if (head < n) {
    cuts.push_back(reference.h_integral(static_cast<double>(head) + 0.5));
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  int probes = 0;
  for (const double c : cuts) {
    for (const double u : {std::nextafter(c, -kInf), c, std::nextafter(c, kInf)}) {
      if (u < reference.u_min() || u > reference.u_max()) continue;
      ++probes;
      EXPECT_FALSE(table.tabulated(u)) << "u = " << u;
      ASSERT_EQ(table.step(u), reference.step(u)) << "u = " << u;
    }
  }
  // With one rank, both of its boundaries lie below every reachable u.
  if (n > 1) {
    EXPECT_GT(probes, 0);
  }
  // The rejection bound is exact in the table, so the table may decide at
  // and next to it, and must decide as the reference does.
  for (std::uint64_t k = 1; k <= head; ++k) {
    const double kd = static_cast<double>(k);
    const double b = reference.h_integral(kd + 0.5) - reference.h(kd);
    for (const double u : {std::nextafter(b, -kInf), b, std::nextafter(b, kInf)}) {
      if (u < reference.u_min() || u > reference.u_max()) continue;
      ASSERT_EQ(table.step(u), reference.step(u)) << "u = " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ZipfExactness,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 7, 134, 1209,
                                                        2598, 65536, 262144),
                       ::testing::Values(0.0, 0.5, 0.8, 0.9, 0.99, 1.0, 1.3,
                                         2.0)));

// Exponents within 1e-8 of 1 take the reference's logarithmic branch; just
// outside it the power branch runs with a tiny 1 - s. A steep exponent
// shrinks the table to where its error bound holds (4096 ranks would not).
TEST(ZipfTest, ExactNearTheLogBranchAndForSteepExponents) {
  for (const double s : {1.0 - 5e-9, 1.0 + 5e-9, 1.0 - 2e-8, 1.0 + 2e-8, 4.0}) {
    const auto [differing, same_state] = diff_draws(65536, s, 200'000, 99);
    EXPECT_EQ(differing, 0) << "s = " << s;
    EXPECT_TRUE(same_state) << "s = " << s;
  }
  const ZipfSampler steep(65536, 4.0);
  EXPECT_GT(steep.table_ranks(), 0u);
  EXPECT_LT(steep.table_ranks(), 4096u);
}

// Away from the boundaries the table decides, and decides as the reference.
TEST(ZipfTest, TableDecidesAlmostEveryStep) {
  const ZipfSampler table(2598, 0.9);
  const ReferenceZipf reference(2598, 0.9);
  EXPECT_EQ(table.table_ranks(), 2598u);
  Rng rng(3);
  int tabulated = 0;
  for (int i = 0; i < 100'000; ++i) {
    const double u = reference.u_max() + rng.uniform_double() *
                                             (reference.u_min() - reference.u_max());
    if (table.tabulated(u)) ++tabulated;
    ASSERT_EQ(table.step(u), reference.step(u)) << "u = " << u;
  }
  EXPECT_GT(tabulated, 99'900);
}

// Samplers are keyed by the exact exponent: one a ten-thousandth away from
// another gets its own table and its own draws.
TEST(ZipfTest, NearbyExponentsAreDistinctSamplers) {
  const ZipfSampler a(1000, 0.9), b(1000, 0.9004);
  EXPECT_EQ(a.exponent(), 0.9);
  EXPECT_EQ(b.exponent(), 0.9004);
  Rng ra(5), rb(5);
  int differing = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (a.sample(ra) != b.sample(rb)) ++differing;
  }
  EXPECT_GT(differing, 0);
  EXPECT_EQ(diff_draws(1000, 0.9004, 10'000, 5).first, 0);
}

// Eight threads take the shared table registry at once, half of them for
// pairs no other test uses (so the tables are built concurrently), and every
// thread's draws equal the reference's.
TEST(ZipfTest, RegistryIsSafeUnderConcurrentConstruction) {
  constexpr std::size_t kThreads = 8;
  constexpr int kDraws = 20'000;
  const auto pair_of = [](std::size_t i) {
    return std::pair<std::uint64_t, double>{3001 + i % 4,
                                            0.71 + 0.01 * static_cast<double>(i % 2)};
  };
  std::vector<std::vector<std::uint64_t>> expected(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    const auto [n, s] = pair_of(i);
    const ReferenceZipf reference(n, s);
    Rng rng(i + 1);
    for (int d = 0; d < kDraws; ++d) expected[i].push_back(reference.sample(rng));
  }
  std::vector<std::vector<std::uint64_t>> drawn(kThreads);
  std::latch start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      const auto [n, s] = pair_of(i);
      const ZipfSampler z(n, s);
      Rng rng(i + 1);
      for (int d = 0; d < kDraws; ++d) drawn[i].push_back(z.sample(rng));
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(drawn[i], expected[i]) << i;
  }
}

}  // namespace
}  // namespace smartmem
