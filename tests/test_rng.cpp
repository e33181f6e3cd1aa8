#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace cosched {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i)
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  for (int c : counts) EXPECT_GT(c, 9000) << "bucket strongly under-sampled";
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(30.0);
  EXPECT_NEAR(sum / n, 30.0, 0.5);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, LognormalMedian) {
  Rng rng(17);
  std::vector<double> v;
  for (int i = 0; i < 50001; ++i)
    v.push_back(rng.lognormal(std::log(100), 1.0));
  std::nth_element(v.begin(), v.begin() + 25000, v.end());
  // Median of lognormal = exp(mu).
  EXPECT_NEAR(v[25000], 100.0, 5.0);
}

TEST(Rng, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(1), b(1);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fa.next(), fb.next());
  // Fork and parent do not mirror each other.
  Rng c(2);
  Rng fc = c.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (c.next() == fc.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64, KnownFirstValue) {
  // Reference value for seed 0 from the splitmix64 reference implementation.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
}

}  // namespace
}  // namespace cosched
