#include "sim/rng.h"

#include <gtest/gtest.h>

#include <set>

namespace mtds::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-2.5, 7.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(0.0, 10.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(3.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(31), b(31);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fa.next_u64(), fb.next_u64());
  }
  // Fork and parent produce different streams.
  Rng c(31);
  Rng fc = c.fork();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (fc.next_u64() == c.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace mtds::sim
