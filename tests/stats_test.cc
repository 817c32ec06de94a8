#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.h"

namespace mtds::util {
namespace {

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // textbook population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  sim::Rng rng(5);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 7.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);  // merge empty into non-empty
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // merge non-empty into empty
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(RunningStats, NumericallyStableAroundLargeOffset) {
  // Welford should survive values with a huge common offset.
  RunningStats s;
  const double offset = 1e12;
  for (double x : {offset + 1.0, offset + 2.0, offset + 3.0}) s.add(x);
  EXPECT_NEAR(s.mean(), offset + 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-3);
}

TEST(Sampler, QuantilesExact) {
  Sampler s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-12);
  EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-12);
}

TEST(Sampler, EmptyQuantileIsZero) {
  Sampler s;
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Sampler, QuantileClampsRange) {
  Sampler s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.5), 2.0);
}

TEST(Sampler, AddAfterQuantileResorts) {
  Sampler s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  s.add(0.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
}

TEST(FitLine, PerfectLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const auto fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLine, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(fit_line({}, {}).slope, 0.0);
  EXPECT_DOUBLE_EQ(fit_line({1.0}, {2.0}).slope, 0.0);
  // Vertical data (all same x) cannot be fit.
  const auto fit = fit_line({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
}

TEST(FitLine, NoisyLineRecoversSlope) {
  sim::Rng rng(77);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    x.push_back(i);
    y.push_back(1.0 + 0.5 * i + rng.uniform(-0.1, 0.1));
  }
  const auto fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 0.5, 1e-2);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(Summaries, ContainFieldLabels) {
  RunningStats rs;
  rs.add(1.0);
  EXPECT_NE(rs.summary().find("mean="), std::string::npos);
  Sampler sa;
  sa.add(1.0);
  EXPECT_NE(sa.summary().find("p99="), std::string::npos);
}

}  // namespace
}  // namespace mtds::util
