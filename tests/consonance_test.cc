#include "core/consonance.h"

#include <gtest/gtest.h>

#include <vector>

namespace mtds::core {
namespace {

RateObservation obs(double local, double remote, double rtt = 0.0) {
  return RateObservation{local, remote, rtt};
}

TEST(RateEstimator, NeedsTwoObservations) {
  RateEstimator est;
  EXPECT_FALSE(est.relative_rate().has_value());
  est.add(obs(0.0, 0.0));
  EXPECT_FALSE(est.relative_rate().has_value());
  est.add(obs(100.0, 100.1));
  EXPECT_TRUE(est.relative_rate().has_value());
}

TEST(RateEstimator, MeasuresConstantRelativeRate) {
  // Remote gains 1e-3 per local second.
  RateEstimator est;
  for (int i = 0; i <= 10; ++i) {
    const double local = 100.0 * i;
    est.add(obs(local, local * (1.0 + 1e-3)));
  }
  const auto rate = est.relative_rate();
  ASSERT_TRUE(rate.has_value());
  EXPECT_NEAR(*rate, 1e-3, 1e-12);
}

TEST(RateEstimator, NegativeRate) {
  RateEstimator est;
  for (int i = 0; i <= 5; ++i) {
    const double local = 50.0 * i;
    est.add(obs(local, 7.0 + local * (1.0 - 5e-4)));
  }
  const auto rate = est.relative_rate();
  ASSERT_TRUE(rate.has_value());
  EXPECT_NEAR(*rate, -5e-4, 1e-12);
}

TEST(RateEstimator, WindowSlides) {
  // Rate changes after observation 4; a window of 4 must only see the new
  // rate at the end.
  RateEstimator est(/*window=*/4);
  double remote = 0.0;
  double local = 0.0;
  for (int i = 0; i < 4; ++i) {
    est.add(obs(local, remote));
    local += 100.0;
    remote += 100.0 * 1.01;
  }
  for (int i = 0; i < 4; ++i) {
    est.add(obs(local, remote));
    local += 100.0;
    remote += 100.0 * 0.99;
  }
  EXPECT_EQ(est.size(), 4u);
  const auto rate = est.relative_rate();
  ASSERT_TRUE(rate.has_value());
  EXPECT_NEAR(*rate, -0.01, 1e-9);
}

TEST(RateEstimator, RateIntervalCoversTrueRateGivenDelays) {
  // With round-trip uncertainty, the interval must contain the true rate.
  const double true_rate = 2e-4;
  RateEstimator est;
  // Offsets measured with +/- rtt slop at the endpoints.
  est.add(obs(0.0, 0.003, /*rtt=*/0.004));  // measured offset off by 3 ms
  est.add(obs(1000.0, 1000.0 * (1.0 + true_rate), 0.004));
  const auto interval = est.rate_interval();
  ASSERT_TRUE(interval.has_value());
  EXPECT_TRUE(interval->contains(true_rate))
      << interval->str() << " should contain " << true_rate;
}

TEST(RateEstimator, ZeroSpanYieldsNothing) {
  RateEstimator est;
  est.add(obs(5.0, 5.0));
  est.add(obs(5.0, 6.0));
  EXPECT_FALSE(est.relative_rate().has_value());
  EXPECT_FALSE(est.rate_interval().has_value());
}

}  // namespace
}  // namespace mtds::core
