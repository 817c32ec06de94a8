#include "core/error_tracker.h"

#include <gtest/gtest.h>

namespace mtds::core {
namespace {

TEST(ErrorTracker, ReportsInheritedErrorAtResetPoint) {
  ErrorTracker tracker(/*delta=*/1e-4, /*initial_error=*/0.5,
                       /*initial_clock=*/100.0);
  EXPECT_DOUBLE_EQ(tracker.error_at(100.0).seconds(), 0.5);
}

TEST(ErrorTracker, ErrorGrowsLinearlyWithClockTime) {
  // Rule MM-1: E(t) = eps + (C(t) - r) * delta.
  ErrorTracker tracker(1e-4, 0.5, 100.0);
  EXPECT_DOUBLE_EQ(tracker.error_at(100.0 + 1000.0).seconds(), 0.5 + 1000.0 * 1e-4);
}

TEST(ErrorTracker, BackwardClockDoesNotShrinkError) {
  ErrorTracker tracker(1e-4, 0.5, 100.0);
  EXPECT_DOUBLE_EQ(tracker.error_at(50.0).seconds(), 0.5);
}

TEST(ErrorTracker, ResetAdoptsNewState) {
  ErrorTracker tracker(1e-4, 0.5, 100.0);
  tracker.reset(/*new_clock=*/200.0, /*new_epsilon=*/0.01);
  EXPECT_DOUBLE_EQ(tracker.error_at(200.0).seconds(), 0.01);
  EXPECT_DOUBLE_EQ(tracker.error_at(300.0).seconds(), 0.01 + 100.0 * 1e-4);
}

TEST(ErrorTracker, ZeroDeltaNeverGrows) {
  ErrorTracker tracker(0.0, 0.25, 0.0);
  EXPECT_DOUBLE_EQ(tracker.error_at(1e9).seconds(), 0.25);
}

TEST(ErrorTracker, RejectsInvalidArguments) {
  EXPECT_THROW(ErrorTracker(-1e-9, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(ErrorTracker(1e-4, -0.1, 0.0), std::invalid_argument);
  ErrorTracker tracker(1e-4, 0.0, 0.0);
  EXPECT_THROW(tracker.reset(0.0, -1.0), std::invalid_argument);
}

TEST(ErrorTracker, Lemma1GrowthBetweenResets) {
  // Lemma 1: E(t0 + D) = E(t0) + delta * D (in clock time, first order).
  const double delta = 2e-5;
  ErrorTracker tracker(delta, 1.0, 0.0);
  const double e0 = tracker.error_at(10.0).seconds();
  const double e1 = tracker.error_at(10.0 + 500.0).seconds();
  EXPECT_NEAR(e1 - e0, delta * 500.0, 1e-12);
}

}  // namespace
}  // namespace mtds::core
