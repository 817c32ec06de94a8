#include "core/clock.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace mtds::core {
namespace {

TEST(DriftingClock, ZeroDriftTracksRealTime) {
  DriftingClock clock;
  EXPECT_DOUBLE_EQ(clock.read(0.0).seconds(), 0.0);
  EXPECT_DOUBLE_EQ(clock.read(100.0).seconds(), 100.0);
  EXPECT_DOUBLE_EQ(clock.rate(50.0), 1.0);
}

TEST(DriftingClock, PositiveDriftRunsFast) {
  DriftingClock clock(/*drift=*/0.01);
  EXPECT_DOUBLE_EQ(clock.read(100.0).seconds(), 101.0);
  EXPECT_DOUBLE_EQ(clock.rate(0.0), 1.01);
}

TEST(DriftingClock, NegativeDriftRunsSlow) {
  DriftingClock clock(/*drift=*/-0.01);
  EXPECT_DOUBLE_EQ(clock.read(100.0).seconds(), 99.0);
}

TEST(DriftingClock, InitialOffsetAndStart) {
  DriftingClock clock(0.0, /*initial=*/50.0, /*start=*/10.0);
  EXPECT_DOUBLE_EQ(clock.read(10.0).seconds(), 50.0);
  EXPECT_DOUBLE_EQ(clock.read(20.0).seconds(), 60.0);
}

TEST(DriftingClock, SetJumpsValue) {
  DriftingClock clock(0.001);
  clock.read(100.0).seconds();
  clock.set(100.0, 42.0);
  EXPECT_DOUBLE_EQ(clock.read(100.0).seconds(), 42.0);
  // Drift continues from the new value.
  EXPECT_NEAR(clock.read(200.0).seconds(), 42.0 + 100.0 * 1.001, 1e-12);
}

TEST(DriftingClock, SetBackwardAllowed) {
  DriftingClock clock(0.0);
  clock.set(10.0, 100.0);
  clock.set(20.0, 50.0);  // backward
  EXPECT_DOUBLE_EQ(clock.read(20.0).seconds(), 50.0);
}

TEST(DriftingClock, SetDriftKeepsValueContinuous) {
  DriftingClock clock(0.02);
  const double before = clock.read(100.0).seconds();
  clock.set_drift(100.0, -0.02);
  EXPECT_DOUBLE_EQ(clock.read(100.0).seconds(), before);
  EXPECT_DOUBLE_EQ(clock.read(200.0).seconds(), before + 100.0 * 0.98);
}

TEST(DriftingClock, RejectsImpossibleDrift) {
  EXPECT_THROW(DriftingClock(-1.0), std::invalid_argument);
  DriftingClock clock(0.0);
  EXPECT_THROW(clock.set_drift(0.0, -1.5), std::invalid_argument);
}

TEST(DriftingClock, DriftBoundHoldsOverInterval) {
  // The paper's inequality: C(t0) + D - dD <= C(t0+D) <= C(t0) + D + dD.
  const double delta = 5e-4;
  DriftingClock fast(delta), slow(-delta);
  const double d = 1000.0;
  EXPECT_LE(fast.read(d).seconds(), 0.0 + d + delta * d + 1e-9);
  EXPECT_GE(slow.read(d).seconds(), 0.0 + d - delta * d - 1e-9);
}

TEST(FaultyClock, StoppedFreezesAtFaultTime) {
  auto clock = std::make_unique<DriftingClock>(0.0);
  FaultyClock faulty(std::move(clock),
                     {ClockFaultKind::kStopped, /*start=*/50.0, 0.0});
  EXPECT_DOUBLE_EQ(faulty.read(40.0).seconds(), 40.0);
  EXPECT_DOUBLE_EQ(faulty.read(50.0).seconds(), 50.0);
  EXPECT_DOUBLE_EQ(faulty.read(100.0).seconds(), 50.0);
  EXPECT_DOUBLE_EQ(faulty.rate(100.0), 0.0);
}

TEST(FaultyClock, StoppedAcceptsSetThenFreezes) {
  FaultyClock faulty(std::make_unique<DriftingClock>(0.0),
                     {ClockFaultKind::kStopped, 50.0, 0.0});
  faulty.read(60.0).seconds();
  faulty.set(70.0, 123.0);
  EXPECT_DOUBLE_EQ(faulty.read(80.0).seconds(), 123.0);
  EXPECT_DOUBLE_EQ(faulty.read(90.0).seconds(), 123.0);
}

TEST(FaultyClock, RacingMultipliesRate) {
  FaultyClock faulty(std::make_unique<DriftingClock>(0.0),
                     {ClockFaultKind::kRacing, 100.0, /*param=*/2.0});
  EXPECT_DOUBLE_EQ(faulty.read(100.0).seconds(), 100.0);
  // After the fault the clock runs at 2x.
  EXPECT_NEAR(faulty.read(150.0).seconds(), 100.0 + 50.0 * 2.0, 1e-9);
}

TEST(FaultyClock, RacingIsContinuousAtFaultStart) {
  FaultyClock faulty(std::make_unique<DriftingClock>(0.01),
                     {ClockFaultKind::kRacing, 100.0, 3.0});
  const double before = 100.0 * 1.01;
  EXPECT_NEAR(faulty.read(100.0).seconds(), before, 1e-9);
}

TEST(FaultyClock, StickyResetIgnoresSetAfterFault) {
  FaultyClock faulty(std::make_unique<DriftingClock>(0.0),
                     {ClockFaultKind::kStickyReset, 50.0, 0.0});
  faulty.set(40.0, 10.0);  // before the fault: accepted
  EXPECT_DOUBLE_EQ(faulty.read(40.0).seconds(), 10.0);
  faulty.set(60.0, 999.0);  // after the fault: ignored
  EXPECT_DOUBLE_EQ(faulty.read(60.0).seconds(), 30.0);
}

TEST(FaultyClock, NoFaultPassesThrough) {
  FaultyClock faulty(std::make_unique<DriftingClock>(0.005), {});
  EXPECT_NEAR(faulty.read(100.0).seconds(), 100.5, 1e-12);
  faulty.set(100.0, 7.0);
  EXPECT_DOUBLE_EQ(faulty.read(100.0).seconds(), 7.0);
}

}  // namespace
}  // namespace mtds::core
