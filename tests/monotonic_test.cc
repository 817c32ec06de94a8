#include "service/monotonic.h"

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace mtds::service {
namespace {

TEST(MonotonicAdapter, TracksForwardClock) {
  MonotonicAdapter adapter(0.5);
  EXPECT_DOUBLE_EQ(adapter.read(10.0).seconds(), 10.0);
  EXPECT_DOUBLE_EQ(adapter.read(11.0).seconds(), 11.0);
  EXPECT_DOUBLE_EQ(adapter.read(15.0).seconds(), 15.0);
  EXPECT_FALSE(adapter.slewing());
}

TEST(MonotonicAdapter, BackwardSetHoldsThenSlews) {
  MonotonicAdapter adapter(0.5);
  adapter.read(10.0).seconds();
  // Raw clock set back by 4 seconds: output must not go backward.
  const double out = adapter.read(6.0).seconds();
  EXPECT_DOUBLE_EQ(out, 10.0);
  EXPECT_TRUE(adapter.slewing());
  // Raw advances 2: output advances only 1 (half speed).
  EXPECT_DOUBLE_EQ(adapter.read(8.0).seconds(), 11.0);
  EXPECT_TRUE(adapter.slewing());
}

TEST(MonotonicAdapter, CatchesUpAndResumesTracking) {
  MonotonicAdapter adapter(0.5);
  adapter.read(10.0).seconds();
  adapter.read(6.0).seconds();  // out stays 10, raw 4 behind
  // Raw needs 8 seconds of progress to catch up at half-speed slew:
  // out = 10 + 8*0.5 = 14 = raw.
  EXPECT_DOUBLE_EQ(adapter.read(14.0).seconds(), 14.0);
  EXPECT_FALSE(adapter.slewing());
  EXPECT_DOUBLE_EQ(adapter.read(15.0).seconds(), 15.0);
}

TEST(MonotonicAdapter, SnapWhenRawOvertakesWithinOneStep) {
  MonotonicAdapter adapter(0.5);
  adapter.read(10.0).seconds();
  adapter.read(9.9).seconds();  // tiny backward step
  // A big forward raw jump overtakes the held output: snap to raw.
  EXPECT_DOUBLE_EQ(adapter.read(20.0).seconds(), 20.0);
  EXPECT_FALSE(adapter.slewing());
}

TEST(MonotonicAdapter, ZeroSlewFreezesWhileAhead) {
  MonotonicAdapter adapter(0.0);
  adapter.read(10.0).seconds();
  adapter.read(5.0).seconds();
  EXPECT_DOUBLE_EQ(adapter.read(7.0).seconds(), 10.0);
  EXPECT_DOUBLE_EQ(adapter.read(9.999).seconds(), 10.0);
  EXPECT_DOUBLE_EQ(adapter.read(10.5).seconds(), 10.5);
}

TEST(MonotonicAdapter, RejectsInvalidSlewRate) {
  EXPECT_THROW(MonotonicAdapter(-0.1), std::invalid_argument);
  EXPECT_THROW(MonotonicAdapter(1.0), std::invalid_argument);
}

TEST(MonotonicAdapter, OutputNeverDecreasesProperty) {
  // Property sweep: arbitrary raw clock walk (with jumps both ways) must
  // produce a non-decreasing output.
  sim::Rng rng(2024);
  MonotonicAdapter adapter(0.3);
  double raw = 100.0;
  double prev_out = adapter.read(raw).seconds();
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.05)) {
      raw += rng.uniform(-20.0, 20.0);  // clock reset (either direction)
    } else {
      raw += rng.uniform(0.0, 1.0);  // normal ticking
    }
    const double out = adapter.read(raw).seconds();
    EXPECT_GE(out, prev_out) << "at step " << i;
    prev_out = out;
  }
}

TEST(MonotonicAdapter, ConvergesBackToRawAfterDisturbance) {
  // After a backward set, given enough forward progress the adapter must
  // re-converge to the raw clock ("temporarily running ... more slowly").
  MonotonicAdapter adapter(0.5);
  adapter.read(50.0).seconds();
  adapter.read(40.0).seconds();  // 10 s backward
  double raw = 40.0;
  for (int i = 0; i < 100; ++i) {
    raw += 1.0;
    adapter.read(raw).seconds();
  }
  EXPECT_DOUBLE_EQ(adapter.read(raw + 1.0).seconds(), raw + 1.0);
  EXPECT_FALSE(adapter.slewing());
}

}  // namespace
}  // namespace mtds::service
