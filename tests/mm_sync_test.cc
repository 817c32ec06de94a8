#include "core/mm_sync.h"

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace mtds::core {
namespace {

LocalState local(ClockTime c, Duration e, double delta = 1e-4) {
  return LocalState{c, e, delta};
}

TimeReading reading(ServerId from, ClockTime c, Duration e, Duration rtt) {
  TimeReading r;
  r.from = from;
  r.c = c;
  r.e = e;
  r.rtt_own = rtt;
  r.local_receive = c;  // irrelevant to MM
  return r;
}

TEST(MMSync, ModeAndName) {
  MinMaxErrorSync mm;
  EXPECT_EQ(mm.mode(), SyncMode::kPerReply);
  EXPECT_EQ(mm.name(), "MM");
}

TEST(MMSync, AcceptsStrictlySmallerError) {
  MinMaxErrorSync mm;
  const auto out = mm.on_reply(local(100.0, 1.0), reading(2, 100.1, 0.1, 0.01));
  ASSERT_TRUE(out.reset.has_value());
  EXPECT_DOUBLE_EQ(out.reset->clock.seconds(), 100.1);
  // eps <- E_j + (1 + delta) * xi.
  EXPECT_NEAR(out.reset->error.seconds(), 0.1 + (1.0 + 1e-4) * 0.01, 1e-15);
  ASSERT_EQ(out.reset->sources.size(), 1u);
  EXPECT_EQ(out.reset->sources[0], 2u);
  EXPECT_TRUE(out.inconsistent_with.empty());
}

TEST(MMSync, RejectsLargerError) {
  MinMaxErrorSync mm;
  const auto out = mm.on_reply(local(100.0, 0.05), reading(2, 100.0, 0.1, 0.01));
  EXPECT_FALSE(out.reset.has_value());
  EXPECT_TRUE(out.inconsistent_with.empty());
}

TEST(MMSync, PredicateBoundaryExactEquality) {
  // E_j + (1+delta) xi == E_i: rule MM-2 uses <=, so the reset fires.
  MinMaxErrorSync mm;
  const double delta = 0.0;
  const double xi = 0.01, ej = 0.04;
  const double ei = ej + xi;
  const auto out =
      mm.on_reply(local(100.0, ei, delta), reading(2, 100.0, ej, xi));
  EXPECT_TRUE(out.reset.has_value());
}

TEST(MMSync, RoundTripCostCanDisqualify) {
  // E_j < E_i but E_j + xi > E_i: no reset (the delay eats the advantage).
  MinMaxErrorSync mm;
  const auto out = mm.on_reply(local(100.0, 0.1), reading(2, 100.0, 0.095, 0.02));
  EXPECT_FALSE(out.reset.has_value());
}

TEST(MMSync, IgnoresInconsistentReply) {
  // |C_i - C_j| > E_i + E_j: the reply must be ignored even though its
  // error is far smaller.
  MinMaxErrorSync mm;
  const auto out = mm.on_reply(local(100.0, 0.5), reading(7, 105.0, 0.001, 0.0));
  EXPECT_FALSE(out.reset.has_value());
  ASSERT_EQ(out.inconsistent_with.size(), 1u);
  EXPECT_EQ(out.inconsistent_with[0], 7u);
}

TEST(MMSync, DelayedHonestReplyIsConsistent) {
  // The reply was read rtt ago, so it may trail the local clock by more than
  // E_i + E_j without being wrong: its interval's upper edge is widened by
  // (1 + delta) * rtt, as in IM-2.  |C_i - C_j| = 4 ms > E_i + E_j = 1.1 ms,
  // but C_i - E_i = 100.0034 <= C_j + E_j + (1 + delta) * rtt ~ 100.0055.
  MinMaxErrorSync mm;
  const auto out = mm.on_reply(local(100.004, 0.0006),
                               reading(4, 100.0, 0.0005, 0.005));
  EXPECT_TRUE(out.inconsistent_with.empty());
  EXPECT_FALSE(out.reset.has_value());  // E_j + rtt > E_i: no reset either
}

TEST(MMSync, ReplyAheadBeyondBothErrorsIsInconsistent) {
  // The mirror case: delay can only make a reply look behind, never ahead,
  // so a C_j ahead of C_i by more than E_i + E_j is still flagged.
  MinMaxErrorSync mm;
  const auto out = mm.on_reply(local(100.0, 0.0006),
                               reading(4, 100.004, 0.0005, 0.005));
  ASSERT_EQ(out.inconsistent_with.size(), 1u);
  EXPECT_EQ(out.inconsistent_with[0], 4u);
}

TEST(MMSync, ConsistentAtExactTouch) {
  MinMaxErrorSync mm;
  // |100 - 100.6| = 0.6 = E_i + E_j exactly: still consistent.
  const auto out = mm.on_reply(local(100.0, 0.5), reading(3, 100.6, 0.1, 0.0));
  EXPECT_TRUE(out.inconsistent_with.empty());
  ASSERT_TRUE(out.reset.has_value());
}

TEST(MMSync, DeltaInflatesRoundTripCost) {
  MinMaxErrorSync mm;
  const double xi = 1.0;
  const auto out_small =
      mm.on_reply(local(0.0, 2.0, /*delta=*/0.0), reading(1, 0.0, 0.5, xi));
  const auto out_large =
      mm.on_reply(local(0.0, 2.0, /*delta=*/0.5), reading(1, 0.0, 0.5, xi));
  ASSERT_TRUE(out_small.reset.has_value());
  ASSERT_TRUE(out_large.reset.has_value());
  EXPECT_LT(out_small.reset->error.seconds(), out_large.reset->error.seconds());
  EXPECT_DOUBLE_EQ(out_large.reset->error.seconds(), 0.5 + 1.5 * xi);
}

TEST(MMSync, SelfReplyIsNoOpFixedPoint) {
  // Theorem 2's proof device: a zero-delay self-reply always satisfies the
  // predicate and reproduces the local state exactly.
  MinMaxErrorSync mm;
  const auto state = local(123.0, 0.7);
  const auto out = mm.on_reply(state, reading(0, state.clock, state.error, 0.0));
  ASSERT_TRUE(out.reset.has_value());
  EXPECT_DOUBLE_EQ(out.reset->clock.seconds(), state.clock.seconds());
  EXPECT_DOUBLE_EQ(out.reset->error.seconds(), state.error.seconds());
}

TEST(MMSync, ResetNeverIncreasesErrorProperty) {
  // Property: whenever MM resets, the new error is <= the old error, so the
  // minimum error in a service can never decrease through resets (Lemma 3's
  // machinery).
  MinMaxErrorSync mm;
  sim::Rng rng(99);
  int resets = 0;
  for (int k = 0; k < 5000; ++k) {
    const double ei = rng.uniform(0.0, 2.0);
    const double ci = rng.uniform(-5.0, 5.0);
    const double delta = rng.uniform(0.0, 1e-2);
    const double ej = rng.uniform(0.0, 2.0);
    const double xi = rng.uniform(0.0, 0.5);
    // Keep the reply consistent so the predicate is actually evaluated.
    const double cj = ci + rng.uniform(-(ei + ej), ei + ej);
    const auto out = mm.on_reply(local(ci, ei, delta), reading(1, cj, ej, xi));
    if (out.reset) {
      ++resets;
      EXPECT_LE(out.reset->error.seconds(), ei + 1e-15);
    }
  }
  EXPECT_GT(resets, 100);  // the sweep must actually exercise resets
}

TEST(MMSync, CorrectnessPreservedProperty) {
  // Property (Theorem 1's inductive step): if both intervals contain true
  // time and the reply is delayed by at most xi, the post-reset interval
  // contains true time.
  MinMaxErrorSync mm;
  sim::Rng rng(1234);
  int resets = 0;
  for (int k = 0; k < 5000; ++k) {
    const double t = rng.uniform(0.0, 100.0);  // true time "now"
    // Local correct interval.
    const double ei = rng.uniform(0.1, 1.0);
    const double ci = t + rng.uniform(-ei, ei);
    // Remote server's state when it *replied*, xi seconds ago; its interval
    // was correct at that instant.
    const double xi = rng.uniform(0.0, 0.05);
    const double t_reply = t - rng.uniform(0.0, xi);  // sigma <= xi
    const double ej = rng.uniform(0.01, 1.0);
    const double cj = t_reply + rng.uniform(-ej, ej);
    const auto out =
        mm.on_reply(local(ci, ei, 1e-4), reading(1, cj, ej, xi));
    if (!out.reset) continue;
    ++resets;
    EXPECT_LE(out.reset->clock.seconds() - out.reset->error.seconds(), t + 1e-9);
    EXPECT_GE(out.reset->clock.seconds() + out.reset->error.seconds(), t - 1e-9);
  }
  EXPECT_GT(resets, 100);
}

}  // namespace
}  // namespace mtds::core
