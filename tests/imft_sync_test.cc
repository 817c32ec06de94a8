#include "core/imft_sync.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/im_sync.h"
#include "service/invariants.h"
#include "service/time_service.h"
#include "sim/rng.h"

namespace mtds::core {
namespace {

LocalState local(ClockTime c, Duration e, double delta = 0.0) {
  return LocalState{c, e, delta};
}

TimeReading reading(ServerId from, ClockTime c, Duration e, Duration rtt,
                    ClockTime local_receive) {
  return TimeReading{from, c, e, rtt, local_receive};
}

TEST(IMFTSync, ModeAndName) {
  FaultTolerantIntersectionSync imft;
  EXPECT_EQ(imft.mode(), SyncMode::kPerRound);
  EXPECT_EQ(imft.name(), "IMFT");
}

TEST(IMFTSync, ReducesToIMWhenAllConsistent) {
  FaultTolerantIntersectionSync imft;
  IntersectionSync im;
  const auto state = local(100.0, 1.0, 1e-4);
  const std::vector<TimeReading> replies = {
      reading(1, 100.3, 0.5, 0.01, 100.0),
      reading(2, 99.8, 0.4, 0.02, 100.0),
      reading(3, 100.1, 0.6, 0.0, 100.0),
  };
  const auto a = imft.on_round(state, replies);
  const auto b = im.on_round(state, replies);
  ASSERT_TRUE(a.reset && b.reset);
  EXPECT_NEAR(a.reset->clock.seconds(), b.reset->clock.seconds(), 1e-12);
  EXPECT_NEAR(a.reset->error.seconds(), b.reset->error.seconds(), 1e-12);
  EXPECT_TRUE(a.inconsistent_with.empty());
}

TEST(IMFTSync, SurvivesOneLiarWhereIMFails) {
  const auto state = local(100.0, 0.5, 0.0);
  const std::vector<TimeReading> replies = {
      reading(1, 100.1, 0.4, 0.0, 100.0),
      reading(2, 99.95, 0.3, 0.0, 100.0),
      reading(3, 250.0, 0.001, 0.0, 100.0),  // wildly wrong, tiny claimed E
  };
  IntersectionSync im;
  const auto im_out = im.on_round(state, replies);
  EXPECT_TRUE(im_out.round_inconsistent);
  EXPECT_FALSE(im_out.reset.has_value());

  FaultTolerantIntersectionSync imft;
  const auto out = imft.on_round(state, replies);
  ASSERT_TRUE(out.reset.has_value()) << "IMFT must tolerate one liar of 4";
  EXPECT_FALSE(out.round_inconsistent);
  // The liar is reported as excluded.
  ASSERT_EQ(out.inconsistent_with.size(), 1u);
  EXPECT_EQ(out.inconsistent_with[0], 3u);
  // The adopted region is near the honest majority.
  EXPECT_NEAR(out.reset->clock.seconds(), 100.0, 0.5);
}

TEST(IMFTSync, QuorumFailureReportsRound) {
  // Two disjoint camps of two: max coverage 2 of 4 participants < majority 3.
  const auto state = local(100.0, 0.2, 0.0);
  const std::vector<TimeReading> replies = {
      reading(1, 100.05, 0.2, 0.0, 100.0),  // with self
      reading(2, 300.0, 0.2, 0.0, 100.0),   // camp B
      reading(3, 300.05, 0.2, 0.0, 100.0),  // camp B
  };
  FaultTolerantIntersectionSync imft;
  const auto out = imft.on_round(state, replies);
  EXPECT_FALSE(out.reset.has_value());
  EXPECT_TRUE(out.round_inconsistent);
}

TEST(IMFTSync, ExplicitMaxFaultyOverridesMajority) {
  // With f = 2 allowed, a 2-of-4 region is acceptable.
  const auto state = local(100.0, 0.2, 0.0);
  const std::vector<TimeReading> replies = {
      reading(1, 100.05, 0.2, 0.0, 100.0),
      reading(2, 300.0, 0.2, 0.0, 100.0),
      reading(3, 300.05, 0.2, 0.0, 100.0),
  };
  FaultTolerantIntersectionSync tolerant(/*max_faulty=*/2);
  const auto out = tolerant.on_round(state, replies);
  ASSERT_TRUE(out.reset.has_value());
  // Leftmost maximal region wins: the self+S1 camp around 100.
  EXPECT_NEAR(out.reset->clock.seconds(), 100.0, 0.5);
}

TEST(IMFTSync, ZeroFaultsBehavesLikeStrictIM) {
  FaultTolerantIntersectionSync strict(/*max_faulty=*/0);
  const auto state = local(100.0, 0.5, 0.0);
  const std::vector<TimeReading> disjoint = {
      reading(1, 100.0, 0.4, 0.0, 100.0),
      reading(2, 200.0, 0.4, 0.0, 100.0),
  };
  EXPECT_TRUE(strict.on_round(state, disjoint).round_inconsistent);
}

TEST(IMFTSync, EmptyRoundDoesNothing) {
  FaultTolerantIntersectionSync imft;
  const auto out = imft.on_round(local(0.0, 1.0), {});
  EXPECT_FALSE(out.reset.has_value());
  EXPECT_FALSE(out.round_inconsistent);
}

TEST(IMFTSync, CorrectnessPreservedWhenFaultBoundHolds) {
  // Property: with at most one liar among >= 4 participants and honest
  // intervals containing true time, the adopted region contains true time.
  FaultTolerantIntersectionSync imft;
  sim::Rng rng(777);
  int resets = 0;
  for (int k = 0; k < 2000; ++k) {
    const double t = rng.uniform(0.0, 1000.0);
    const double ei = rng.uniform(0.3, 1.0);
    const double ci = t + rng.uniform(-ei, ei);
    const auto state = local(ci, ei, 1e-4);
    std::vector<TimeReading> replies;
    for (int j = 0; j < 4; ++j) {
      const double xi = rng.uniform(0.0, 0.02);
      const double e = rng.uniform(0.2, 1.0);
      const double c = (t - rng.uniform(0.0, xi)) + rng.uniform(-e, e);
      replies.push_back(reading(static_cast<ServerId>(j + 1), c, e, xi, ci));
    }
    // One liar with a confident, far-off interval.
    replies[0].c = t + rng.uniform(5.0, 50.0);
    replies[0].e = 0.01;
    const auto out = imft.on_round(state, replies);
    if (!out.reset) continue;  // honest camp may itself fail quorum
    ++resets;
    EXPECT_LE(out.reset->clock.seconds() - out.reset->error.seconds(), t + 1e-9);
    EXPECT_GE(out.reset->clock.seconds() + out.reset->error.seconds(), t - 1e-9);
  }
  EXPECT_GT(resets, 500);
}

TEST(IMFTService, KeepsSyncingThroughALiarWhereIMStalls) {
  auto run = [](SyncAlgorithm algo) {
    service::ServiceConfig cfg;
    cfg.seed = 88;
    cfg.delay_hi = 0.002;
    cfg.sample_interval = 2.0;
    for (int i = 0; i < 5; ++i) {
      service::ServerSpec s;
      s.algo = algo;
      s.claimed_delta = 1e-5;
      s.simulated_drift = (i - 2) * 6e-6;
      s.initial_error = 0.02;
      s.poll_period = 5.0;
      cfg.servers.push_back(s);
    }
    // Server 4 lies: a confident interval a full second off true time,
    // disjoint from every honest interval from the start.  Plain IM's
    // intersection is empty in every round; IMFT excludes the liar.
    cfg.servers[4].claimed_delta = 1e-6;
    cfg.servers[4].initial_offset = core::Offset{1.0};
    cfg.servers[4].initial_error = 0.001;
    service::TimeService service(cfg);
    service.run_until(400.0);
    struct Out {
      std::uint64_t healthy_resets;
      bool healthy_correct;
    } out{};
    out.healthy_resets = 0;
    out.healthy_correct = true;
    for (int i = 0; i < 4; ++i) {
      out.healthy_resets += service.server(i).counters().resets;
      out.healthy_correct =
          out.healthy_correct && service.server(i).correct(service.now());
    }
    return out;
  };
  const auto im = run(SyncAlgorithm::kIM);
  const auto imft = run(SyncAlgorithm::kIMFT);
  // Once the liar has wandered outside everyone's intervals, plain IM's
  // rounds go empty; IMFT keeps resetting via the honest quorum.
  EXPECT_GT(imft.healthy_resets, im.healthy_resets);
  EXPECT_TRUE(imft.healthy_correct);
}

}  // namespace
}  // namespace mtds::core
