#include "service/client.h"

#include <gtest/gtest.h>

#include "service/time_service.h"

namespace mtds::service {
namespace {

using core::TimeReading;

TimeReading reading(core::ServerId from, double c, double e, double rtt) {
  return TimeReading{from, c, e, rtt, /*local_receive=*/0.0};
}

TEST(CombineReplies, EmptyIsInconsistent) {
  const auto r = combine_replies({}, ClientStrategy::kFirstReply);
  EXPECT_FALSE(r.consistent);
  EXPECT_EQ(r.replies, 0u);
}

TEST(CombineReplies, FirstReplyUsesArrivalOrder) {
  const core::Readings replies = {reading(3, 100.0, 0.5, 0.02),
                                  reading(1, 200.0, 0.001, 0.0)};
  const auto r = combine_replies(replies, ClientStrategy::kFirstReply);
  EXPECT_EQ(r.source, 3u);
  // Interval [c - e, c + e + rtt] -> midpoint c + rtt/2, radius e + rtt/2.
  EXPECT_NEAR(r.estimate.seconds(), 100.01, 1e-12);
  EXPECT_NEAR(r.error.seconds(), 0.51, 1e-12);
  EXPECT_TRUE(r.consistent);
}

TEST(CombineReplies, SmallestErrorPicksTightestInterval) {
  const core::Readings replies = {reading(1, 100.0, 0.5, 0.0),
                                  reading(2, 100.1, 0.05, 0.02),
                                  reading(3, 100.2, 0.2, 0.0)};
  const auto r = combine_replies(replies, ClientStrategy::kSmallestError);
  EXPECT_EQ(r.source, 2u);
  EXPECT_NEAR(r.error.seconds(), 0.05 + 0.01, 1e-12);
}

TEST(CombineReplies, IntersectShrinksBelowBestReply) {
  const core::Readings replies = {reading(1, 100.4, 0.5, 0.0),
                                  reading(2, 99.6, 0.5, 0.0)};
  const auto r = combine_replies(replies, ClientStrategy::kIntersect);
  EXPECT_TRUE(r.consistent);
  // Intervals [99.9, 100.9] and [99.1, 100.1]: intersection [99.9, 100.1].
  EXPECT_NEAR(r.estimate.seconds(), 100.0, 1e-12);
  EXPECT_NEAR(r.error.seconds(), 0.1, 1e-12);
}

TEST(CombineReplies, IntersectFallsBackToMajorityOnInconsistency) {
  const core::Readings replies = {reading(1, 100.0, 0.1, 0.0),
                                  reading(2, 100.05, 0.1, 0.0),
                                  reading(3, 500.0, 0.1, 0.0)};
  const auto r = combine_replies(replies, ClientStrategy::kIntersect);
  EXPECT_FALSE(r.consistent);
  EXPECT_EQ(r.replies, 2u);  // coverage of the best region
  EXPECT_NEAR(r.estimate.seconds(), 100.025, 1e-9);
}

class ClientIntegrationTest : public ::testing::Test {
 protected:
  ServiceConfig config() {
    ServiceConfig cfg;
    cfg.seed = 3;
    cfg.delay_lo = 0.0;
    cfg.delay_hi = 0.004;
    cfg.sample_interval = 0.0;  // no sampling needed
    for (int i = 0; i < 3; ++i) {
      ServerSpec s;
      s.algo = core::SyncAlgorithm::kMM;
      s.claimed_delta = 1e-5;
      s.simulated_drift = (i - 1) * 5e-6;
      s.initial_error = 0.01 + 0.005 * i;
      s.initial_offset = core::Offset{(i - 1) * 0.002};
      s.poll_period = 5.0;
      cfg.servers.push_back(s);
    }
    return cfg;
  }
};

TEST_F(ClientIntegrationTest, FirstReplyReturnsPromptly) {
  TimeService service(config());
  service.run_until(20.0);
  TimeClient client(100, service.queue(), service.network());
  const auto result =
      client.query_blocking({0, 1, 2}, ClientStrategy::kFirstReply, 1.0);
  EXPECT_EQ(result.replies, 1u);
  EXPECT_TRUE(result.consistent);
  // The estimate is close to true time and within its own error bound.
  EXPECT_NEAR(result.estimate.seconds(), service.now().seconds(), 0.05);
  EXPECT_LE(std::abs(result.estimate.seconds() - service.now().seconds()),
            result.error.seconds() + 1e-9);
}

TEST_F(ClientIntegrationTest, SmallestErrorWaitsForAllReplies) {
  TimeService service(config());
  service.run_until(20.0);
  TimeClient client(100, service.queue(), service.network());
  const auto result =
      client.query_blocking({0, 1, 2}, ClientStrategy::kSmallestError, 1.0);
  EXPECT_EQ(result.replies, 3u);
  EXPECT_LE(std::abs(result.estimate.seconds() - service.now().seconds()),
            result.error.seconds() + 1e-9);
}

TEST_F(ClientIntegrationTest, IntersectBeatsOrMatchesSmallestError) {
  TimeService service(config());
  service.run_until(20.0);
  TimeClient client(100, service.queue(), service.network());
  const auto inter =
      client.query_blocking({0, 1, 2}, ClientStrategy::kIntersect, 1.0);
  // Theorem 6 compares strategies over the SAME replies.
  const auto small =
      combine_replies(client.last_replies(), ClientStrategy::kSmallestError);
  EXPECT_TRUE(inter.consistent);
  EXPECT_LE(inter.error, small.error + 1e-9);  // Theorem 6 at the client
  EXPECT_LE(std::abs(inter.estimate.seconds() - service.now().seconds()),
            inter.error.seconds() + 1e-9);
}

TEST_F(ClientIntegrationTest, QueryingDeadServersTimesOut) {
  TimeService service(config());
  service.run_until(5.0);
  TimeClient client(100, service.queue(), service.network());
  const auto result =
      client.query_blocking({55, 56}, ClientStrategy::kSmallestError, 0.5);
  EXPECT_EQ(result.replies, 0u);
  EXPECT_FALSE(result.consistent);
}

TEST_F(ClientIntegrationTest, ClientIsReusableAcrossQueries) {
  TimeService service(config());
  service.run_until(5.0);
  TimeClient client(100, service.queue(), service.network());
  const auto r1 =
      client.query_blocking({0, 1, 2}, ClientStrategy::kIntersect, 0.5);
  const auto r2 =
      client.query_blocking({0, 1, 2}, ClientStrategy::kIntersect, 0.5);
  EXPECT_EQ(r1.replies, 3u);
  EXPECT_EQ(r2.replies, 3u);
  EXPECT_GT(r2.estimate, r1.estimate);  // time advanced between queries
}

}  // namespace
}  // namespace mtds::service
