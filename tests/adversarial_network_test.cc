// Adversarial network conditions: the theorems assume only that round trips
// are bounded by xi with zero minimum - the delay may be split between
// request and reply arbitrarily.  These tests drive the service through
// hostile delay splits, late replies that violate the declared bound, full
// loss, and partitions, and check that the safety properties survive.
#include <gtest/gtest.h>

#include "service/invariants.h"
#include "service/time_service.h"
#include "sim/delay_model.h"

namespace mtds::service {
namespace {

ServiceConfig base_config(core::SyncAlgorithm algo, std::uint64_t seed) {
  ServiceConfig cfg;
  cfg.seed = seed;
  cfg.delay_lo = 0.0;
  cfg.delay_hi = 0.01;
  cfg.sample_interval = 1.0;
  for (int i = 0; i < 3; ++i) {
    ServerSpec s;
    s.algo = algo;
    s.claimed_delta = 1e-5;
    s.simulated_drift = (i - 1) * 6e-6;
    s.initial_error = 0.02 + 0.03 * i;
    s.poll_period = 5.0;
    cfg.servers.push_back(s);
  }
  return cfg;
}

class AsymmetricDelayTest : public ::testing::TestWithParam<core::SyncAlgorithm> {};

TEST_P(AsymmetricDelayTest, ExtremeDelaySplitPreservesCorrectness) {
  // Requests take ~0, replies take nearly the full one-way bound (and the
  // reverse on other links).  The proofs only use sigma, rho >= 0 and
  // sigma + rho <= xi, so correctness must hold.
  TimeService service(base_config(GetParam(), 71));
  sim::FixedDelay fast(0.0001), slow(0.0099);
  auto& net = service.network();
  // 0 -> 1 fast, 1 -> 0 slow; 0 -> 2 slow, 2 -> 0 fast; 1 <-> 2 mixed.
  net.set_link_delay(0, 1, &fast);
  net.set_link_delay(1, 0, &slow);
  net.set_link_delay(0, 2, &slow);
  net.set_link_delay(2, 0, &fast);
  net.set_link_delay(1, 2, &fast);
  net.set_link_delay(2, 1, &slow);

  service.run_until(400.0);
  const auto report = check_correctness(service.trace());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front().what);
  EXPECT_GT(service.trace().count_events(sim::TraceEventKind::kReset), 0u);
  EXPECT_TRUE(check_pairwise_consistency(service.trace()).ok());
}

INSTANTIATE_TEST_SUITE_P(Algos, AsymmetricDelayTest,
                         ::testing::Values(core::SyncAlgorithm::kMM,
                                           core::SyncAlgorithm::kIM,
                                           core::SyncAlgorithm::kIMFT),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

TEST(AdversarialNetwork, LateRepliesBeyondDeclaredBoundAreDiscarded) {
  // One link's real delay (0.2 s each way) wildly exceeds the declared
  // one-way bound (0.01 s).  Replies over that link arrive after the poll
  // round closed; the server must discard them rather than compute a bogus
  // small round trip.
  auto cfg = base_config(core::SyncAlgorithm::kMM, 72);
  cfg.servers[0].initial_error = 0.5;  // server 0 needs the others
  TimeService service(cfg);
  sim::FixedDelay glacial(0.2);
  service.network().set_link_delay(1, 0, &glacial);  // replies 1 -> 0

  service.run_until(300.0);
  // Server 0 still resets (from server 2) and stays correct.
  EXPECT_GT(service.server(0).counters().resets, 0u);
  EXPECT_TRUE(check_correctness(service.trace()).ok());
  // The late replies were really dropped: far fewer replies than requests.
  const auto& c = service.server(0).counters();
  EXPECT_LT(c.replies_received, c.requests_sent);
}

TEST(AdversarialNetwork, TotalLossFreezesSyncButNotSafety) {
  auto cfg = base_config(core::SyncAlgorithm::kMM, 73);
  cfg.loss_probability = 0.999999;
  TimeService service(cfg);
  service.run_until(200.0);
  EXPECT_EQ(service.trace().count_events(sim::TraceEventKind::kReset), 0u);
  // Errors just grow at delta; correctness holds (valid bounds).
  EXPECT_TRUE(check_correctness(service.trace()).ok());
  const auto growth = measure_error_growth(service.trace());
  EXPECT_NEAR(growth.min_fit.slope, 1e-5, 2e-6);
}

TEST(AdversarialNetwork, PartitionedHalvesResyncAfterHeal) {
  auto cfg = base_config(core::SyncAlgorithm::kIM, 74);
  TimeService service(cfg);
  // Isolate server 0 completely for a while.
  service.network().set_partitioned(0, 1, true);
  service.network().set_partitioned(0, 2, true);
  service.run_until(150.0);
  const auto resets_during = service.server(0).counters().resets;
  EXPECT_EQ(resets_during, 0u);

  service.network().set_partitioned(0, 1, false);
  service.network().set_partitioned(0, 2, false);
  service.run_until(300.0);
  EXPECT_GT(service.server(0).counters().resets, 0u);
  EXPECT_TRUE(check_correctness(service.trace()).ok());
  // After healing, the spread collapses back under the Theorem 7 scale.
  EXPECT_LT(service.max_asynchronism(), 0.05);
}

TEST(AdversarialNetwork, ReplyAfterServerLeftIsHarmless) {
  auto cfg = base_config(core::SyncAlgorithm::kMM, 75);
  TimeService service(cfg);
  service.run_until(12.0);  // mid-flight traffic exists
  service.crash_server(0);
  // Draining the remaining events must not crash or corrupt anyone.
  service.run_until(100.0);
  EXPECT_EQ(service.running_count(), 2u);
  EXPECT_TRUE(check_correctness(service.trace()).ok());
  EXPECT_GT(service.network().stats().dropped_no_handler, 0u);
}

TEST(AdversarialNetwork, JitteredDeliveryNeverReordersSafety) {
  // High-variance truncated-exponential delays via per-link overrides on
  // every link; replies can overtake requests of later rounds.
  auto cfg = base_config(core::SyncAlgorithm::kIM, 76);
  cfg.delay_hi = 0.05;
  TimeService service(cfg);
  sim::TruncatedExponentialDelay bursty(0.01, 0.05);
  for (core::ServerId a = 0; a < 3; ++a) {
    for (core::ServerId b = 0; b < 3; ++b) {
      if (a != b) service.network().set_link_delay(a, b, &bursty);
    }
  }
  service.run_until(500.0);
  EXPECT_TRUE(check_correctness(service.trace()).ok());
  EXPECT_TRUE(check_pairwise_consistency(service.trace()).ok());
}

}  // namespace
}  // namespace mtds::service
