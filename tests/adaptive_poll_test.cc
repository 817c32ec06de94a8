#include <gtest/gtest.h>

#include "service/invariants.h"
#include "service/time_service.h"

namespace mtds::service {
namespace {

ServiceConfig config_with(bool adaptive, double target) {
  ServiceConfig cfg;
  cfg.seed = 123;
  cfg.delay_hi = 0.001;
  cfg.sample_interval = 2.0;
  ServerSpec reference;
  reference.algo = core::SyncAlgorithm::kNone;
  reference.claimed_delta = 1e-6;
  reference.initial_error = 0.002;
  cfg.servers.push_back(reference);
  ServerSpec coarse;
  coarse.algo = core::SyncAlgorithm::kMM;
  coarse.claimed_delta = 5e-4;  // error grows fast between polls
  coarse.simulated_drift = 2e-4;
  coarse.initial_error = 0.02;
  coarse.poll_period = 10.0;
  coarse.adaptive.enabled = adaptive;
  coarse.adaptive.min_period = 1.0;
  coarse.adaptive.max_period = 80.0;
  coarse.adaptive.error_target = target;
  cfg.servers.push_back(coarse);
  return cfg;
}

TEST(AdaptivePoll, PeriodShrinksUnderTightBudget) {
  // Target below what tau=10 can hold (but above the floor set by the
  // reference error + round trip): the period must shrink.
  TimeService service(config_with(true, 0.008));
  service.run_until(400.0);
  EXPECT_LT(service.server(1).current_poll_period().seconds(), 10.0);
  // And the budget is (mostly) held.
  std::size_t over = 0, total = 0;
  for (const auto& s : service.trace().samples()) {
    if (s.server != 1 || s.t < 50.0) continue;
    ++total;
    if (s.error > 0.008) ++over;
  }
  ASSERT_GT(total, 0u);
  EXPECT_LT(static_cast<double>(over) / static_cast<double>(total), 0.2);
}

TEST(AdaptivePoll, PeriodGrowsUnderSlackBudget) {
  // Target far above what tau=10 produces: the period must relax upward.
  TimeService service(config_with(true, 0.5));
  service.run_until(800.0);
  EXPECT_GT(service.server(1).current_poll_period().seconds(), 10.0);
}

TEST(AdaptivePoll, DisabledKeepsFixedPeriod) {
  TimeService service(config_with(false, 0.008));
  service.run_until(400.0);
  EXPECT_DOUBLE_EQ(service.server(1).current_poll_period().seconds(), 10.0);
}

TEST(AdaptivePoll, RespectsMinAndMaxClamps) {
  auto cfg = config_with(true, 1e-9);  // impossible target: slams to min
  TimeService service(cfg);
  service.run_until(400.0);
  EXPECT_DOUBLE_EQ(service.server(1).current_poll_period().seconds(), 1.0);

  auto cfg2 = config_with(true, 1e9);  // absurdly loose: relaxes to max
  TimeService service2(cfg2);
  service2.run_until(3000.0);
  EXPECT_DOUBLE_EQ(service2.server(1).current_poll_period().seconds(), 80.0);
}

TEST(AdaptivePoll, StaysCorrectThroughPeriodChanges) {
  TimeService service(config_with(true, 0.01));
  service.run_until(600.0);
  EXPECT_TRUE(check_correctness(service.trace()).ok());
}

}  // namespace
}  // namespace mtds::service
