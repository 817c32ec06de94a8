#include "service/report.h"

#include <gtest/gtest.h>

#include "service/scenario.h"

namespace mtds::service {
namespace {

TimeService make_service() {
  ServiceConfig cfg;
  cfg.seed = 3;
  cfg.delay_hi = 0.003;
  cfg.sample_interval = 1.0;
  for (int i = 0; i < 3; ++i) {
    ServerSpec s;
    s.algo = core::SyncAlgorithm::kMM;
    s.claimed_delta = 1e-5;
    s.simulated_drift = (i - 1) * 5e-6;
    s.initial_error = 0.01 + 0.01 * i;
    s.poll_period = 5.0;
    s.monitor_rates = i == 0;
    cfg.servers.push_back(s);
  }
  return TimeService(cfg);
}

TEST(Report, CollectsPerServerState) {
  auto service = make_service();
  service.run_until(100.0);
  const auto report = build_report(service);
  EXPECT_DOUBLE_EQ(report.at.seconds(), 100.0);
  ASSERT_EQ(report.servers.size(), 3u);
  for (const auto& s : report.servers) {
    EXPECT_TRUE(s.running);
    EXPECT_EQ(s.algo, "MM");
    EXPECT_TRUE(s.correct);
    EXPECT_GT(s.counters.rounds, 0u);
  }
  EXPECT_GT(report.network.delivered, 0u);
  EXPECT_GT(report.resets, 0u);
  EXPECT_EQ(report.joins, 3u);
  EXPECT_TRUE(report.healthy());
}

TEST(Report, TracksInvariantResults) {
  auto service = make_service();
  service.run_until(200.0);
  const auto report = build_report(service);
  EXPECT_TRUE(report.correctness.ok());
  EXPECT_TRUE(report.consistency.ok());
  EXPECT_GT(report.correctness.samples_checked, 100u);
  EXPECT_GT(report.asynchronism.max_observed, 0.0);
  EXPECT_FALSE(report.growth.times.empty());
}

TEST(Report, FormatContainsKeySections) {
  auto service = make_service();
  service.run_until(50.0);
  const auto text = format_report(build_report(service));
  EXPECT_NE(text.find("service report at t = 50"), std::string::npos);
  EXPECT_NE(text.find("S0"), std::string::npos);
  EXPECT_NE(text.find("network:"), std::string::npos);
  EXPECT_NE(text.find("correctness:"), std::string::npos);
  EXPECT_NE(text.find("asynchronism:"), std::string::npos);
  EXPECT_NE(text.find("verdict: HEALTHY"), std::string::npos);
}

// With no sampled pair (sampling off, or one server) there is no worst
// pair to name: the line says so instead of printing sentinel ids.
TEST(Report, NoSampledPairPrintsNoIds) {
  auto unsampled = parse_scenario(
      "sample 0\nserver tau=5\nserver tau=5\nrun 20\n");
  auto single = parse_scenario("sample 1\nserver tau=5\nrun 20\n");
  for (Scenario* scenario : {&unsampled, &single}) {
    ScenarioRunner runner(std::move(*scenario));
    const auto text = format_report(build_report(runner.run()));
    EXPECT_NE(text.find("asynchronism: no sampled pair\n"), std::string::npos)
        << text;
    EXPECT_EQ(text.find("4294967295"), std::string::npos) << text;
  }
}

TEST(Report, UnhealthyServiceGetsFlagged) {
  ServiceConfig cfg;
  cfg.seed = 4;
  cfg.delay_hi = 0.002;
  cfg.sample_interval = 1.0;
  ServerSpec liar;
  liar.algo = core::SyncAlgorithm::kNone;
  liar.claimed_delta = 1e-6;  // invalid: actual drift is huge
  liar.simulated_drift = 1e-2;
  liar.initial_error = 0.001;
  cfg.servers.push_back(liar);
  ServerSpec honest = liar;
  honest.simulated_drift = 0.0;
  cfg.servers.push_back(honest);
  TimeService service(cfg);
  service.run_until(100.0);
  const auto report = build_report(service);
  EXPECT_FALSE(report.correctness.ok());
  EXPECT_FALSE(report.healthy());
  EXPECT_NE(format_report(report).find("verdict: UNHEALTHY"),
            std::string::npos);
}

TEST(Report, DissonantNeighboursListed) {
  ServiceConfig cfg;
  cfg.seed = 8;
  cfg.delay_hi = 0.001;
  cfg.sample_interval = 0.0;
  ServerSpec observer;
  observer.algo = core::SyncAlgorithm::kMM;
  observer.claimed_delta = 1e-5;
  observer.initial_error = 0.0001;  // never accepts anyone: pure observer
  observer.poll_period = 2.0;
  observer.monitor_rates = true;
  cfg.servers.push_back(observer);
  ServerSpec liar;
  liar.algo = core::SyncAlgorithm::kNone;
  liar.claimed_delta = 1e-6;
  liar.simulated_drift = 0.04;
  liar.initial_error = 30.0;
  cfg.servers.push_back(liar);
  TimeService service(cfg);
  service.run_until(100.0);
  const auto report = build_report(service);
  ASSERT_EQ(report.servers[0].dissonant.size(), 1u);
  EXPECT_EQ(report.servers[0].dissonant[0], 1u);
  EXPECT_NE(format_report(report).find("dissonant: S1"), std::string::npos);
}

}  // namespace
}  // namespace mtds::service
