#include "service/scenario.h"

#include <gtest/gtest.h>

#include "service/invariants.h"

namespace mtds::service {
namespace {

TEST(ParseScenario, MinimalService) {
  const auto s = parse_scenario(R"(
    server algo=MM delta=1e-5 error=0.02 tau=10
    server algo=MM delta=1e-5 error=0.03 tau=10
    run 100
  )");
  EXPECT_EQ(s.config.servers.size(), 2u);
  EXPECT_EQ(s.config.topology, Topology::kFull);  // default
  EXPECT_DOUBLE_EQ(s.horizon.seconds(), 100.0);
  EXPECT_EQ(s.config.servers[0].algo, core::SyncAlgorithm::kMM);
  EXPECT_DOUBLE_EQ(s.config.servers[1].initial_error.seconds(), 0.03);
}

TEST(ParseScenario, AllDirectives) {
  const auto s = parse_scenario(R"(
    # full-featured scenario
    seed 7
    delay 0.001 0.01
    loss 0.1
    sample 2.5
    topology ring
    server algo=IM delta=2e-5 drift=1e-5 error=0.05 offset=-0.01 tau=5 recovery=third monitor=1 pool=1,2
    server algo=NONE delta=1e-6 error=0.001 tau=5
    server algo=IMFT delta=1e-4 error=0.5 tau=20 recovery=ignore
    fault 1 racing 50 3.0
    at 10 partition 0 1
    at 20 heal 0 1
    at 30 join algo=MM delta=1e-5 error=1.0 tau=10
    at 40 leave 2
    run 60
  )");
  EXPECT_EQ(s.config.seed, 7u);
  EXPECT_DOUBLE_EQ(s.config.delay_lo.seconds(), 0.001);
  EXPECT_DOUBLE_EQ(s.config.delay_hi.seconds(), 0.01);
  EXPECT_DOUBLE_EQ(s.config.loss_probability, 0.1);
  EXPECT_DOUBLE_EQ(s.config.sample_interval.seconds(), 2.5);
  EXPECT_EQ(s.config.topology, Topology::kRing);
  ASSERT_EQ(s.config.servers.size(), 3u);
  const auto& s0 = s.config.servers[0];
  EXPECT_EQ(s0.algo, core::SyncAlgorithm::kIM);
  EXPECT_DOUBLE_EQ(s0.actual_drift, 1e-5);
  EXPECT_DOUBLE_EQ(s0.initial_offset.seconds(), -0.01);
  EXPECT_EQ(s0.recovery, RecoveryPolicy::kThirdServer);
  EXPECT_TRUE(s0.monitor_rates);
  EXPECT_EQ(s0.recovery_pool, (std::vector<core::ServerId>{1, 2}));
  EXPECT_EQ(s.config.servers[1].fault.kind, core::ClockFaultKind::kRacing);
  EXPECT_DOUBLE_EQ(s.config.servers[1].fault.param, 3.0);
  ASSERT_EQ(s.actions.size(), 4u);
  EXPECT_EQ(s.actions[0].kind, ScenarioAction::Kind::kPartition);
  EXPECT_EQ(s.actions[1].kind, ScenarioAction::Kind::kHeal);
  EXPECT_EQ(s.actions[2].kind, ScenarioAction::Kind::kJoin);
  EXPECT_EQ(s.actions[3].kind, ScenarioAction::Kind::kLeave);
  EXPECT_EQ(s.actions[3].a, 2u);
}

TEST(ParseScenario, ActionsSortedByTime) {
  const auto s = parse_scenario(R"(
    server algo=MM tau=10
    at 50 leave 0
    at 10 partition 0 1
    run 100
  )");
  ASSERT_EQ(s.actions.size(), 2u);
  EXPECT_DOUBLE_EQ(s.actions[0].at.seconds(), 10.0);
  EXPECT_DOUBLE_EQ(s.actions[1].at.seconds(), 50.0);
}

TEST(ParseScenario, ErrorsCarryLineNumbers) {
  try {
    parse_scenario("server algo=MM tau=10\nbogus directive\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ParseScenario, RejectsBadInput) {
  EXPECT_THROW(parse_scenario(""), std::invalid_argument);  // no servers
  EXPECT_THROW(parse_scenario("run 10\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("server algo=WAT tau=10\nrun 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("server algo=MM tau=0\nrun 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("server algo=MM tau=10 color=red\nrun 1\n"),
               std::invalid_argument);
  // Gossip is fleet-wide only (`gossip on`); there is no per-server key.
  EXPECT_THROW(parse_scenario("server algo=MM tau=10 gossip=1\nrun 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("server algo=MM tau=10\nloss 1.5\nrun 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("server algo=MM tau=10\ndelay 0.2 0.1\nrun 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("server algo=MM tau=10\nfault 5 stopped 1\nrun 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("server algo=MM tau=10\nat 5 dance\nrun 1\n"),
               std::invalid_argument);
}

TEST(ParseScenario, CommentsAndBlanksIgnored) {
  const auto s = parse_scenario(R"(
    # leading comment

    server algo=MM tau=10   # trailing comment
    run 10
  )");
  EXPECT_EQ(s.config.servers.size(), 1u);
}

TEST(ScenarioRunner, RunsTimelineActions) {
  auto scenario = parse_scenario(R"(
    seed 5
    delay 0 0.004
    sample 1
    server algo=MM delta=1e-5 drift=4e-6 error=0.02 tau=5
    server algo=MM delta=1e-5 drift=-4e-6 error=0.02 tau=5
    server algo=MM delta=1e-5 drift=0 error=0.02 tau=5
    at 50 join algo=MM delta=1e-5 error=0.8 tau=5
    at 100 leave 0
    run 200
  )");
  ScenarioRunner runner(std::move(scenario));
  auto& service = runner.run();
  EXPECT_DOUBLE_EQ(service.now().seconds(), 200.0);
  EXPECT_EQ(service.size(), 4u);           // 3 + joined
  EXPECT_EQ(service.running_count(), 3u);  // one left
  EXPECT_FALSE(service.server(0).running());
  EXPECT_TRUE(service.server(3).running());
  // The joiner synchronized in.
  EXPECT_LT(service.server(3).current_error(service.now()), 0.5);
  EXPECT_TRUE(check_correctness(service.trace()).ok());
}

TEST(ScenarioRunner, PartitionAndHealAffectTraffic) {
  auto scenario = parse_scenario(R"(
    seed 9
    delay 0 0.002
    sample 0
    server algo=MM delta=1e-5 error=0.02 tau=2
    server algo=NONE delta=1e-6 error=0.001 tau=2
    at 0 partition 0 1
    at 100 heal 0 1
    run 200
  )");
  ScenarioRunner runner(std::move(scenario));
  auto& service = runner.run();
  // No resets were possible during the partition; after healing, server 0
  // adopted server 1.
  EXPECT_GT(service.network().stats().dropped_partition, 0u);
  EXPECT_GT(service.server(0).counters().resets, 0u);
  EXPECT_LT(service.server(0).current_error(service.now()), 0.02);
}

TEST(ScenarioRunner, HorizonOverrideAndMissingHorizon) {
  auto scenario = parse_scenario(R"(
    server algo=MM tau=10
    server algo=MM tau=10
    run 500
  )");
  ScenarioRunner runner(std::move(scenario));
  auto& service = runner.run(/*override_horizon=*/50.0);
  EXPECT_DOUBLE_EQ(service.now().seconds(), 50.0);

  auto no_run = parse_scenario("server algo=MM tau=10\nserver algo=MM tau=10\n");
  ScenarioRunner runner2(std::move(no_run));
  EXPECT_THROW(runner2.run(), std::invalid_argument);
}

}  // namespace
}  // namespace mtds::service
