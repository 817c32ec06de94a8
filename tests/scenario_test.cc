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
  EXPECT_DOUBLE_EQ(s0.simulated_drift, 1e-5);
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
  EXPECT_EQ(s.actions[3].kind, ScenarioAction::Kind::kCrash);  // a leave is a crash-stop
  EXPECT_EQ(s.actions[3].a, 2u);
}

TEST(ParseScenario, ServerSpecCoversEveryKey) {
  ServerSpec base;
  base.claimed_delta = 1e-4;
  base.poll_period = 0.5;
  const ServerSpec s = parse_server_spec(
      "algo=IMFT delta=2e-5 drift=-3e-6 error=0.04 offset=0.01 tau=2 "
      "recovery=third pool=3,4 adaptive=0.02 adaptive-min=0.25 "
      "adaptive-max=8 filter=1 monitor=1 health=0 "
      "quarantine=5 release=4 probation=2 chaos-drop=0.1 chaos-dup=0.2 "
      "chaos-delay=0.3 chaos-delay-max=0.05 chaos-corrupt=0.01 "
      "chaos-seed=99  # trailing comment",
      base);
  EXPECT_EQ(s.algo, core::SyncAlgorithm::kIMFT);
  EXPECT_DOUBLE_EQ(s.claimed_delta, 2e-5);
  EXPECT_DOUBLE_EQ(s.simulated_drift, -3e-6);
  EXPECT_DOUBLE_EQ(s.initial_error.seconds(), 0.04);
  EXPECT_DOUBLE_EQ(s.initial_offset.seconds(), 0.01);
  EXPECT_DOUBLE_EQ(s.poll_period.seconds(), 2.0);
  EXPECT_EQ(s.recovery, RecoveryPolicy::kThirdServer);
  EXPECT_EQ(s.recovery_pool, (std::vector<core::ServerId>{3, 4}));
  EXPECT_TRUE(s.adaptive.enabled);
  EXPECT_DOUBLE_EQ(s.adaptive.error_target.seconds(), 0.02);
  EXPECT_DOUBLE_EQ(s.adaptive.min_period.seconds(), 0.25);
  EXPECT_DOUBLE_EQ(s.adaptive.max_period.seconds(), 8.0);
  EXPECT_TRUE(s.use_sample_filter);
  EXPECT_TRUE(s.monitor_rates);
  EXPECT_TRUE(s.health.enabled);  // quarantine=5 implies health=1
  EXPECT_EQ(s.health.quarantine_after, 5u);
  EXPECT_EQ(s.health.release_after, 4u);
  EXPECT_EQ(s.health.probation_rounds, 2u);
  EXPECT_DOUBLE_EQ(s.chaos.drop, 0.1);
  EXPECT_DOUBLE_EQ(s.chaos.duplicate, 0.2);
  EXPECT_DOUBLE_EQ(s.chaos.delay, 0.3);
  EXPECT_DOUBLE_EQ(s.chaos.delay_hi.seconds(), 0.05);
  EXPECT_DOUBLE_EQ(s.chaos.corrupt, 0.01);
  EXPECT_EQ(s.chaos.seed, 99u);
  EXPECT_TRUE(s.chaos.active());

  // Unset keys keep the base's values.
  const ServerSpec empty = parse_server_spec("", base);
  EXPECT_DOUBLE_EQ(empty.claimed_delta, 1e-4);
  EXPECT_DOUBLE_EQ(empty.poll_period.seconds(), 0.5);
  EXPECT_FALSE(empty.adaptive.enabled);

  // A daemon-shaped line reads the same through parse_server_spec and as
  // a scenario `server` line.
  const std::string daemon =
      "algo=IM delta=1e-4 tau=0.5 filter=1 health=1 chaos-drop=0.01";
  const ServerSpec d = parse_server_spec(daemon, ServerSpec{});
  const ServerSpec line =
      parse_scenario("server " + daemon + "\n").config.servers[0];
  EXPECT_EQ(d.algo, line.algo);
  EXPECT_EQ(d.algo, core::SyncAlgorithm::kIM);
  EXPECT_DOUBLE_EQ(d.claimed_delta, line.claimed_delta);
  EXPECT_DOUBLE_EQ(d.poll_period.seconds(), line.poll_period.seconds());
  EXPECT_EQ(d.use_sample_filter, line.use_sample_filter);
  EXPECT_EQ(d.health.enabled, line.health.enabled);
  EXPECT_DOUBLE_EQ(d.chaos.drop, line.chaos.drop);
  EXPECT_DOUBLE_EQ(d.initial_error.seconds(), line.initial_error.seconds());
}

TEST(ParseScenario, ActionsSortedByTime) {
  const auto s = parse_scenario(R"(
    server algo=MM tau=10
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
  // Probabilities lie in [0, 1), targets and periods are > 0, and booleans
  // are spelled out.
  EXPECT_THROW(parse_scenario("server tau=10 chaos-drop=1.5\nrun 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("server tau=10 adaptive=0\nrun 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("server tau=10 filter=\nrun 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_server_spec("chaos-dup=-0.1", ServerSpec{}),
               std::invalid_argument);
  EXPECT_THROW(parse_server_spec("adaptive-min=4 adaptive-max=2", ServerSpec{}),
               std::invalid_argument);
  EXPECT_THROW(parse_server_spec("chaos-seed=x", ServerSpec{}),
               std::invalid_argument);
  EXPECT_THROW(parse_server_spec("delta=abc", ServerSpec{}),
               std::invalid_argument);
  // Rounds poll each neighbour with its own tag; there is no broadcast key.
  EXPECT_THROW(parse_server_spec("broadcast=1", ServerSpec{}),
               std::invalid_argument);
  // Every number is finite: a NaN horizon never ends a run, and a NaN or
  // infinite bound makes every interval check vacuous.
  for (const char* bad :
       {"server algo=MM tau=10\nrun nan\n",
        "server algo=MM tau=10\nrun inf\n",
        "server algo=MM tau=nan\nrun 1\n",
        "server algo=MM tau=10 delta=nan\nrun 1\n",
        "server algo=MM tau=10 error=inf\nrun 1\n",
        "server algo=MM tau=10\ndelay 0 nan\nrun 1\n",
        "server algo=MM tau=10\nat nan crash 0\nrun 1\n"}) {
    EXPECT_THROW(parse_scenario(bad), std::invalid_argument) << bad;
  }
  // Every server id names a server or a joiner: ids run below servers plus
  // `at ... join` lines, and never wrap through the 32-bit id type.
  const std::string three =
      "server tau=10\nserver tau=10\nserver tau=10\n";
  for (const std::string& bad :
       {three + "at 5 crash 4294967296\n", three + "at 5 crash 4294967295\n",
        three + "at 5 crash 7\n", three + "at 5 restart 3\n",
        three + "at 5 corrupt-state 3\n", three + "at 5 partition 0 3\n",
        three + "at 5 heal 3 0\n",
        three + "at 5 join tau=10\nat 9 crash 4\n",
        three + "at 5 join tau=10 recovery=third pool=0,4\n",
        "server tau=10 recovery=third pool=1,4\n" + three,
        "server tau=10 pool=4294967296\n" + three}) {
    EXPECT_THROW(parse_scenario(bad), std::invalid_argument) << bad;
  }
  // An action may name a joiner only once its join has run: actions run in
  // time order, same-time actions in file order, and S3 joins at t=10.
  const std::string joins_at_10 = "at 10 join algo=MM\n";
  for (const std::string& bad :
       {three + "at 5 crash 3\n" + joins_at_10,
        three + "at 5 restart 3\n" + joins_at_10,
        three + "at 5 corrupt-state 3\n" + joins_at_10,
        three + "at 5 partition 0 3\n" + joins_at_10,
        three + "at 5 heal 3 1\n" + joins_at_10,
        three + "at 10 crash 3\n" + joins_at_10,
        three + joins_at_10 + "at 15 join tau=10\nat 12 crash 4\n"}) {
    try {
      parse_scenario(bad + "run 20\n");
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("has not joined by t="),
                std::string::npos)
          << e.what();
      EXPECT_EQ(std::string(e.what()).rfind("line ", 0), 0u) << e.what();
    }
  }
}

TEST(ScenarioRunner, SameTimeJoinThenCrashCrashesTheJoiner) {
  // The join is listed first, so at t=10 it runs first and S3 exists when
  // the crash names it.
  auto scenario = parse_scenario(R"(
    server algo=MM tau=5
    server algo=MM tau=5
    server algo=MM tau=5
    at 10 join algo=MM tau=5
    at 10 crash 3
    run 20
  )");
  ASSERT_EQ(scenario.actions.size(), 2u);
  EXPECT_EQ(scenario.actions[0].kind, ScenarioAction::Kind::kJoin);
  EXPECT_EQ(scenario.actions[1].kind, ScenarioAction::Kind::kCrash);
  ScenarioRunner runner(std::move(scenario));
  auto& service = runner.run();
  EXPECT_EQ(service.size(), 4u);
  EXPECT_FALSE(service.server(3).running());
  EXPECT_EQ(service.running_count(), 3u);
}

TEST(ParseScenario, ActionsMayNameJoiners) {
  const auto s = parse_scenario(R"(
    server algo=MM tau=10 recovery=third pool=1,3
    server algo=MM tau=10
    server algo=MM tau=10
    at 20 crash 3
    at 10 join algo=MM tau=10
    run 30
  )");
  ASSERT_EQ(s.actions.size(), 2u);
  EXPECT_EQ(s.actions[1].kind, ScenarioAction::Kind::kCrash);
  EXPECT_EQ(s.actions[1].a, 3u);
}

TEST(ParseScenario, ThreadsMustBeOne) {
  const auto one = parse_scenario("threads 1\nserver tau=10\nrun 1\n");
  EXPECT_EQ(one.config.servers.size(), 1u);
  try {
    parse_scenario("server tau=10\nthreads 2\nrun 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("one thread"), std::string::npos)
        << e.what();
  }
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
