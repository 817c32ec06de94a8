// Runs every shipped scenario file in scenarios/ and checks its intended
// outcome - the corpus doubles as executable documentation of the DSL.
#include <gtest/gtest.h>

#include <string>

#include "service/report.h"
#include "service/scenario.h"
#include "scenario_file.h"

namespace mtds::service {
namespace {

using test::read_scenario;

ServiceReport run_file(const std::string& name) {
  ScenarioRunner runner(parse_scenario(read_scenario(name)));
  return build_report(runner.run());
}

TEST(ScenarioCorpus, BasicMMIsHealthy) {
  const auto report = run_file("basic_mm.mtds");
  EXPECT_TRUE(report.healthy());
  EXPECT_GT(report.resets, 20u);
  for (const auto& s : report.servers) EXPECT_TRUE(s.correct);
}

TEST(ScenarioCorpus, RecoveryKeepsBadClockBounded) {
  const auto report = run_file("recovery.mtds");
  EXPECT_GT(report.recoveries, 0u);
  EXPECT_GT(report.inconsistencies, 0u);
  // The 4%-fast clock would free-run to 0.04 * 800 = 32 s; recovery keeps
  // it within a second.
  EXPECT_LT(std::abs(report.servers[0].offset.seconds()), 1.0);
  // As the paper observed, it is not *correct* between recoveries.
  EXPECT_FALSE(report.correctness.ok());
}

TEST(ScenarioCorpus, PartitionHealsAndResynchronizes) {
  const auto report = run_file("partition_heal.mtds");
  EXPECT_GT(report.network.dropped_partition, 0u);
  EXPECT_TRUE(report.correctness.ok());
  // After healing, the halves re-converged.
  double spread = 0.0;
  for (const auto& a : report.servers) {
    for (const auto& b : report.servers) {
      spread = std::max(spread, std::abs(a.offset.seconds() - b.offset.seconds()));
    }
  }
  EXPECT_LT(spread, 0.02);
}

TEST(ScenarioCorpus, IMFTSurvivesTwoLiars) {
  const auto report = run_file("imft_liars.mtds");
  // The five honest IMFT servers keep resetting and stay correct; the two
  // confident liars are, of course, incorrect.
  std::size_t honest_correct = 0, honest_resets = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    if (report.servers[i].correct) ++honest_correct;
    honest_resets += report.servers[i].counters.resets;
  }
  EXPECT_EQ(honest_correct, 5u);
  EXPECT_GT(honest_resets, 100u);
  EXPECT_FALSE(report.servers[5].correct);
  EXPECT_FALSE(report.servers[6].correct);
}

TEST(ScenarioCorpus, ChaosCrashLossAndHealing) {
  ScenarioRunner runner(parse_scenario(read_scenario("chaos.mtds")));
  TimeService& service = runner.run();
  const auto report = build_report(service);

  // The loss spike actually dropped traffic.
  EXPECT_GT(report.network.dropped_loss, 0u);

  // Everyone survived (server 4 restarted at t=250) and is correct.
  for (const auto& s : report.servers) {
    EXPECT_TRUE(s.running) << "S" << s.id;
    EXPECT_TRUE(s.correct) << "S" << s.id;
  }

  // The peers discovered the crash: deaths recorded, dead-peer backoff
  // suppressed full-rate polls, and probes went out at the reduced rate.
  std::uint64_t deaths = 0, probes = 0, suppressed = 0, heals = 0;
  for (const auto& s : report.servers) {
    deaths += s.counters.peer_deaths;
    probes += s.counters.probes_sent;
    suppressed += s.counters.polls_suppressed;
    heals += s.counters.peer_recoveries;
  }
  EXPECT_GT(deaths, 0u);
  EXPECT_GT(probes, 0u);
  EXPECT_GT(suppressed, 0u);
  // Backoff means far fewer probes than suppressed slots.
  EXPECT_LT(probes, suppressed);
  EXPECT_GT(heals, 0u);

  // After the restart every peer trusts server 4 again.
  for (std::size_t i = 0; i + 1 < service.size(); ++i) {
    EXPECT_EQ(service.server(i).peer_state(4), PeerState::kHealthy)
        << "S" << i;
  }
  // The trace recorded the transitions.
  EXPECT_GT(service.trace().count_events(sim::TraceEventKind::kPeerState), 0u);
}

// The byzantine_* corpus is asserted in depth (theorem bounds, detector
// true/false positives, sharded stability) by adversary_test; these entries
// keep every shipped scenario executable-documented with its headline.

TEST(ScenarioCorpus, ByzantineCollusionCapturesMM) {
  const auto report = run_file("byzantine_collusion_mm.mtds");
  // Incremental capture dragged the camps ~0.5 s apart: orders past any
  // honest spread, with the Section 2.3 check never firing along the way.
  EXPECT_GT(report.asynchronism.max_observed.seconds(), 0.3);
  EXPECT_FALSE(report.healthy());
}

TEST(ScenarioCorpus, ByzantineCollusionStallsIM) {
  const auto report = run_file("byzantine_collusion_im.mtds");
  // Denial of sync: the liars empty the intersection, resets stop, errors
  // then grow honestly - everyone ends correct but far out of Theorem 7.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(report.servers[i].correct) << "S" << i;
  }
  EXPECT_GT(report.inconsistencies, 300u);
  EXPECT_GT(report.asynchronism.max_observed.seconds(), 0.0062);
}

TEST(ScenarioCorpus, ByzantineCollusionCollapsesAgainstIMFT) {
  ScenarioRunner runner(parse_scenario(read_scenario("byzantine_collusion_imft.mtds")));
  TimeService& service = runner.run();
  const auto report = build_report(service);
  // The majority quorum covers without the liars; exclusion streaks become
  // quarantine and the honest servers end correct and tightly synchronized.
  std::uint64_t exclusions = 0, quarantines = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(report.servers[i].correct) << "S" << i;
    exclusions += report.servers[i].counters.marzullo_exclusions;
    quarantines += report.servers[i].counters.quarantines;
  }
  EXPECT_GT(exclusions, 0u);
  EXPECT_GT(quarantines, 0u);
  EXPECT_LT(report.asynchronism.max_observed.seconds(), 0.0062);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(service.server(i).peer_state(5),
              PeerState::kQuarantined) << "S" << i;
    EXPECT_EQ(service.server(i).peer_state(6),
              PeerState::kQuarantined) << "S" << i;
  }
}

TEST(ScenarioCorpus, ByzantineTwoFacedSplitsCampsSilently) {
  const auto report = run_file("byzantine_twofaced.mtds");
  // Equivocation defeats purely-local checking: zero inconsistencies, zero
  // convictions, yet the camps end past the consistency budget.
  std::uint64_t incons = 0, suspects = 0;
  for (const auto& s : report.servers) {
    incons += s.counters.inconsistencies;
    suspects += s.counters.byzantine_suspects;
  }
  EXPECT_EQ(incons, 0u);
  EXPECT_EQ(suspects, 0u);
  EXPECT_FALSE(report.consistency.ok());
  EXPECT_GT(report.servers[2].offset.seconds() -
                report.servers[1].offset.seconds(),
            0.03);
}

TEST(ScenarioCorpus, ByzantineAdaptiveLiarConvicted) {
  const auto report = run_file("byzantine_adaptive.mtds");
  // The bound-hugging liar is convicted by the cross-round detector when
  // its lie jumps with a victim's collapsing bound.
  std::uint64_t suspects = 0, quarantines = 0;
  for (const auto& s : report.servers) {
    suspects += s.counters.byzantine_suspects;
    quarantines += s.counters.quarantines;
  }
  EXPECT_GE(suspects, 1u);
  EXPECT_GE(quarantines, 1u);
}

TEST(ScenarioCorpus, ChurnEndsHealthyForSurvivors) {
  const auto report = run_file("churn.mtds");
  EXPECT_EQ(report.joins, 5u);   // 3 initial + 2 timeline joins
  EXPECT_EQ(report.leaves, 2u);
  std::size_t running = 0;
  for (const auto& s : report.servers) {
    if (s.running) {
      ++running;
      EXPECT_TRUE(s.correct) << "S" << s.id;
      EXPECT_LT(s.error, 0.5);  // late joiners synchronized in
    }
  }
  EXPECT_EQ(running, 3u);
}

}  // namespace
}  // namespace mtds::service
