// PeerTable's health column: the reachability state machine in isolation,
// plus the engine-level degraded mode it drives.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "service/peer_table.h"
#include "service/time_service.h"

namespace mtds::service {
namespace {

PeerHealthPolicy policy(std::uint32_t suspect_after = 2,
                        std::uint32_t dead_after = 4,
                        std::uint32_t backoff_start = 2,
                        std::uint32_t backoff_max = 8, double jitter = 0.0,
                        std::uint32_t quarantine_after = 0) {
  PeerHealthPolicy p;
  p.enabled = true;
  p.suspect_after = suspect_after;
  p.dead_after = dead_after;
  p.backoff_start = backoff_start;
  p.backoff_max = backoff_max;
  p.jitter = jitter;
  p.quarantine_after = quarantine_after;
  return p;
}

TEST(PeerTableHealth, MissStreakWalksHealthySuspectDead) {
  sim::Rng rng{1};
  PeerTable table({.health = policy()}, &rng);
  const PeerTable::Row peer = table.row(7);
  std::vector<std::pair<PeerState, PeerState>> transitions;
  table.set_transition_hook(
      [&](core::ServerId, PeerState from, PeerState to) {
        transitions.emplace_back(from, to);
      });

  EXPECT_EQ(table.state(peer), PeerState::kHealthy);
  table.note_missed(peer);
  EXPECT_EQ(table.state(peer), PeerState::kHealthy);
  table.note_missed(peer);
  EXPECT_EQ(table.state(peer), PeerState::kSuspect);
  table.note_missed(peer);
  table.note_missed(peer);
  EXPECT_EQ(table.state(peer), PeerState::kDead);

  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], std::make_pair(PeerState::kHealthy,
                                           PeerState::kSuspect));
  EXPECT_EQ(transitions[1], std::make_pair(PeerState::kSuspect,
                                           PeerState::kDead));
}

TEST(PeerTableHealth, OneReplyHealsSuspectAndDead) {
  sim::Rng rng{1};
  PeerTable table({.health = policy()}, &rng);
  const PeerTable::Row peer = table.row(7);
  for (int i = 0; i < 10; ++i) table.note_missed(peer);
  EXPECT_EQ(table.state(peer), PeerState::kDead);
  table.note_reply(peer);
  EXPECT_EQ(table.state(peer), PeerState::kHealthy);
  // ... and the miss streak restarted from zero.
  table.note_missed(peer);
  EXPECT_EQ(table.state(peer), PeerState::kHealthy);
}

TEST(PeerTableHealth, DeadPeerIsProbedOnExponentialBackoff) {
  sim::Rng rng{1};
  // jitter = 0 so the probe schedule is exact: intervals 2, 4, 8, 8, ...
  PeerTable table({.health = policy(2, 4, 2, 8, 0.0)}, &rng);
  const PeerTable::Row peer = table.row(7);
  for (int i = 0; i < 4; ++i) table.note_missed(peer);
  ASSERT_EQ(table.state(peer), PeerState::kDead);

  std::vector<int> probe_rounds;
  for (int round = 0; round < 40; ++round) {
    if (table.should_poll(peer)) probe_rounds.push_back(round);
  }
  // Probe immediately, then after 2, 4, 8, 8, ... suppressed rounds.
  ASSERT_GE(probe_rounds.size(), 5u);
  EXPECT_EQ(probe_rounds[0], 0);
  EXPECT_EQ(probe_rounds[1], 2);
  EXPECT_EQ(probe_rounds[2], 6);
  EXPECT_EQ(probe_rounds[3], 14);
  EXPECT_EQ(probe_rounds[4], 22);
  // Far below full rate: the acceptance criterion for "provably not polled
  // at full rate".
  EXPECT_LT(probe_rounds.size(), 8u);
}

TEST(PeerTableHealth, JitterSpreadsProbeSchedule) {
  // With jitter, two trackers that declared the same peer dead in the same
  // round need not probe in lockstep (they draw from different streams).
  sim::Rng rng_a{1}, rng_b{2};
  PeerTable a({.health = policy(2, 4, 4, 32, 1.0)}, &rng_a);
  const PeerTable::Row peer_a = a.row(7);
  PeerTable b({.health = policy(2, 4, 4, 32, 1.0)}, &rng_b);
  const PeerTable::Row peer_b = b.row(7);
  for (int i = 0; i < 4; ++i) {
    a.note_missed(peer_a);
    b.note_missed(peer_b);
  }
  std::vector<int> rounds_a, rounds_b;
  for (int round = 0; round < 200; ++round) {
    if (a.should_poll(peer_a)) rounds_a.push_back(round);
    if (b.should_poll(peer_b)) rounds_b.push_back(round);
  }
  EXPECT_NE(rounds_a, rounds_b);
}

TEST(PeerTableHealth, HealedPeerReturnsToFullRatePolling) {
  sim::Rng rng{1};
  // backoff_max = 2: a revived peer is probed within two rounds, so it
  // heals within two poll periods of coming back.
  PeerTable table({.health = policy(2, 4, 2, 2, 0.0)}, &rng);
  const PeerTable::Row peer = table.row(7);
  for (int i = 0; i < 4; ++i) table.note_missed(peer);
  ASSERT_EQ(table.state(peer), PeerState::kDead);

  // Drain the schedule to an arbitrary point, then "revive" the peer: the
  // next probe is at most 2 rounds away.
  table.should_poll(peer);
  int rounds_until_probe = 0;
  while (!table.should_poll(peer)) ++rounds_until_probe;
  EXPECT_LE(rounds_until_probe, 2);
  // The probe got a reply: healthy again, polled every round.
  table.note_reply(peer);
  EXPECT_EQ(table.state(peer), PeerState::kHealthy);
  EXPECT_TRUE(table.should_poll(peer));
  EXPECT_TRUE(table.should_poll(peer));
}

TEST(PeerTableHealth, QuarantineIsStickyAndStopsPolling) {
  sim::Rng rng{1};
  PeerTable table({.health = policy(2, 4, 2, 8, 0.0, 3)}, &rng);
  const PeerTable::Row peer = table.row(7);

  table.note_inconsistent(peer);
  table.note_inconsistent(peer);
  EXPECT_EQ(table.state(peer), PeerState::kHealthy);
  // A consistent round resets the streak (Section 4: still in the group).
  table.note_consistent(peer);
  table.note_inconsistent(peer);
  table.note_inconsistent(peer);
  EXPECT_EQ(table.state(peer), PeerState::kHealthy);
  table.note_inconsistent(peer);
  EXPECT_EQ(table.state(peer), PeerState::kQuarantined);

  // Alive but untrusted: replies do not heal it, polls stop, misses don't
  // demote it to dead.
  table.note_reply(peer);
  EXPECT_EQ(table.state(peer), PeerState::kQuarantined);
  EXPECT_FALSE(table.should_poll(peer));
  table.note_missed(peer);
  EXPECT_EQ(table.state(peer), PeerState::kQuarantined);
}

TEST(PeerTableHealth, ReachableCountExcludesDeadAndQuarantined) {
  sim::Rng rng{1};
  PeerTable table({.health = policy(2, 4, 2, 8, 0.0, 1)}, &rng);
  const std::vector<core::ServerId> peers{1, 2, 3, 4};
  for (core::ServerId id : peers) table.row(id);

  EXPECT_EQ(table.reachable_count(peers), 4u);
  for (int i = 0; i < 4; ++i) table.note_missed(table.find(1));  // dead
  table.note_missed(table.find(2));
  table.note_missed(table.find(2));    // suspect: reachable
  table.note_inconsistent(table.find(3));  // quarantined
  EXPECT_EQ(table.reachable_count(peers), 2u);
}

// --- Probation release ----------------------------------------------------

TEST(PeerTableHealth, QuarantineReleasesIntoProbationAfterSentence) {
  sim::Rng rng{1};
  PeerHealthPolicy p = policy(2, 4, 2, 8, 0.0, /*quarantine_after=*/1);
  p.release_after = 3;
  p.probation_rounds = 2;
  PeerTable table({.health = p}, &rng);
  const PeerTable::Row peer = table.row(7);
  std::vector<std::pair<PeerState, PeerState>> transitions;
  table.set_transition_hook(
      [&](core::ServerId, PeerState from, PeerState to) {
        transitions.emplace_back(from, to);
      });

  table.note_inconsistent(peer);
  ASSERT_EQ(table.state(peer), PeerState::kQuarantined);

  // Each skipped round counts toward release; the peer is not polled while
  // the sentence runs, then is polled immediately on release.
  EXPECT_FALSE(table.should_poll(peer));
  EXPECT_FALSE(table.should_poll(peer));
  EXPECT_EQ(table.state(peer), PeerState::kQuarantined);
  EXPECT_TRUE(table.should_poll(peer));
  EXPECT_EQ(table.state(peer), PeerState::kProbation);
  // Probation peers ARE polled every round (readings discarded elsewhere).
  EXPECT_TRUE(table.should_poll(peer));

  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0],
            std::make_pair(PeerState::kHealthy, PeerState::kQuarantined));
  EXPECT_EQ(transitions[1],
            std::make_pair(PeerState::kQuarantined, PeerState::kProbation));
}

TEST(PeerTableHealth, ProbationRehabilitatesOnlyAfterFullConsistentStreak) {
  sim::Rng rng{1};
  PeerHealthPolicy p = policy(2, 4, 2, 8, 0.0, /*quarantine_after=*/1);
  p.release_after = 1;
  p.probation_rounds = 3;
  PeerTable table({.health = p}, &rng);
  const PeerTable::Row peer = table.row(7);

  table.note_inconsistent(peer);
  ASSERT_TRUE(table.should_poll(peer));  // release_after = 1: out immediately
  ASSERT_EQ(table.state(peer), PeerState::kProbation);

  // One or two consistent rounds are not enough.
  table.note_probation_consistent(peer);
  EXPECT_EQ(table.state(peer), PeerState::kProbation);
  table.note_probation_consistent(peer);
  EXPECT_EQ(table.state(peer), PeerState::kProbation);
  table.note_probation_consistent(peer);
  EXPECT_EQ(table.state(peer), PeerState::kHealthy);

  // Rehabilitation cleared the conviction streak: one fresh inconsistency
  // does not immediately re-quarantine under quarantine_after = 1's worth
  // of accumulated history (the streak restarted from zero, so this single
  // call is what convicts - state machine, not memory of the old offense).
  table.note_missed(peer);
  EXPECT_EQ(table.state(peer), PeerState::kHealthy);  // miss streak reset too
}

TEST(PeerTableHealth, MissedProbationRoundResetsStreakWithoutDemotion) {
  sim::Rng rng{1};
  PeerHealthPolicy p = policy(2, 4, 2, 8, 0.0, /*quarantine_after=*/1);
  p.release_after = 1;
  p.probation_rounds = 2;
  PeerTable table({.health = p}, &rng);
  const PeerTable::Row peer = table.row(7);

  table.note_inconsistent(peer);
  ASSERT_TRUE(table.should_poll(peer));
  ASSERT_EQ(table.state(peer), PeerState::kProbation);

  // A miss breaks the chain but does not demote (no note_reply laundering
  // path back to healthy) - the full streak is required again afterwards.
  table.note_probation_consistent(peer);
  table.note_missed(peer);
  EXPECT_EQ(table.state(peer), PeerState::kProbation);
  table.note_probation_consistent(peer);
  EXPECT_EQ(table.state(peer), PeerState::kProbation);
  table.note_probation_consistent(peer);
  EXPECT_EQ(table.state(peer), PeerState::kHealthy);
}

TEST(PeerTableHealth, OffenseDuringProbationRestartsTheSentence) {
  sim::Rng rng{1};
  PeerHealthPolicy p = policy(2, 4, 2, 8, 0.0, /*quarantine_after=*/3);
  p.release_after = 2;
  p.probation_rounds = 2;
  PeerTable table({.health = p}, &rng);
  const PeerTable::Row peer = table.row(7);

  table.note_byzantine(peer);  // hard evidence: immediate quarantine
  ASSERT_EQ(table.state(peer), PeerState::kQuarantined);
  EXPECT_FALSE(table.should_poll(peer));
  EXPECT_TRUE(table.should_poll(peer));
  ASSERT_EQ(table.state(peer), PeerState::kProbation);

  // A single inconsistency during probation goes straight back to
  // quarantine - no quarantine_after streak for a convict on supervised
  // release - and the release countdown starts over from zero.
  table.note_probation_consistent(peer);
  table.note_inconsistent(peer);
  EXPECT_EQ(table.state(peer), PeerState::kQuarantined);
  EXPECT_FALSE(table.should_poll(peer));
  EXPECT_TRUE(table.should_poll(peer));
  ASSERT_EQ(table.state(peer), PeerState::kProbation);

  // Same for byzantine evidence during probation; partial probation
  // progress is discarded on re-conviction.
  table.note_probation_consistent(peer);
  table.note_byzantine(peer);
  EXPECT_EQ(table.state(peer), PeerState::kQuarantined);
  EXPECT_FALSE(table.should_poll(peer));
  EXPECT_TRUE(table.should_poll(peer));
  table.note_probation_consistent(peer);
  EXPECT_EQ(table.state(peer), PeerState::kProbation);  // streak restarted
  table.note_probation_consistent(peer);
  EXPECT_EQ(table.state(peer), PeerState::kHealthy);
}

TEST(PeerTableHealth, ProbationConsistentIsNoOpOutsideProbation) {
  sim::Rng rng{1};
  // Sticky default: release_after = 0 never releases, and probation credit
  // cannot be banked from any other state.
  PeerTable table({.health = policy(2, 4, 2, 8, 0.0, /*quarantine_after=*/1)},
                  &rng);
  const PeerTable::Row peer = table.row(7);

  table.note_probation_consistent(peer);  // healthy: no-op
  EXPECT_EQ(table.state(peer), PeerState::kHealthy);

  table.note_inconsistent(peer);
  ASSERT_EQ(table.state(peer), PeerState::kQuarantined);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(table.should_poll(peer));
    table.note_probation_consistent(peer);  // quarantined: no-op
  }
  EXPECT_EQ(table.state(peer), PeerState::kQuarantined);
}

// --- Engine-level degraded mode ------------------------------------------

TEST(PeerTableHealthEngine, DegradedModeEntersAndExitsWithReachability) {
  ServiceConfig cfg;
  cfg.seed = 5;
  cfg.delay_hi = 0.005;
  cfg.sample_interval = 0.0;
  for (int i = 0; i < 3; ++i) {
    ServerSpec s;
    s.algo = core::SyncAlgorithm::kMM;
    s.claimed_delta = 2e-5;
    s.simulated_drift = (i - 1) * 5e-6;
    s.initial_error = 0.01;
    s.poll_period = 5.0;
    s.health.enabled = true;
    // Arm an (otherwise quiet) injector so the test can crash servers.
    s.chaos.enabled = true;
    cfg.servers.push_back(s);
  }
  TimeService service(cfg);
  service.run_until(50.0);
  EXPECT_FALSE(service.server(0).degraded());

  // Both of S0's peers crash-stop: S0 walks them to dead and must announce
  // degraded mode.
  service.server(1).fault_injector()->set_crashed(true);
  service.server(2).fault_injector()->set_crashed(true);
  service.run_until(150.0);
  EXPECT_TRUE(service.server(0).degraded());
  EXPECT_EQ(service.server(0).peer_state(1), PeerState::kDead);
  EXPECT_EQ(service.server(0).peer_state(2), PeerState::kDead);
  EXPECT_GE(service.server(0).counters().degraded_entries, 1u);
  EXPECT_GT(service.server(0).counters().polls_suppressed, 0u);
  EXPECT_GT(service.server(0).counters().probes_sent, 0u);
  // The trace recorded the entry.
  EXPECT_GT(service.trace().count_events(0, sim::TraceEventKind::kDegraded),
            0u);

  // One peer returns: the next successful probe reply must clear the flag.
  service.server(1).fault_injector()->set_crashed(false);
  service.run_until(300.0);
  EXPECT_FALSE(service.server(0).degraded());
  EXPECT_EQ(service.server(0).peer_state(1), PeerState::kHealthy);
  // Correctness held throughout (all drift bounds are valid).
  EXPECT_TRUE(service.all_correct());
}

}  // namespace
}  // namespace mtds::service
