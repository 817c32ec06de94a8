// Byzantine adversary plane: strategy unit behavior, seeded determinism,
// the cross-round equivocation detector (true positives under an adaptive
// liar, no false positives under honest chaos), and the headline acceptance
// claim of the shipped byzantine_* scenario trio - rules MM and IM violate
// their own asynchronism theorems (3 and 7) under a colluding attack with
// f < n/2, while IMFT under the identical topology, seed and attack keeps
// the Theorem 7 bound, excludes the liars and quarantines them.  The trio
// is asserted on the default one-shard engine AND on 8 shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "runtime/adversary.h"
#include "runtime/fault_injector.h"
#include "service/report.h"
#include "service/scenario.h"
#include "scenario_file.h"
#include "sim/trace.h"

namespace mtds {
namespace {

using core::Duration;
using core::ServerId;
using service::ServiceMessage;

ServiceMessage response(ServerId from, ServerId to, double c, double e) {
  ServiceMessage msg;
  msg.type = ServiceMessage::Type::kTimeResponse;
  msg.from = from;
  msg.to = to;
  msg.c = c;
  msg.e = e;
  return msg;
}

// ---------------------------------------------------------------------------
// Strategy unit behavior: each lie is a pure function of (destination,
// observed traffic, wall time).

TEST(AdversaryStrategy, TwoFacedSplitsByDestinationParity) {
  runtime::TwoFaced liar(/*magnitude=*/0.02, /*claimed_error=*/0.005);

  ServiceMessage even = response(0, 2, 100.0, 0.01);
  const auto re = liar.rewrite(0, 2, even, 10.0);
  EXPECT_TRUE(re.forged);
  EXPECT_TRUE(re.equivocated);
  EXPECT_DOUBLE_EQ(even.c.seconds(), 100.02);
  EXPECT_DOUBLE_EQ(even.e.seconds(), 0.005);

  ServiceMessage odd = response(0, 3, 100.0, 0.01);
  liar.rewrite(0, 3, odd, 10.0);
  EXPECT_DOUBLE_EQ(odd.c.seconds(), 99.98);

  // Requests pass untouched: only time responses carry the lie.
  ServiceMessage req;
  req.type = ServiceMessage::Type::kTimeRequest;
  EXPECT_FALSE(liar.rewrite(0, 2, req, 10.0).forged);
}

TEST(AdversaryStrategy, DriftAmplifierGrowsFromFirstRewrite) {
  runtime::DriftAmplifier liar(/*rate=*/0.001, /*claimed_error=*/0.0);

  ServiceMessage first = response(0, 1, 50.0, 0.02);
  const auto r1 = liar.rewrite(0, 1, first, 100.0);
  EXPECT_TRUE(r1.forged);
  EXPECT_FALSE(r1.equivocated);  // same lie to every destination
  EXPECT_DOUBLE_EQ(first.c.seconds(), 50.0);  // epoch latched, no skew yet
  EXPECT_DOUBLE_EQ(first.e.seconds(), 0.02);  // claimed_error 0 = keep honest

  ServiceMessage later = response(0, 2, 80.0, 0.02);
  liar.rewrite(0, 2, later, 130.0);
  EXPECT_DOUBLE_EQ(later.c.seconds(), 80.0 + 0.001 * 30.0);
}

TEST(AdversaryStrategy, CollusionTellsMembersTheTruth) {
  auto plan = std::make_shared<runtime::CollusionPlan>();
  plan->members = {5, 6};
  plan->rate = 0.001;
  plan->claimed_error = 0.02;
  runtime::Collusion liar(plan);

  // Co-conspirator: untouched copy, not even counted as forged.
  ServiceMessage ally = response(5, 6, 10.0, 0.05);
  EXPECT_FALSE(liar.rewrite(5, 6, ally, 0.0).forged);
  EXPECT_DOUBLE_EQ(ally.c.seconds(), 10.0);

  // Victims: camp by id parity, drag grows with time since first lie.
  ServiceMessage v0 = response(5, 0, 10.0, 0.05);
  const auto r0 = liar.rewrite(5, 0, v0, 100.0);  // latches the epoch
  EXPECT_TRUE(r0.forged);
  EXPECT_TRUE(r0.equivocated);
  EXPECT_DOUBLE_EQ(v0.e.seconds(), 0.02);

  ServiceMessage even = response(5, 2, 10.0, 0.05);
  liar.rewrite(5, 2, even, 150.0);
  EXPECT_DOUBLE_EQ(even.c.seconds(), 10.0 + 0.001 * 50.0);

  ServiceMessage odd = response(5, 1, 10.0, 0.05);
  liar.rewrite(5, 1, odd, 150.0);
  EXPECT_DOUBLE_EQ(odd.c.seconds(), 10.0 - 0.001 * 50.0);
}

TEST(AdversaryStrategy, AdaptiveLiesInsideObservedBounds) {
  runtime::Adaptive liar(/*margin=*/0.8, /*claimed_error=*/0.002);

  // Bound not yet observed: stay honest.
  ServiceMessage blind = response(2, 0, 10.0, 0.001);
  EXPECT_FALSE(liar.rewrite(2, 0, blind, 1.0).forged);
  EXPECT_DOUBLE_EQ(blind.c.seconds(), 10.0);

  // The host hears victim 0's response (E_0 = 0.5); the next lie to victim
  // 0 is margin * E_0, claimed at 2 ms.
  liar.on_observe(2, runtime::TrafficDir::kInbound, 0,
                  response(0, 2, 10.0, 0.5), 2.0);
  ServiceMessage lie = response(2, 0, 10.0, 0.001);
  const auto r = liar.rewrite(2, 0, lie, 3.0);
  EXPECT_TRUE(r.forged);
  EXPECT_DOUBLE_EQ(lie.c.seconds(), 10.0 + 0.8 * 0.5);
  EXPECT_DOUBLE_EQ(lie.e.seconds(), 0.002);

  // The victim resets; its bound collapses; the lie must shrink with it -
  // the jump the cross-round detector convicts.
  liar.on_observe(2, runtime::TrafficDir::kInbound, 0,
                  response(0, 2, 10.0, 0.004), 8.0);
  ServiceMessage shrunk = response(2, 0, 10.0, 0.001);
  liar.rewrite(2, 0, shrunk, 9.0);
  EXPECT_DOUBLE_EQ(shrunk.c.seconds(), 10.0 + 0.8 * 0.004);
}

// ---------------------------------------------------------------------------
// Scenario harness (mirrors scenario_corpus_test).

using test::read_scenario;

// shards == 0 keeps the scenario's own shard count (one for the byzantine
// corpus); shards > 0 forces that many shards.
std::unique_ptr<service::ScenarioRunner> run_scenario(const std::string& name,
                                                      std::uint32_t shards = 0) {
  service::Scenario scenario = service::parse_scenario(read_scenario(name));
  if (shards > 0) scenario.config.sim_shards = shards;
  auto runner = std::make_unique<service::ScenarioRunner>(std::move(scenario));
  runner->run();
  return runner;
}

// FNV-1a over the trace (doubles by bit pattern), as in determinism_test.
std::uint64_t hash_trace(const sim::Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  mix(trace.samples().size());
  for (const auto& s : trace.samples()) {
    mix(std::bit_cast<std::uint64_t>(s.t.seconds()));
    mix(s.server);
    mix(std::bit_cast<std::uint64_t>(s.clock.seconds()));
    mix(std::bit_cast<std::uint64_t>(s.error.seconds()));
  }
  mix(trace.events().size());
  for (const auto& e : trace.events()) {
    mix(std::bit_cast<std::uint64_t>(e.t.seconds()));
    mix(e.server);
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.peer);
    mix(std::bit_cast<std::uint64_t>(e.detail));
  }
  return h;
}

std::vector<std::pair<ServerId, ServerId>> full_edges(ServerId n) {
  std::vector<std::pair<ServerId, ServerId>> edges;
  for (ServerId i = 0; i < n; ++i) {
    for (ServerId j = i + 1; j < n; ++j) edges.push_back({i, j});
  }
  return edges;
}

const runtime::FaultStats& stats_of(service::TimeService& service,
                                    ServerId id) {
  auto* injector = service.server(id).fault_injector();
  EXPECT_NE(injector, nullptr) << "S" << id << " has no chaos plane";
  static const runtime::FaultStats kEmpty{};
  return injector != nullptr ? injector->stats() : kEmpty;
}

// ---------------------------------------------------------------------------
// Seeded determinism: an attack transcript is a pure function of the
// scenario - identical trace AND identical forgery ledger on every run.

TEST(AdversaryDeterminism, SeededAttacksReplayExactly) {
  for (const std::string name :
       {"byzantine_twofaced.mtds", "byzantine_adaptive.mtds",
        "byzantine_collusion_mm.mtds"}) {
    auto a = run_scenario(name);
    auto b = run_scenario(name);
    EXPECT_EQ(hash_trace(a->service().trace()), hash_trace(b->service().trace()))
        << name << ": trace diverged between identical seeded runs";
    for (ServerId i = 0; i < a->service().size(); ++i) {
      if (a->service().server(i).fault_injector() == nullptr) continue;
      EXPECT_EQ(stats_of(a->service(), i), stats_of(b->service(), i))
          << name << ": S" << i << " forgery ledger diverged";
    }
  }
}

// ---------------------------------------------------------------------------
// Equivocation detector: true positive on the adaptive liar...

TEST(EquivocationDetector, ConvictsAdaptiveLiar) {
  auto runner = run_scenario("byzantine_adaptive.mtds");
  auto& service = runner->service();
  const auto report = service::build_report(service);

  // The liar forged responses (its lies are not equivocations: same rule
  // for every destination, just sized per victim).
  const auto& liar = stats_of(service, 2);
  EXPECT_GT(liar.forged, 0u);
  EXPECT_LE(liar.equivocations, liar.forged);

  // A victim's cross-round check convicted it and quarantined on the spot.
  std::uint64_t suspects = 0, quarantines = 0;
  for (const auto& s : report.servers) {
    suspects += s.counters.byzantine_suspects;
    quarantines += s.counters.quarantines;
  }
  EXPECT_GE(suspects, 1u);
  EXPECT_GE(quarantines, 1u);
  EXPECT_GT(
      service.trace().count_events(sim::TraceEventKind::kByzantineSuspect), 0u);
  EXPECT_EQ(service.server(0).peer_state(2), service::PeerState::kQuarantined);
}

// ... and no false positives from honest resets under chaos: crash/restart,
// loss spikes and partition churn move bounds around legitimately, but the
// conviction budget (e_prev + e_now + drift + rtt slack) covers them.

TEST(EquivocationDetector, NoFalsePositivesUnderHonestChaos) {
  for (const std::string name : {"chaos.mtds", "basic_mm.mtds"}) {
    auto runner = run_scenario(name);
    const auto report = service::build_report(runner->service());
    std::uint64_t suspects = 0;
    for (const auto& s : report.servers) suspects += s.counters.byzantine_suspects;
    EXPECT_EQ(suspects, 0u) << name << ": honest server convicted";
    EXPECT_EQ(runner->service().trace().count_events(
                  sim::TraceEventKind::kByzantineSuspect),
              0u)
        << name;
  }
}

// ---------------------------------------------------------------------------
// TwoFaced: equivocation is invisible to purely-local checking.

TEST(AdversaryScenario, TwoFacedSplitsCampsWithZeroLocalEvidence) {
  auto runner = run_scenario("byzantine_twofaced.mtds");
  auto& service = runner->service();
  const auto report = service::build_report(service);

  // The hub equivocated: destination-dependent lies in its own ledger.
  const auto& hub = stats_of(service, 0);
  EXPECT_GT(hub.equivocations, 0u);
  EXPECT_GE(hub.forged, hub.equivocations);

  // Zero local evidence at any victim: no inconsistent reading, no
  // cross-round conviction, no quarantine - every per-destination lie is
  // individually smooth.
  std::uint64_t incons = 0, suspects = 0, quarantines = 0;
  for (const auto& s : report.servers) {
    incons += s.counters.inconsistencies;
    suspects += s.counters.byzantine_suspects;
    quarantines += s.counters.quarantines;
  }
  EXPECT_EQ(incons, 0u);
  EXPECT_EQ(suspects, 0u);
  EXPECT_EQ(quarantines, 0u);

  // Yet the even and odd camps ended ~40 ms apart - pairwise consistency
  // (the bound both camps would swear to) is violated service-wide.
  const double split =
      report.servers[2].offset.seconds() - report.servers[1].offset.seconds();
  EXPECT_GT(split, 0.03);
  EXPECT_FALSE(report.consistency.ok());
}

// ---------------------------------------------------------------------------
// The acceptance trio: same topology, same seed, same collusion attack
// (f = 2 < n/2).  MM breaks Theorem 3, IM breaks Theorem 7, IMFT holds.

constexpr double kXi = 0.006;        // round-trip delay bound: 2 * delay_hi
constexpr double kDelta = 2e-5;      // honest claimed drift
constexpr double kTau = 5.0;         // poll period
// E_M never exceeds the colluders' 0.05 + delta * t <= 0.0505 over the
// 400 s horizon, so this over-estimates the Theorem 3 right-hand side -
// exceeding the bound built from it is a fortiori a violation.
constexpr double kEMinCeiling = 0.051;

TEST(AdversaryScenario, CollusionTrioAcceptance) {
  const auto honest = full_edges(5);  // servers 5, 6 are the colluders
  const Duration mm_bound =
      core::mm_asynchronism_bound(kEMinCeiling, kXi, kDelta, kDelta, kTau);
  const Duration im_bound =
      core::im_asynchronism_bound(kXi, kDelta, kDelta, kTau);

  // One shard, then 8: the same conclusions must hold on both engines.
  for (const std::uint32_t shards : {0u, 8u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);

    // MM: incremental capture drags the camps ~0.5 s apart - the measured
    // honest-edge spread blows through Theorem 3 several times over.
    auto mm = run_scenario("byzantine_collusion_mm.mtds", shards);
    const auto mm_grad =
        service::check_gradient(mm->service().trace(), honest, mm_bound);
    EXPECT_FALSE(mm_grad.violations.empty());
    EXPECT_GT(mm_grad.max_edge_spread, 3.0 * mm_bound);

    // IM: after a few early captures the liars empty every intersection;
    // resets stop and the camps free-run past Theorem 7 (denial of sync).
    // Once stalled, errors grow honestly again, so every victim is correct
    // at the horizon - yet permanently out of the asynchronism bound.
    auto im = run_scenario("byzantine_collusion_im.mtds", shards);
    const auto im_report = service::build_report(im->service());
    const auto im_grad =
        service::check_gradient(im->service().trace(), honest, im_bound);
    EXPECT_FALSE(im_grad.violations.empty());
    EXPECT_GT(im_grad.max_edge_spread, 1.5 * im_bound);
    for (ServerId i = 0; i < 5; ++i) {
      EXPECT_TRUE(im_report.servers[i].correct) << "S" << i;
    }
    EXPECT_GT(im_report.inconsistencies, 100u);

    // IMFT: the majority quorum covers without the liars every round; the
    // honest subgraph keeps the Theorem 7 gradient bound, the readings the
    // coverage excluded show up in the ledger, and the Section 4 rule turns
    // the exclusion streak into quarantine (suppressing further polls).
    auto ft = run_scenario("byzantine_collusion_imft.mtds", shards);
    const auto ft_report = service::build_report(ft->service());
    const auto ft_grad =
        service::check_gradient(ft->service().trace(), honest, im_bound);
    EXPECT_TRUE(ft_grad.violations.empty())
        << "IMFT honest spread " << ft_grad.max_edge_spread << " > "
        << im_bound;
    std::uint64_t exclusions = 0, quarantines = 0, suppressed = 0;
    for (ServerId i = 0; i < 5; ++i) {
      const auto& s = ft_report.servers[i];
      EXPECT_TRUE(s.correct) << "S" << i;
      exclusions += s.counters.marzullo_exclusions;
      quarantines += s.counters.quarantines;
      suppressed += s.counters.polls_suppressed;
    }
    EXPECT_GT(exclusions, 0u);
    EXPECT_GT(quarantines, 0u);
    EXPECT_GT(suppressed, 0u);
    EXPECT_EQ(ft->service().server(0).peer_state(5),
              service::PeerState::kQuarantined);
    EXPECT_EQ(ft->service().server(0).peer_state(6),
              service::PeerState::kQuarantined);
  }
}

// ---------------------------------------------------------------------------
// The gossip trio: the same two-faced star hub three ways, plus
// self-stabilization after a corrupt-state fault.
//
//  1. byzantine_gossip_imft_star: IMFT leaves, no gossip.  The star denies
//     every leaf a quorum (one neighbour: the liar), so intersection must
//     find common ground with the hub's confident lie every round - the
//     camps are dragged ~36 ms apart with zero local evidence.
//  2. byzantine_gossip_byz_star: same star, same liar, but the leaves run
//     BYZ and gossip cross-notes.  Same-round equivocation is convicted
//     from contradictory notes, the hub is quarantined at every leaf, and
//     the leaves keep synchronizing through second-hand readings alone.
//  3. byzantine_gossip_recover: a corrupt-state fault scrambles one BYZ
//     server mid-run; it re-converges within K = 3 rounds (the
//     core/byz_sync.h contract), is quarantined by its peers for the
//     equivocation the corruption caused, then serves out probation and is
//     rehabilitated - the full damage/repair cycle, deterministically.

TEST(AdversaryScenario, GossipTrioAcceptance) {
  for (const std::uint32_t shards : {0u, 8u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);

    // IMFT star: every leaf ends far outside its claimed bound, split into
    // camps by destination parity, and no detector anywhere has evidence.
    auto imft = run_scenario("byzantine_gossip_imft_star.mtds", shards);
    const auto imft_report = service::build_report(imft->service());
    for (ServerId i = 1; i <= 4; ++i) {
      EXPECT_FALSE(imft_report.servers[i].correct) << "S" << i;
      EXPECT_GT(std::abs(imft_report.servers[i].offset.seconds()), 0.015)
          << "S" << i;
    }
    const double split = imft_report.servers[2].offset.seconds() -
                         imft_report.servers[1].offset.seconds();
    EXPECT_GT(split, 0.03);
    EXPECT_FALSE(imft_report.consistency.ok());
    std::uint64_t imft_convictions = 0, imft_quarantines = 0;
    for (const auto& s : imft_report.servers) {
      imft_convictions += s.counters.gossip_convictions;
      imft_quarantines += s.counters.quarantines;
    }
    EXPECT_EQ(imft_convictions, 0u);
    EXPECT_EQ(imft_quarantines, 0u);

    // BYZ + gossip, identical star and liar: bounds hold, the camps never
    // form, and every leaf convicts and quarantines the hub from the
    // contradictory cross-notes.
    auto byz = run_scenario("byzantine_gossip_byz_star.mtds", shards);
    const auto byz_report = service::build_report(byz->service());
    EXPECT_TRUE(byz_report.correctness.ok());
    EXPECT_TRUE(byz_report.consistency.ok());
    double lo = 1e9, hi = -1e9;
    for (ServerId i = 1; i <= 4; ++i) {
      const auto& s = byz_report.servers[i];
      EXPECT_TRUE(s.correct) << "S" << i;
      EXPECT_GE(s.counters.gossip_convictions, 1u) << "S" << i;
      EXPECT_GT(s.counters.gossip_sent, 0u) << "S" << i;
      EXPECT_GT(s.counters.gossip_received, 0u) << "S" << i;
      EXPECT_EQ(byz->service().server(i).peer_state(0),
                service::PeerState::kQuarantined)
          << "S" << i << " failed to quarantine the hub";
      lo = std::min(lo, s.offset.seconds());
      hi = std::max(hi, s.offset.seconds());
    }
    EXPECT_LT(hi - lo, 0.01) << "leaves drifted into camps";
    // The hub never participates in gossip (no sync rounds), it only
    // receives - its lies are confined to the first-hand channel the
    // cross-notes audit.
    EXPECT_EQ(byz_report.servers[0].counters.gossip_sent, 0u);
    EXPECT_GT(byz->service().trace().count_events(
                  sim::TraceEventKind::kGossipConviction),
              0u);

    // Corrupt-state recovery: the scramble is visible (trace event,
    // counter), re-convergence takes at most K = 3 rounds, and the fleet
    // walks the whole quarantine -> probation -> rehabilitation path on
    // the corrupted server before the horizon.
    auto rec = run_scenario("byzantine_gossip_recover.mtds", shards);
    const auto rec_report = service::build_report(rec->service());
    const auto& corrupted = rec->service().server(2).counters();
    EXPECT_EQ(corrupted.state_corruptions, 1u);
    EXPECT_GE(corrupted.recovery_rounds, 1u);
    EXPECT_LE(corrupted.recovery_rounds, 3u);
    EXPECT_EQ(rec->service().trace().count_events(
                  sim::TraceEventKind::kStateCorrupt),
              1u);
    std::uint64_t quarantines = 0, probations = 0, rehabilitations = 0;
    for (ServerId i = 0; i < 5; ++i) {
      const auto& s = rec_report.servers[i];
      EXPECT_TRUE(s.correct) << "S" << i;
      EXPECT_LT(std::abs(s.offset.seconds()), 0.005) << "S" << i;
      EXPECT_LT(s.error.seconds(), 0.1) << "S" << i;
      quarantines += s.counters.quarantines;
      probations += s.counters.probations;
      rehabilitations += s.counters.rehabilitations;
      if (i != 2) {
        EXPECT_EQ(rec->service().server(i).peer_state(2),
                  service::PeerState::kHealthy)
            << "S" << i << " did not rehabilitate S2";
      }
    }
    EXPECT_GE(quarantines, 1u);
    EXPECT_GE(probations, 1u);
    EXPECT_GE(rehabilitations, 1u);
  }
}

}  // namespace
}  // namespace mtds
