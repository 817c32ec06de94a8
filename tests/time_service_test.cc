// Integration tests: whole simulated services checked against the paper's
// theorems.
#include "service/time_service.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.h"
#include "service/invariants.h"

namespace mtds::service {
namespace {

ServerSpec spec_mm(double claimed, double actual, double e0, double offset,
                   double tau = 5.0) {
  ServerSpec s;
  s.algo = core::SyncAlgorithm::kMM;
  s.claimed_delta = claimed;
  s.simulated_drift = actual;
  s.initial_error = e0;
  s.initial_offset = core::Offset{offset};
  s.poll_period = tau;
  return s;
}

ServiceConfig small_config(core::SyncAlgorithm algo, std::uint64_t seed = 7) {
  ServiceConfig cfg;
  cfg.seed = seed;
  cfg.delay_lo = 0.0;
  cfg.delay_hi = 0.005;
  cfg.sample_interval = 1.0;
  const double deltas[] = {1e-5, 3e-5, 5e-5, 8e-5};
  for (int i = 0; i < 4; ++i) {
    auto s = spec_mm(deltas[i], (i % 2 ? 1 : -1) * deltas[i] * 0.8,
                     0.02 + 0.01 * i, (i - 2) * 0.005);
    s.algo = algo;
    cfg.servers.push_back(s);
  }
  return cfg;
}

TEST(TimeService, BuildsAndRuns) {
  TimeService service(small_config(core::SyncAlgorithm::kMM));
  service.run_until(100.0);
  EXPECT_DOUBLE_EQ(service.now().seconds(), 100.0);
  EXPECT_EQ(service.size(), 4u);
  EXPECT_EQ(service.running_count(), 4u);
  EXPECT_GT(service.network().stats().delivered, 0u);
}

TEST(TimeService, RejectsEmptyConfig) {
  ServiceConfig cfg;
  EXPECT_THROW(TimeService{cfg}, std::invalid_argument);
}

TEST(TimeService, Theorem1MMServiceStaysCorrect) {
  // All claimed bounds valid: every sample of every server must satisfy
  // |C - t| <= E.
  TimeService service(small_config(core::SyncAlgorithm::kMM));
  service.run_until(600.0);
  const auto report = check_correctness(service.trace());
  EXPECT_GT(report.samples_checked, 2000u);
  EXPECT_TRUE(report.ok()) << report.violations.size() << " violations; first: "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front().what);
}

TEST(TimeService, Theorem5IMServiceStaysCorrect) {
  TimeService service(small_config(core::SyncAlgorithm::kIM));
  service.run_until(600.0);
  const auto report = check_correctness(service.trace());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front().what);
}

TEST(TimeService, CorrectServiceIsConsistent) {
  // Correctness implies pairwise consistency (both intervals contain t).
  for (auto algo : {core::SyncAlgorithm::kMM, core::SyncAlgorithm::kIM}) {
    TimeService service(small_config(algo));
    service.run_until(300.0);
    const auto report = check_pairwise_consistency(service.trace());
    EXPECT_GT(report.pairs_checked, 1000u);
    EXPECT_TRUE(report.ok());
  }
}

TEST(TimeService, Theorem2MMErrorBound) {
  // E_i(t) < E_M(t) + xi + delta_i (tau + 2 xi) at every sample once the
  // service has settled (after one full poll period).
  auto cfg = small_config(core::SyncAlgorithm::kMM);
  TimeService service(cfg);
  service.run_until(600.0);
  const auto& trace = service.trace();
  const core::Duration xi = service.xi();
  std::size_t checked = 0;
  for (const core::RealTime t : trace.sample_times()) {
    if (t < 10.0) continue;  // one poll period of warm-up
    const auto at = trace.samples_at(t);
    ASSERT_FALSE(at.empty());
    core::Duration e_min = at.front().error;
    for (const auto& s : at) e_min = std::min<core::Duration>(e_min, s.error);
    for (const auto& s : at) {
      const double delta = cfg.servers[s.server].claimed_delta;
      const core::Duration tau = cfg.servers[s.server].poll_period;
      EXPECT_LT(s.error.seconds(),
                core::mm_error_bound(e_min, xi, delta, tau).seconds() + 1e-9)
          << "server " << s.server << " at t=" << t.seconds();
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(TimeService, Theorem3MMAsynchronismBound) {
  auto cfg = small_config(core::SyncAlgorithm::kMM);
  TimeService service(cfg);
  service.run_until(600.0);
  const auto& trace = service.trace();
  const core::Duration xi = service.xi();
  double max_delta = 0.0;
  core::Duration max_tau{0.0};
  for (const auto& s : cfg.servers) {
    max_delta = std::max(max_delta, s.claimed_delta);
    max_tau = std::max(max_tau, s.poll_period);
  }
  for (const core::RealTime t : trace.sample_times()) {
    if (t < 10.0) continue;
    const auto at = trace.samples_at(t);
    core::Duration e_min = at.front().error;
    for (const auto& s : at) e_min = std::min<core::Duration>(e_min, s.error);
    const core::Duration bound = core::mm_asynchronism_bound(
        e_min, xi, max_delta, max_delta, max_tau);
    for (std::size_t i = 0; i < at.size(); ++i) {
      for (std::size_t j = i + 1; j < at.size(); ++j) {
        EXPECT_LT(abs(at[i].clock - at[j].clock).seconds(),
                  bound.seconds() + 1e-9);
      }
    }
  }
}

TEST(TimeService, Theorem7IMAsynchronismBound) {
  auto cfg = small_config(core::SyncAlgorithm::kIM);
  TimeService service(cfg);
  service.run_until(600.0);
  const auto& trace = service.trace();
  const core::Duration xi = service.xi();
  double max_delta = 0.0;
  core::Duration max_tau{0.0};
  for (const auto& s : cfg.servers) {
    max_delta = std::max(max_delta, s.claimed_delta);
    max_tau = std::max(max_tau, s.poll_period);
  }
  const core::Duration bound =
      core::im_asynchronism_bound(xi, max_delta, max_delta, max_tau);
  const auto report = measure_asynchronism(trace);
  // Skip the warm-up portion before every server completed a round.
  core::Duration settled_max{0.0};
  for (std::size_t k = 0; k < report.times.size(); ++k) {
    if (report.times[k] >= 10.0) {
      settled_max = std::max(settled_max, report.spread[k]);
    }
  }
  EXPECT_LT(settled_max.seconds(), bound.seconds() + 1e-9)
      << "bound=" << bound.seconds();
}

TEST(TimeService, Lemma3MinimumErrorNeverDecreases) {
  for (auto algo : {core::SyncAlgorithm::kMM, core::SyncAlgorithm::kIM}) {
    TimeService service(small_config(algo, /*seed=*/12));
    service.run_until(400.0);
    const auto growth = measure_error_growth(service.trace());
    if (algo == core::SyncAlgorithm::kMM) {
      // Lemma 3 is an MM property; IM can genuinely shrink the minimum
      // (that is its whole point, Theorem 6).
      EXPECT_TRUE(growth.min_monotonic);
    }
    EXPECT_FALSE(growth.times.empty());
  }
}

TEST(TimeService, IMGrowsErrorSlowerThanMM) {
  // Section 4's experimental claim, scaled down: same scenario under both
  // algorithms; IM's long-term max-error growth must be clearly slower.
  auto run = [](core::SyncAlgorithm algo) {
    auto cfg = small_config(algo, /*seed=*/99);
    for (auto& s : cfg.servers) s.poll_period = 10.0;
    TimeService service(cfg);
    service.run_until(2000.0);
    return measure_error_growth(service.trace()).max_fit.slope;
  };
  const double mm_slope = run(core::SyncAlgorithm::kMM);
  const double im_slope = run(core::SyncAlgorithm::kIM);
  EXPECT_GT(mm_slope, 0.0);
  EXPECT_LT(im_slope, mm_slope);
}

TEST(TimeService, FreeRunningServiceErrorGrowsLinearly) {
  ServiceConfig cfg;
  cfg.sample_interval = 1.0;
  for (int i = 0; i < 3; ++i) {
    ServerSpec s;
    s.algo = core::SyncAlgorithm::kNone;
    s.claimed_delta = 1e-4;
    s.initial_error = 0.01;
    cfg.servers.push_back(s);
  }
  TimeService service(cfg);
  service.run_until(1000.0);
  const auto growth = measure_error_growth(service.trace());
  EXPECT_NEAR(growth.min_fit.slope, 1e-4, 1e-6);
  EXPECT_GT(growth.min_fit.r2, 0.999);
}

TEST(TimeService, TopologiesBuildCorrectAdjacency) {
  const auto full = build_adjacency(4, Topology::kFull, {});
  EXPECT_EQ(full[0].size(), 3u);
  EXPECT_EQ(full[3].size(), 3u);

  const auto ring = build_adjacency(5, Topology::kRing, {});
  for (const auto& nbrs : ring) EXPECT_EQ(nbrs.size(), 2u);

  const auto star = build_adjacency(5, Topology::kStar, {});
  EXPECT_EQ(star[0].size(), 4u);
  EXPECT_EQ(star[1].size(), 1u);

  const auto line = build_adjacency(4, Topology::kLine, {});
  EXPECT_EQ(line[0].size(), 1u);
  EXPECT_EQ(line[1].size(), 2u);
  EXPECT_EQ(line[3].size(), 1u);

  const auto custom = build_adjacency(3, Topology::kCustom, {{0, 1}, {1, 2}});
  EXPECT_EQ(custom[1].size(), 2u);
  EXPECT_TRUE(custom[0] == std::vector<core::ServerId>{1});

  EXPECT_THROW(build_adjacency(2, Topology::kCustom, {{0, 5}}),
               std::invalid_argument);
  EXPECT_THROW(build_adjacency(2, Topology::kCustom, {{1, 1}}),
               std::invalid_argument);
}

TEST(TimeService, RingTopologyStillSynchronizes) {
  auto cfg = small_config(core::SyncAlgorithm::kMM);
  cfg.topology = Topology::kRing;
  TimeService service(cfg);
  service.run_until(300.0);
  EXPECT_TRUE(check_correctness(service.trace()).ok());
  EXPECT_GT(service.trace().count_events(sim::TraceEventKind::kReset), 0u);
}

TEST(TimeService, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    TimeService service(small_config(core::SyncAlgorithm::kMM, seed));
    service.run_until(200.0);
    return service.trace().samples_csv();
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(TimeService, ChurnJoinLeave) {
  auto cfg = small_config(core::SyncAlgorithm::kMM);
  TimeService service(cfg);
  service.run_until(50.0);

  // A new inaccurate server joins and must synchronize into the service.
  auto newcomer = spec_mm(1e-4, 5e-5, 1.5, 0.4);
  const auto id = service.add_server(newcomer);
  EXPECT_EQ(service.running_count(), 5u);
  service.run_until(120.0);
  EXPECT_LT(service.server(id).current_error(service.now()), 0.5);
  EXPECT_TRUE(service.server(id).correct(service.now()));

  // A server leaves; the rest keep running and stay correct.
  service.crash_server(0);
  EXPECT_EQ(service.running_count(), 4u);
  service.run_until(300.0);
  EXPECT_TRUE(service.all_correct());
  EXPECT_EQ(service.trace().count_events(sim::TraceEventKind::kLeave), 1u);
}

TEST(TimeService, QuickRestartKeepsOnePollChain) {
  // A crash and restart within one tau: the restarted server must poll at
  // its own period, not run the dead incarnation's pending poll alongside
  // the new one (which would double its rounds).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    ServiceConfig cfg;
    cfg.seed = seed;
    cfg.delay_lo = 0.0;
    cfg.delay_hi = 0.005;
    for (int i = 0; i < 3; ++i) {
      auto s = spec_mm(1e-5, 0.0, 0.02, 0.0, /*tau=*/10.0);
      s.algo = core::SyncAlgorithm::kIM;
      cfg.servers.push_back(s);
    }
    TimeService service(cfg);
    service.run_until(100.0);
    service.crash_server(0);
    service.run_until(100.01);
    service.restart_server(0);
    const std::uint64_t before = service.server(0).counters().rounds;
    service.run_until(200.0);
    const std::uint64_t rounds = service.server(0).counters().rounds - before;
    EXPECT_GE(rounds, 9u);
    EXPECT_LE(rounds, 11u);
  }
}

TEST(TimeService, MessageLossDelaysButDoesNotBreakSync) {
  auto cfg = small_config(core::SyncAlgorithm::kMM, /*seed=*/5);
  cfg.loss_probability = 0.3;
  TimeService service(cfg);
  service.run_until(600.0);
  EXPECT_GT(service.network().stats().dropped_loss, 0u);
  EXPECT_TRUE(check_correctness(service.trace()).ok());
  EXPECT_GT(service.trace().count_events(sim::TraceEventKind::kReset), 0u);
}

TEST(TimeService, ObservationHelpers) {
  TimeService service(small_config(core::SyncAlgorithm::kMM));
  service.run_until(100.0);
  EXPECT_EQ(service.errors().size(), 4u);
  EXPECT_GE(service.max_asynchronism(), 0.0);
  EXPECT_TRUE(service.all_correct());
}

}  // namespace
}  // namespace mtds::service
