// Scenario tests reproducing the paper's qualitative claims end-to-end:
// Figure 3, the Section 3 recovery experiment, Theorem 4 convergence and
// Theorem 8's large-n behaviour (in miniature; the benches sweep them).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/im_sync.h"
#include "core/mm_sync.h"
#include "service/invariants.h"
#include "service/time_service.h"

namespace mtds::service {
namespace {

using core::LocalState;
using core::TimeReading;

TEST(Figure3, MMRecoversWhereIMDoesNot) {
  // Figure 3's state: true time t; three servers, all pairwise consistent,
  // but only S1 and S3 correct.  S2's interval lies entirely to the right
  // of t, overlapping S3 but not containing t.
  //
  //   S1: wide correct interval (the deciding server's own clock)
  //   S2: consistent but INCORRECT (claims small error, misses t)
  //   S3: correct with the smallest error
  const double t = 100.0;  // true time "now" (zero delays in this analysis)
  LocalState s1{t - 0.5, 2.0, 0.0};  // interval [97.5, 101.5], contains t
  TimeReading s2{2, t + 0.8, 0.5, 0.0, s1.clock};  // [100.3, 101.3]: misses t
  TimeReading s3{3, t + 0.1, 0.4, 0.0, s1.clock};  // [99.7, 100.5]: contains t

  // Under MM the deciding server picks the smallest-error reply: S3 (0.4 <
  // 0.5 is false - 0.4 < 0.5 - wait both qualify; MM processes in order and
  // takes any reply that beats the current error, converging on the best).
  core::MinMaxErrorSync mm;
  auto state = s1;
  for (const auto& reply : {s2, s3}) {
    const auto out = mm.on_reply(state, reply);
    if (out.reset) {
      state.clock = out.reset->clock;
      state.error = out.reset->error;
    }
  }
  // MM ends on S3's interval, which contains true time: recovered.
  EXPECT_LE(std::abs(state.clock.seconds() - t), state.error.seconds());

  // Under IM the server intersects everything: S2 AND S3 -> [100.3, 100.5],
  // which does NOT contain t; the service is consistent-but-incorrect.
  core::IntersectionSync im;
  const std::vector<TimeReading> replies = {s2, s3};
  const auto out = im.on_round(s1, replies);
  ASSERT_TRUE(out.reset.has_value());
  EXPECT_FALSE(out.round_inconsistent);  // consistent...
  EXPECT_GT(std::abs(out.reset->clock.seconds() - t),
            out.reset->error.seconds());  // ...incorrect
}

TEST(Section3Recovery, InvalidDriftBoundRecoversViaThirdNetwork) {
  // The paper's experiment: a two-server network where one server claims
  // one second a day (1.2e-5) but actually drifts ~4% fast.  Each time the
  // pair notices the inconsistency, the bad server resets from a server on
  // another network.
  ServiceConfig cfg;
  cfg.seed = 21;
  cfg.delay_lo = 0.0;
  cfg.delay_hi = 0.005;
  cfg.sample_interval = 1.0;
  cfg.topology = Topology::kCustom;
  cfg.custom_edges = {{0, 1}};  // the two-server network polls only itself

  ServerSpec bad;            // the 4%-fast clock with an invalid bound
  bad.algo = core::SyncAlgorithm::kMM;
  bad.claimed_delta = 1.2e-5;  // "one second a day"
  bad.simulated_drift = 0.04;  // "closer to one hour a day"
  bad.initial_error = 0.01;
  bad.poll_period = 5.0;
  bad.recovery = RecoveryPolicy::kThirdServer;
  bad.recovery_pool = {2};
  cfg.servers.push_back(bad);

  ServerSpec good = bad;
  good.claimed_delta = 1.2e-5;
  good.simulated_drift = 1e-6;
  cfg.servers.push_back(good);

  ServerSpec remote;  // "a server on some other network"
  remote.algo = core::SyncAlgorithm::kNone;
  remote.claimed_delta = 1e-6;
  remote.simulated_drift = 0.0;
  remote.initial_error = 0.005;
  cfg.servers.push_back(remote);

  TimeService service(cfg);
  service.run_until(600.0);

  // Inconsistencies were detected and recoveries performed.
  EXPECT_GT(service.trace().count_events(sim::TraceEventKind::kInconsistent), 0u);
  EXPECT_GT(service.server(0).counters().recoveries, 0u);

  // Despite the invalid bound, recovery keeps the bad clock's offset far
  // below free-running drift (0.04 * 600 = 24 s).
  EXPECT_LT(std::abs(service.server(0).true_offset(service.now()).seconds()),
            2.0);

  // The paper's observed weakness: between recoveries the bad clock can be
  // "very far off" relative to its *claimed* error, i.e. incorrect.
  const auto report = check_correctness(service.trace());
  EXPECT_FALSE(report.ok());
}

TEST(Section3Recovery, WithoutRecoveryBadClockDriftsAway) {
  ServiceConfig cfg;
  cfg.seed = 22;
  cfg.delay_hi = 0.005;
  cfg.sample_interval = 1.0;
  cfg.topology = Topology::kCustom;
  cfg.custom_edges = {{0, 1}};

  ServerSpec bad;
  bad.algo = core::SyncAlgorithm::kMM;
  bad.claimed_delta = 1.2e-5;
  bad.simulated_drift = 0.04;
  bad.initial_error = 0.01;
  bad.poll_period = 5.0;
  bad.recovery = RecoveryPolicy::kIgnore;
  cfg.servers.push_back(bad);
  ServerSpec good = bad;
  good.simulated_drift = 1e-6;
  cfg.servers.push_back(good);

  TimeService service(cfg);
  service.run_until(600.0);
  // Free-running at 4%: tens of seconds off.
  EXPECT_GT(std::abs(service.server(0).true_offset(service.now()).seconds()),
            10.0);
}

TEST(Theorem4, MostAccurateClockBecomesMostPrecise) {
  // Server 0 has the smallest drift bound but starts with the WORST error;
  // eventually it must hold the smallest error in the service.
  ServiceConfig cfg;
  cfg.seed = 33;
  cfg.delay_hi = 0.002;
  cfg.sample_interval = 5.0;
  ServerSpec accurate;
  accurate.algo = core::SyncAlgorithm::kMM;
  accurate.claimed_delta = 1e-6;
  accurate.simulated_drift = 5e-7;
  accurate.initial_error = 1.0;  // worst initial error
  accurate.poll_period = 10.0;
  cfg.servers.push_back(accurate);
  for (int i = 0; i < 3; ++i) {
    ServerSpec coarse;
    coarse.algo = core::SyncAlgorithm::kMM;
    coarse.claimed_delta = 2e-4;
    coarse.simulated_drift = 1e-4 * (i % 2 ? 1 : -1);
    coarse.initial_error = 0.01;  // better initial errors
    coarse.poll_period = 10.0;
    cfg.servers.push_back(coarse);
  }
  TimeService service(cfg);

  // Initially server 0 is the least precise.
  EXPECT_GT(service.server(0).current_error(0.0),
            service.server(1).current_error(0.0));

  // t_x^0 bound: max (E_i - E_k) / (delta_k - delta_i) ~ 1 / 2e-4 = 5000 s.
  service.run_until(10000.0);
  const core::RealTime now = service.now();
  for (std::size_t i = 1; i < service.size(); ++i) {
    EXPECT_LT(service.server(0).current_error(now),
              service.server(i).current_error(now) + 1e-12)
        << "server " << i;
  }
  EXPECT_TRUE(service.all_correct());
}

TEST(Theorem8Flavor, MoreServersSlowIMErrorGrowth) {
  // Theorem 8 is probabilistic: with actual drifts drawn at random inside
  // the claimed bound, the expected intersection error at a fixed horizon
  // shrinks as n grows (extreme drifters bracket true time).  Average a few
  // seeds to estimate the expectation.
  auto mean_terminal_error = [](std::size_t n) {
    double total = 0.0;
    const int kSeeds = 5;
    for (int seed = 0; seed < kSeeds; ++seed) {
      sim::Rng drift_rng(9000 + 31 * seed + n);
      ServiceConfig cfg;
      cfg.seed = 1000 + 7 * static_cast<std::uint64_t>(seed) + n;
      cfg.delay_hi = 0.001;
      cfg.sample_interval = 10.0;
      for (std::size_t i = 0; i < n; ++i) {
        ServerSpec s;
        s.algo = core::SyncAlgorithm::kIM;
        s.claimed_delta = 1e-4;
        s.simulated_drift = drift_rng.uniform(-1e-4, 1e-4);
        s.initial_error = 0.001;
        s.poll_period = 10.0;
        cfg.servers.push_back(s);
      }
      TimeService service(cfg);
      service.run_until(2000.0);
      const auto errors = service.errors();
      total += std::max_element(errors.begin(), errors.end())->seconds();
    }
    return total / kSeeds;
  };
  const double e2 = mean_terminal_error(2);
  const double e16 = mean_terminal_error(16);
  EXPECT_LT(e16, e2);
}

TEST(FaultInjection, StoppedClockServiceDetectsInconsistency) {
  // A stopped clock keeps reporting a frozen time with a barely-growing
  // error; the rest of the service walks away from it and eventually sees
  // it as inconsistent.
  ServiceConfig cfg;
  cfg.seed = 50;
  cfg.delay_hi = 0.002;
  cfg.sample_interval = 1.0;
  for (int i = 0; i < 3; ++i) {
    ServerSpec s;
    s.algo = core::SyncAlgorithm::kMM;
    s.claimed_delta = 1e-4;
    s.simulated_drift = 1e-5 * (i - 1);
    s.initial_error = 0.005;
    s.poll_period = 2.0;
    cfg.servers.push_back(s);
  }
  cfg.servers[2].fault = {core::ClockFaultKind::kStopped, 50.0, 0.0};
  TimeService service(cfg);
  service.run_until(400.0);
  // The stopped server is tens of seconds behind by now.
  EXPECT_LT(service.server(2).true_offset(service.now()).seconds(), -100.0);
  EXPECT_GT(service.trace().count_events(sim::TraceEventKind::kInconsistent),
            0u);
  // The healthy servers remain correct.
  EXPECT_TRUE(service.server(0).correct(service.now()));
  EXPECT_TRUE(service.server(1).correct(service.now()));
}

TEST(FaultInjection, RacingClockPullsServiceUnderMax) {
  // Under the MAX baseline a racing clock drags everyone with it - the
  // failure MM avoids via its error predicate.
  auto final_spread_from_truth = [](core::SyncAlgorithm algo) {
    ServiceConfig cfg;
    cfg.seed = 51;
    cfg.delay_hi = 0.002;
    cfg.sample_interval = 5.0;
    for (int i = 0; i < 3; ++i) {
      ServerSpec s;
      s.algo = algo;
      s.claimed_delta = 1e-4;
      s.simulated_drift = 0.0;
      s.initial_error = 0.005;
      s.poll_period = 2.0;
      cfg.servers.push_back(s);
    }
    cfg.servers[2].fault = {core::ClockFaultKind::kRacing, 10.0, 500.0};
    TimeService service(cfg);
    service.run_until(200.0);
    return std::abs(service.server(0).true_offset(service.now()).seconds());
  };
  const double under_max = final_spread_from_truth(core::SyncAlgorithm::kMax);
  const double under_mm = final_spread_from_truth(core::SyncAlgorithm::kMM);
  EXPECT_GT(under_max, 1.0);   // dragged far from true time
  EXPECT_LT(under_mm, 0.5);    // MM ignores the racing clock
}

}  // namespace
}  // namespace mtds::service
