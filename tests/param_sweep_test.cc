// Parameterized property sweeps: the paper's safety properties must hold
// across the whole configuration space (algorithm x topology x size x
// network conditions), not just in hand-picked scenarios.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/marzullo.h"
#include "service/client.h"
#include "service/invariants.h"
#include "service/time_service.h"

namespace mtds::service {
namespace {

// ---------------------------------------------------------------------------
// Service-level sweep: every (algo, topology, n, loss) combination must keep
// a valid-bounds service correct, pairwise consistent, and deterministic.
// ---------------------------------------------------------------------------

using ServiceParams =
    std::tuple<core::SyncAlgorithm, Topology, std::size_t, double>;

class ServiceSweepTest : public ::testing::TestWithParam<ServiceParams> {
 protected:
  ServiceConfig make_config(std::uint64_t seed) const {
    const auto [algo, topology, n, loss] = GetParam();
    ServiceConfig cfg;
    cfg.seed = seed;
    cfg.topology = topology;
    cfg.delay_hi = 0.004;
    cfg.loss_probability = loss;
    cfg.sample_interval = 2.0;
    sim::Rng rng(seed ^ 0xABCD);
    for (std::size_t i = 0; i < n; ++i) {
      ServerSpec s;
      s.algo = algo;
      s.claimed_delta = 1e-5 * (1.0 + static_cast<double>(i % 3));
      s.simulated_drift = rng.uniform(-0.9, 0.9) * s.claimed_delta;
      s.initial_error = rng.uniform(0.01, 0.05);
      s.initial_offset = core::Offset{rng.uniform(-0.008, 0.008)};
      s.poll_period = 8.0;
      cfg.servers.push_back(s);
    }
    return cfg;
  }
};

TEST_P(ServiceSweepTest, StaysCorrectAndConsistent) {
  TimeService service(make_config(11));
  service.run_until(300.0);
  const auto correctness = check_correctness(service.trace());
  EXPECT_TRUE(correctness.ok())
      << correctness.violations.size() << " violations; first: "
      << (correctness.violations.empty() ? ""
                                         : correctness.violations.front().what);
  EXPECT_TRUE(check_pairwise_consistency(service.trace()).ok());
  // The service must actually be synchronizing, not just idling.
  EXPECT_GT(service.trace().count_events(sim::TraceEventKind::kReset), 0u);
}

TEST_P(ServiceSweepTest, MinimumErrorMonotoneUnderSelection) {
  // Lemma 3 concerns selection-style functions; derivation (IM/IMFT) may
  // shrink the minimum.
  const auto algo = std::get<0>(GetParam());
  if (algo != core::SyncAlgorithm::kMM) GTEST_SKIP();
  TimeService service(make_config(13));
  service.run_until(300.0);
  EXPECT_TRUE(measure_error_growth(service.trace()).min_monotonic);
}

TEST_P(ServiceSweepTest, DeterministicReplay) {
  auto run = [&](std::uint64_t seed) {
    TimeService service(make_config(seed));
    service.run_until(120.0);
    return service.trace().samples_csv();
  };
  EXPECT_EQ(run(99), run(99));
}

std::string service_param_name(
    const ::testing::TestParamInfo<ServiceParams>& info) {
  const auto [algo, topology, n, loss] = info.param;
  std::string t;
  switch (topology) {
    case Topology::kFull: t = "Full"; break;
    case Topology::kRing: t = "Ring"; break;
    case Topology::kStar: t = "Star"; break;
    case Topology::kLine: t = "Line"; break;
    case Topology::kCustom: t = "Custom"; break;
  }
  return std::string(core::to_string(algo)) + "_" + t + "_n" +
         std::to_string(n) + (loss > 0 ? "_lossy" : "_clean");
}

INSTANTIATE_TEST_SUITE_P(
    AlgoTopologySweep, ServiceSweepTest,
    ::testing::Combine(
        ::testing::Values(core::SyncAlgorithm::kMM, core::SyncAlgorithm::kIM,
                          core::SyncAlgorithm::kIMFT),
        ::testing::Values(Topology::kFull, Topology::kRing, Topology::kStar,
                          Topology::kLine),
        ::testing::Values(std::size_t{3}, std::size_t{9}),
        ::testing::Values(0.0, 0.2)),
    service_param_name);

// ---------------------------------------------------------------------------
// Marzullo sweep: algorithm invariants across input sizes and seeds.
// ---------------------------------------------------------------------------

using MarzulloParams = std::tuple<std::size_t, std::uint64_t>;

class MarzulloSweepTest : public ::testing::TestWithParam<MarzulloParams> {
 protected:
  std::vector<core::TimeInterval> make_intervals() const {
    const auto [n, seed] = GetParam();
    sim::Rng rng(seed);
    std::vector<core::TimeInterval> out;
    for (std::size_t i = 0; i < n; ++i) {
      const double lo = rng.uniform(-5.0, 5.0);
      out.push_back(core::TimeInterval::from_edges(lo, lo + rng.uniform(0.0, 4.0)));
    }
    return out;
  }
};

TEST_P(MarzulloSweepTest, BestRegionIsContainedInEveryMember) {
  const auto intervals = make_intervals();
  const auto best = core::best_intersection(intervals);
  ASSERT_TRUE(best.has_value());
  EXPECT_GE(best->coverage, 1u);
  EXPECT_EQ(best->members.size(), best->coverage);
  for (std::size_t m : best->members) {
    EXPECT_TRUE(intervals[m].contains(best->interval));
  }
}

TEST_P(MarzulloSweepTest, GroupsCoverEveryServerMaximally) {
  const auto intervals = make_intervals();
  const auto groups = core::consistency_groups(intervals);
  ASSERT_FALSE(groups.empty());
  std::vector<bool> seen(intervals.size(), false);
  for (const auto& g : groups) {
    for (std::size_t m : g.members) {
      seen[m] = true;
      EXPECT_TRUE(intervals[m].contains(g.intersection));
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "server " << i << " not in any group";
  }
  // The best intersection's member set must appear among the groups.
  const auto best = core::best_intersection(intervals);
  bool found = false;
  for (const auto& g : groups) {
    if (g.members == best->members) found = true;
  }
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(
    SizeSeedSweep, MarzulloSweepTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{5}, std::size_t{16},
                                         std::size_t{64}),
                       ::testing::Values(1ull, 2ull, 3ull, 4ull)),
    [](const ::testing::TestParamInfo<MarzulloParams>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Client strategy sweep: every strategy must produce an estimate whose error
// bound covers true time, across delay regimes.
// ---------------------------------------------------------------------------

using ClientParams = std::tuple<ClientStrategy, double>;

class ClientSweepTest : public ::testing::TestWithParam<ClientParams> {};

TEST_P(ClientSweepTest, EstimateWithinOwnBound) {
  const auto [strategy, delay_hi] = GetParam();
  ServiceConfig cfg;
  cfg.seed = 55;
  cfg.delay_hi = delay_hi;
  cfg.sample_interval = 0.0;
  for (int i = 0; i < 4; ++i) {
    ServerSpec s;
    s.algo = core::SyncAlgorithm::kIM;
    s.claimed_delta = 1e-5;
    s.simulated_drift = (i - 2) * 4e-6;
    s.initial_error = 0.01 + 0.003 * i;
    s.poll_period = 5.0;
    cfg.servers.push_back(s);
  }
  TimeService service(cfg);
  service.run_until(30.0);
  TimeClient client(50, service.queue(), service.network());
  const auto result =
      client.query_blocking({0, 1, 2, 3}, strategy, 4.0 * delay_hi + 0.05);
  ASSERT_GT(result.replies, 0u);
  EXPECT_LE(std::abs(result.estimate.seconds() - service.now().seconds()),
            result.error.seconds() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    StrategyDelaySweep, ClientSweepTest,
    ::testing::Combine(::testing::Values(ClientStrategy::kFirstReply,
                                         ClientStrategy::kSmallestError,
                                         ClientStrategy::kIntersect),
                       ::testing::Values(0.001, 0.02)),
    [](const ::testing::TestParamInfo<ClientParams>& info) {
      const char* s = std::get<0>(info.param) == ClientStrategy::kFirstReply
                          ? "First"
                          : std::get<0>(info.param) ==
                                    ClientStrategy::kSmallestError
                                ? "Smallest"
                                : "Intersect";
      return std::string(s) +
             (std::get<1>(info.param) < 0.01 ? "_fast" : "_slow");
    });

}  // namespace
}  // namespace mtds::service
