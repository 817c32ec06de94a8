// Scale smoke: a 1,000-server service through the allocation-free sim
// substrate.  The point is not new protocol behavior but the data
// structures behind it - the EventQueue's slab heap, the Network's dense
// handler table and sorted flat link sets - at a population two orders of
// magnitude above the unit tests, finishing inside the ctest TIMEOUT.
#include <gtest/gtest.h>

#include "service/report.h"
#include "service/time_service.h"

namespace mtds::service {
namespace {

TEST(Scale, ThousandServerServiceRunsToCompletion) {
  constexpr std::size_t kServers = 1000;
  ServiceConfig cfg;
  cfg.seed = 4242;
  cfg.delay_lo = 0.0;
  cfg.delay_hi = 0.01;
  cfg.sample_interval = 50.0;
  cfg.topology = Topology::kRing;

  sim::Rng rng(99);
  for (std::size_t i = 0; i < kServers; ++i) {
    ServerSpec s;
    s.algo = i % 3 == 0   ? core::SyncAlgorithm::kMM
             : i % 3 == 1 ? core::SyncAlgorithm::kIM
                          : core::SyncAlgorithm::kIMFT;
    s.claimed_delta = 2e-5;
    s.simulated_drift = rng.uniform(-0.9, 0.9) * s.claimed_delta;
    s.initial_error = rng.uniform(0.01, 0.05);
    s.initial_offset = core::Offset{rng.uniform(-0.005, 0.005)};
    s.poll_period = 30.0;
    cfg.servers.push_back(s);
  }
  TimeService service(cfg);

  service.run_until(90.0);
  EXPECT_TRUE(service.all_correct());

  // Churn the sorted link tables at full id range: these chord links carry
  // no ring traffic, so the insert/lookup/erase cycle runs at scale without
  // perturbing the protocol.
  for (core::ServerId i = 0; i < 200; ++i) {
    service.network().set_partitioned(i, i + 500, true);
  }
  for (core::ServerId i = 0; i < 200; ++i) {
    EXPECT_TRUE(service.network().is_partitioned(i, i + 500));
    EXPECT_TRUE(service.network().is_partitioned(i + 500, i));
  }
  service.run_until(120.0);
  for (core::ServerId i = 0; i < 200; ++i) {
    service.network().set_partitioned(i, i + 500, false);
  }
  service.run_until(150.0);

  EXPECT_TRUE(service.all_correct());
  const auto report = build_report(service);
  EXPECT_TRUE(report.correctness.ok())
      << report.correctness.violations.size() << " violations";
  EXPECT_EQ(report.joins, kServers);
  // Every server runs several sync rounds in 150 s at a 30 s poll period.
  EXPECT_GT(report.resets, report.joins);
  EXPECT_GT(service.network().stats().delivered, 10u * kServers);
}

// The sharded engine at an order of magnitude more servers: 10,000 servers
// split over 16 shards, driven by the conservative-lookahead epoch loop
// (delay_lo > 0 gives the engine a real window width).  Checks the same
// service-level invariants as the one-shard scale test plus the sharded
// plumbing itself: per-shard traces merged into a coherent report, the
// aggregated network stats, and the epoch counter.
TEST(Scale, TenThousandServerShardedServiceRunsToCompletion) {
  constexpr std::size_t kServers = 10'000;
  ServiceConfig cfg;
  cfg.seed = 777;
  cfg.delay_lo = 0.002;  // positive minimum: conservative lookahead = 2 ms
  cfg.delay_hi = 0.01;
  cfg.sample_interval = 50.0;
  cfg.topology = Topology::kRing;
  cfg.sim_shards = 16;

  sim::Rng rng(321);
  for (std::size_t i = 0; i < kServers; ++i) {
    ServerSpec s;
    s.algo = i % 3 == 0   ? core::SyncAlgorithm::kMM
             : i % 3 == 1 ? core::SyncAlgorithm::kIM
                          : core::SyncAlgorithm::kIMFT;
    s.claimed_delta = 2e-5;
    s.simulated_drift = rng.uniform(-0.9, 0.9) * s.claimed_delta;
    s.initial_error = rng.uniform(0.01, 0.05);
    s.initial_offset = core::Offset{rng.uniform(-0.005, 0.005)};
    s.poll_period = 30.0;
    cfg.servers.push_back(s);
  }
  TimeService service(cfg);
  ASSERT_EQ(service.sharded_engine()->num_shards(), 16u);

  service.run_until(90.0);
  EXPECT_TRUE(service.all_correct());
  EXPECT_GT(service.sharded_engine()->last_windows(), 0u);

  const auto report = build_report(service);
  EXPECT_TRUE(report.correctness.ok())
      << report.correctness.violations.size() << " violations";
  EXPECT_EQ(report.joins, kServers);
  EXPECT_GT(report.resets, report.joins);
  EXPECT_GT(service.network().stats().delivered, 5u * kServers);
}

}  // namespace
}  // namespace mtds::service
