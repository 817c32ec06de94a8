// Large-scale stress: a mixed service resembling the paper's deployment
// environment - many servers, heterogeneous algorithms and clock quality,
// churn, faults, loss - run long enough for every subsystem to interact.
// Safety invariants must hold for the honest population throughout.
#include <gtest/gtest.h>

#include "service/invariants.h"
#include "service/report.h"
#include "service/time_service.h"

namespace mtds::service {
namespace {

TEST(Stress, FiftyServerMixedServiceSurvivesEverything) {
  constexpr std::size_t kServers = 50;
  ServiceConfig cfg;
  cfg.seed = 314159;
  cfg.delay_lo = 0.0;
  cfg.delay_hi = 0.015;
  cfg.loss_probability = 0.05;
  cfg.sample_interval = 10.0;
  cfg.topology = Topology::kCustom;

  sim::Rng rng(2718);
  for (std::size_t i = 0; i < kServers; ++i) {
    ServerSpec s;
    // Mixed algorithms across the population.
    s.algo = i % 3 == 0   ? core::SyncAlgorithm::kMM
             : i % 3 == 1 ? core::SyncAlgorithm::kIM
                          : core::SyncAlgorithm::kIMFT;
    const double tier = rng.next_double();
    s.claimed_delta = tier < 0.2 ? 2e-6 : tier < 0.8 ? 2e-5 : 1e-4;
    s.simulated_drift = rng.uniform(-0.9, 0.9) * s.claimed_delta;
    s.initial_error = rng.uniform(0.01, 0.2);
    s.initial_offset = core::Offset{rng.uniform(-0.008, 0.008)};
    s.poll_period = 20.0;
    s.use_sample_filter = i % 5 == 0;
    s.monitor_rates = i % 7 == 0;
    cfg.servers.push_back(s);
  }
  // Ring + random chords.
  for (core::ServerId i = 0; i < kServers; ++i) {
    cfg.custom_edges.push_back(
        {i, static_cast<core::ServerId>((i + 1) % kServers)});
    cfg.custom_edges.push_back(
        {i, static_cast<core::ServerId>(rng.uniform_index(kServers))});
  }
  // Remove accidental self-edges from the random chords.
  std::erase_if(cfg.custom_edges,
                [](const auto& e) { return e.first == e.second; });

  TimeService service(cfg);

  // Phase 1: settle.
  service.run_until(300.0);
  EXPECT_TRUE(service.all_correct());

  // Phase 2: churn - ten joins and ten leaves interleaved.
  for (int k = 0; k < 10; ++k) {
    service.run_until(300.0 + 30.0 * k);
    ServerSpec fresh;
    fresh.algo = core::SyncAlgorithm::kIM;
    fresh.claimed_delta = 5e-5;
    fresh.simulated_drift = rng.uniform(-4e-5, 4e-5);
    fresh.initial_error = 1.0;
    fresh.initial_offset = core::Offset{rng.uniform(-0.5, 0.5)};
    fresh.poll_period = 20.0;
    service.add_server(fresh);
    service.crash_server(static_cast<core::ServerId>(k));
  }

  // Phase 3: a partition slices off a corner of the ring, then heals.
  service.run_until(700.0);
  for (core::ServerId i = 10; i < 14; ++i) {
    for (core::ServerId j = 14; j < 20; ++j) {
      service.network().set_partitioned(i, j, true);
    }
  }
  service.run_until(900.0);
  for (core::ServerId i = 10; i < 14; ++i) {
    for (core::ServerId j = 14; j < 20; ++j) {
      service.network().set_partitioned(i, j, false);
    }
  }

  // Phase 4: long tail.
  service.run_until(1500.0);

  // Everyone still running is correct at the end...
  EXPECT_TRUE(service.all_correct());
  // ...and was correct throughout (all bounds are valid in this scenario).
  const auto report = build_report(service);
  EXPECT_TRUE(report.correctness.ok())
      << report.correctness.violations.size() << " violations";
  EXPECT_TRUE(report.consistency.ok());
  EXPECT_EQ(report.joins, kServers + 10);
  EXPECT_EQ(report.leaves, 10u);
  EXPECT_GT(report.resets, 500u);
  EXPECT_GT(report.network.dropped_loss, 0u);
  EXPECT_GT(report.network.dropped_partition, 0u);
  // The report renders without issue at this scale.
  const std::string text = format_report(report);
  EXPECT_NE(text.find("verdict: HEALTHY"), std::string::npos);
}

TEST(Stress, LongHorizonDeterminismAtScale) {
  auto run = [] {
    ServiceConfig cfg;
    cfg.seed = 999;
    cfg.delay_hi = 0.01;
    cfg.sample_interval = 50.0;
    for (int i = 0; i < 20; ++i) {
      ServerSpec s;
      s.algo = i % 2 ? core::SyncAlgorithm::kMM : core::SyncAlgorithm::kIM;
      s.claimed_delta = 1e-5;
      s.simulated_drift = (i - 10) * 8e-7;
      s.initial_error = 0.02;
      s.poll_period = 15.0;
      cfg.servers.push_back(s);
    }
    TimeService service(cfg);
    service.run_until(5000.0);
    return service.trace().samples_csv();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace mtds::service
