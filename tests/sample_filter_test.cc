// PeerTable's filter column: minimum-round-trip sample selection, alone
// and inside a running service.
#include <gtest/gtest.h>

#include "service/invariants.h"
#include "service/peer_table.h"
#include "service/time_service.h"

namespace mtds::service {
namespace {

core::TimeReading reading(core::ServerId from, double c, double e, double rtt,
                          double local_receive) {
  return core::TimeReading{from, c, e, rtt, local_receive};
}

// A table with only the filter column.
PeerTable filter_table(std::size_t window = 8, double max_age = 120.0) {
  PeerTableOptions options;
  options.sample_filter = true;
  options.filter_window = window;
  options.filter_max_age = core::Duration{max_age};
  return PeerTable(options, nullptr);
}

void add(PeerTable& table, const core::TimeReading& r) {
  table.add_sample(table.row(r.from), r);
}

core::Readings best_all(const PeerTable& table, double local_now,
                        double delta) {
  core::Readings out;
  table.best_all_into(core::ClockTime{local_now}, delta, out);
  return out;
}

TEST(PeerTableFilter, EmptyHasNothing) {
  PeerTable table = filter_table();
  EXPECT_TRUE(best_all(table, 100.0, 1e-5).empty());
  const PeerTable::Row peer = table.row(1);
  EXPECT_FALSE(table.best(peer, 100.0, 1e-5).has_value());
  EXPECT_EQ(table.samples(peer), 0u);
  EXPECT_TRUE(best_all(table, 100.0, 1e-5).empty());
}

TEST(PeerTableFilter, PicksMinimumDelaySample) {
  PeerTable table = filter_table();
  add(table, reading(1, 100.00, 0.01, 0.050, 100.0));  // slow round trip
  add(table, reading(1, 100.50, 0.01, 0.002, 100.5));  // fast round trip
  add(table, reading(1, 101.00, 0.01, 0.030, 101.0));  // medium
  const auto best = table.best(table.find(1), 101.0, 1e-5);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->rtt_own.seconds(), 0.002);
  // Aged to local_now = 101.0: the sample was taken at 100.5.
  EXPECT_NEAR(best->c.seconds(), 100.5 + 0.5, 1e-12);
  EXPECT_NEAR(best->e.seconds(), 0.01 + 2.0 * 1e-5 * 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(best->local_receive.seconds(), 101.0);
}

TEST(PeerTableFilter, AgingCanDisqualifyOldFastSample) {
  // A very old fast sample accrues delta*age width; a fresh slightly slower
  // sample wins once the aging penalty dominates.
  PeerTable table = filter_table(8, /*max_age=*/1e9);
  const double delta = 1e-3;
  add(table, reading(1, 0.0, 0.01, 0.001, 0.0));        // fast but ancient
  add(table, reading(1, 1000.0, 0.01, 0.004, 1000.0));  // slower but fresh
  const auto best = table.best(table.find(1), 1000.0, delta);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->rtt_own.seconds(), 0.004);
}

TEST(PeerTableFilter, MaxAgeEvicts) {
  PeerTable table = filter_table(8, /*max_age=*/10.0);
  add(table, reading(1, 100.0, 0.01, 0.001, 100.0));
  EXPECT_TRUE(table.best(table.find(1), 105.0, 1e-5).has_value());
  EXPECT_FALSE(table.best(table.find(1), 150.0, 1e-5).has_value());
}

TEST(PeerTableFilter, WindowBoundsMemory) {
  PeerTable table = filter_table(/*window=*/3);
  for (int i = 0; i < 10; ++i) {
    add(table, reading(1, 100.0 + i, 0.01, 0.01, 100.0 + i));
  }
  EXPECT_EQ(table.samples(table.find(1)), 3u);
}

TEST(PeerTableFilter, BestAllCoversEveryNeighbourInIdOrder) {
  PeerTable table = filter_table();
  add(table, reading(2, 100.1, 0.02, 0.02, 100.0));
  add(table, reading(1, 100.0, 0.01, 0.01, 100.0));
  const auto all = best_all(table, 100.0, 1e-5);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].from, 1u);
  EXPECT_EQ(all[1].from, 2u);
}

TEST(PeerTableFilter, LocalResetRebasesSamples) {
  PeerTable table = filter_table();
  add(table, reading(1, 100.2, 0.01, 0.001, 100.0));  // offset +0.2
  // Local clock jumps backward by 1.0: at the same instant our clock now
  // reads 99.0, so the neighbour's offset in the NEW timescale is +1.2.
  table.rebase(core::Duration{-1.0});
  const auto best = table.best(table.find(1), 99.0, 0.0);
  ASSERT_TRUE(best.has_value());
  EXPECT_NEAR(best->c.seconds() - best->local_receive.seconds(), 1.2, 1e-12);
  // And the aged offset stays stable as the new timescale advances.
  const auto later = table.best(table.find(1), 104.0, 0.0);
  ASSERT_TRUE(later.has_value());
  EXPECT_NEAR(later->c.seconds() - later->local_receive.seconds(), 1.2, 1e-12);
}

TEST(PeerTableFilter, FilterSustainsIMRoundsThroughHeavyLoss) {
  // MM's acceptance predicate already behaves as a running minimum over
  // round trips, so at equilibrium the filter cannot beat it.  Its genuine
  // edge is availability during convergence: under heavy message loss, a
  // raw IM round sees whichever replies survived (often one or none),
  // while the filtered round serves every neighbour's cached best sample -
  // more intervals to intersect and a reset every round instead of only on
  // lucky rounds.  We compare sustained reset rates and check errors do not
  // regress.
  struct Outcome {
    std::uint64_t resets = 0;
    double mean_error = 0.0;
    bool correct = true;
  };
  auto run = [](bool filtered) {
    ServiceConfig cfg;
    cfg.seed = 91;
    cfg.delay_lo = 0.001;
    cfg.delay_hi = 0.01;
    cfg.loss_probability = 0.7;
    cfg.sample_interval = 1.0;
    for (int i = 0; i < 4; ++i) {
      ServerSpec s;
      s.algo = core::SyncAlgorithm::kIM;
      s.claimed_delta = 1e-5;
      s.simulated_drift = (i - 2) * 4e-6;
      s.initial_error = 0.01 + 0.3 * i;  // heterogeneous quality
      s.poll_period = 5.0;
      s.use_sample_filter = filtered;
      cfg.servers.push_back(s);
    }
    TimeService service(cfg);
    service.run_until(200.0);
    Outcome out;
    for (std::size_t i = 0; i < service.size(); ++i) {
      out.resets += service.server(i).counters().resets;
      out.mean_error += service.server(i).current_error(service.now()).seconds();
    }
    out.mean_error /= static_cast<double>(service.size());
    out.correct = check_correctness(service.trace()).ok();
    return out;
  };
  const Outcome raw = run(false);
  const Outcome filtered = run(true);
  // Raw rounds only fire when replies survive the loss; filtered rounds
  // fire every poll once a sample is cached.
  EXPECT_GT(filtered.resets, 2 * raw.resets);
  EXPECT_LE(filtered.mean_error, raw.mean_error * 1.05);
  EXPECT_TRUE(filtered.correct);
}

TEST(PeerTableFilter, ServiceStaysCorrectWithFilterOn) {
  // The filter must not break the safety proofs: aged samples are sound.
  for (auto algo : {core::SyncAlgorithm::kMM, core::SyncAlgorithm::kIM}) {
    ServiceConfig cfg;
    cfg.seed = 92;
    cfg.delay_hi = 0.02;
    cfg.sample_interval = 1.0;
    for (int i = 0; i < 4; ++i) {
      ServerSpec s;
      s.algo = algo;
      s.claimed_delta = 1e-5;
      s.simulated_drift = (i - 2) * 4e-6;
      s.initial_error = 0.02 + 0.02 * i;
      s.poll_period = 5.0;
      s.use_sample_filter = true;
      cfg.servers.push_back(s);
    }
    TimeService service(cfg);
    service.run_until(500.0);
    const auto report = check_correctness(service.trace());
    EXPECT_TRUE(report.ok())
        << core::to_string(algo) << ": "
        << (report.violations.empty() ? "" : report.violations.front().what);
  }
}

}  // namespace
}  // namespace mtds::service
