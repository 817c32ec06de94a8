// PeerTable's rate column: Section 5 consonance over the table, alone and
// inside a running service.
#include <gtest/gtest.h>

#include "service/peer_table.h"
#include "service/time_service.h"

namespace mtds::service {
namespace {

core::TimeReading reading(core::ServerId from, double local, double remote,
                          double rtt = 0.0) {
  core::TimeReading r;
  r.from = from;
  r.c = remote;
  r.e = 0.01;
  r.rtt_own = rtt;
  r.local_receive = local;
  return r;
}

// A table with only the rate column, for a server claiming `own_delta`.
PeerTable rate_table(double own_delta) {
  PeerTableOptions options;
  options.monitor_rates = true;
  options.own_delta = own_delta;
  return PeerTable(options, nullptr);
}

void observe(PeerTable& table, const core::TimeReading& r) {
  table.observe(table.row(r.from), r);
}

TEST(PeerTableRates, NoEstimateBeforeEnoughObservations) {
  PeerTable table = rate_table(1e-5);
  EXPECT_EQ(table.rate_neighbours(), 0u);
  EXPECT_FALSE(table.rate_interval(1).has_value());
  table.row(1);  // a row alone is not an observation
  EXPECT_EQ(table.rate_neighbours(), 0u);
  observe(table, reading(1, 0.0, 0.0));
  EXPECT_EQ(table.rate_neighbours(), 1u);
  EXPECT_FALSE(table.rate_interval(1).has_value());
}

TEST(PeerTableRates, MeasuresRelativeRate) {
  PeerTable table = rate_table(1e-5);
  // Neighbour gains 1e-3 per local second; 1 ms round trips give the
  // estimate a small non-zero uncertainty band.
  for (int i = 0; i <= 5; ++i) {
    const double local = 100.0 * i;
    observe(table, reading(1, local, local * (1.0 + 1e-3), 0.001));
  }
  const auto interval = table.rate_interval(1);
  ASSERT_TRUE(interval.has_value());
  EXPECT_TRUE(interval->contains(1e-3)) << interval->str();
  EXPECT_LT(interval->length(), 1e-4);  // (0.001+0.001)/500 per side
}

TEST(PeerTableRates, DissonantRequiresClaimedDelta) {
  PeerTable table = rate_table(1e-5);
  for (int i = 0; i <= 5; ++i) {
    const double local = 100.0 * i;
    observe(table, reading(1, local, local * 1.04));  // 4% fast!
  }
  // Without a claimed bound the table cannot judge.
  EXPECT_TRUE(table.dissonant().empty());
  table.set_claimed_delta(1, 1.2e-5);
  const auto bad = table.dissonant();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 1u);
}

TEST(PeerTableRates, DissonantListsPeersInIdOrder) {
  PeerTable table = rate_table(1e-5);
  for (core::ServerId j : {9u, 3u, 5u}) table.set_claimed_delta(j, 1e-5);
  for (int i = 0; i <= 5; ++i) {
    const double local = 100.0 * i;
    for (core::ServerId j : {9u, 3u, 5u}) {
      observe(table, reading(j, local, local * 1.04));
    }
  }
  EXPECT_EQ(table.dissonant(), (std::vector<core::ServerId>{3, 5, 9}));
}

TEST(PeerTableRates, ConsonantNeighbourNotFlagged) {
  PeerTable table = rate_table(1e-5);
  table.set_claimed_delta(1, 2e-5);
  for (int i = 0; i <= 5; ++i) {
    const double local = 100.0 * i;
    observe(table, reading(1, local, local * (1.0 + 1.5e-5)));
  }
  EXPECT_TRUE(table.dissonant().empty());
}

TEST(PeerTableRates, LocalResetClearsWindows) {
  PeerTable table = rate_table(1e-5);
  table.set_claimed_delta(1, 1e-5);
  for (int i = 0; i <= 5; ++i) {
    observe(table, reading(1, 100.0 * i, 100.0 * i * 1.04));
  }
  ASSERT_FALSE(table.dissonant().empty());
  table.rebase(core::Duration{0.0});
  EXPECT_FALSE(table.rate_interval(1).has_value());
  EXPECT_TRUE(table.dissonant().empty());
}

TEST(PeerTableRates, BorderlineOverlapIsNotFlagged) {
  // Claimed 1e-5 each side: the bound is 2e-5.  The measured rate 2.5e-5 is
  // outside it, but 2.5 ms round trips over 500 s give the estimate
  // +/- 1e-5, so the rate interval [1.5e-5, 3.5e-5] still overlaps the bound
  // and nothing is proven.  The same rate measured exactly is dissonant.
  for (const double rtt : {2.5e-3, 0.0}) {
    PeerTable table = rate_table(1e-5);
    table.set_claimed_delta(1, 1e-5);
    for (int i = 0; i <= 5; ++i) {
      const double local = 100.0 * i;
      observe(table, reading(1, local, local * (1.0 + 2.5e-5), rtt));
    }
    EXPECT_EQ(table.dissonant().empty(), rtt > 0.0) << "rtt " << rtt;
  }
}

TEST(PeerTableRates, RefinedOwnRateFromConsonantNeighbours) {
  // Our clock is actually 2e-5 fast; three accurate neighbours all appear
  // ~2e-5 SLOW relative to us.  The refined own-rate interval must contain
  // +2e-5 and exclude rates far outside.
  PeerTable table = rate_table(5e-5);
  for (core::ServerId j = 1; j <= 3; ++j) {
    table.set_claimed_delta(j, 1e-6);
    for (int i = 0; i <= 5; ++i) {
      const double local = 200.0 * i;
      observe(table, reading(j, local, local * (1.0 - 2e-5)));
    }
  }
  const auto own = table.refined_own_rate();
  ASSERT_TRUE(own.has_value());
  EXPECT_TRUE(own->contains(2e-5)) << own->str();
  EXPECT_LT(own->length(), 1e-4);
  EXPECT_FALSE(own->contains(1e-3));
}

TEST(PeerTableRates, RefinedOwnRateSkipsDissonantNeighbour) {
  PeerTable table = rate_table(5e-5);
  table.set_claimed_delta(1, 1e-6);
  table.set_claimed_delta(2, 1e-6);
  for (int i = 0; i <= 5; ++i) {
    const double local = 200.0 * i;
    observe(table, reading(1, local, local * (1.0 - 2e-5)));  // honest
    observe(table, reading(2, local, local * 1.04));          // 4% liar
  }
  const auto own = table.refined_own_rate();
  ASSERT_TRUE(own.has_value());
  // The liar, being dissonant, is excluded; the estimate still brackets our
  // true rate error.
  EXPECT_TRUE(own->contains(2e-5)) << own->str();
}

TEST(PeerTableRates, DisagreeingConsonantSetRefinesNothing) {
  // Both neighbours are within their claims relative to our loose 5e-5
  // bound, but one says we run 4e-5 fast and the other 4e-5 slow: the
  // own-rate intervals they imply are disjoint, so there is no refinement.
  PeerTable table = rate_table(5e-5);
  table.set_claimed_delta(1, 1e-6);
  table.set_claimed_delta(2, 1e-6);
  for (int i = 0; i <= 5; ++i) {
    const double local = 200.0 * i;
    observe(table, reading(1, local, local * (1.0 - 4e-5)));
    observe(table, reading(2, local, local * (1.0 + 4e-5)));
  }
  EXPECT_TRUE(table.dissonant().empty());
  EXPECT_FALSE(table.refined_own_rate().has_value());
}

TEST(PeerTableRatesService, FlagsInvalidBoundWhileIntervalsStillConsistent) {
  // Section 5's punchline: the 4%-fast server is detected by RATE analysis
  // long before (and independently of) interval inconsistency.
  ServiceConfig cfg;
  cfg.seed = 61;
  cfg.delay_hi = 0.001;
  cfg.sample_interval = 0.0;
  for (int i = 0; i < 3; ++i) {
    ServerSpec s;
    s.algo = core::SyncAlgorithm::kNone;  // free-running: pure observation
    s.claimed_delta = 1.2e-5;
    s.simulated_drift = i == 2 ? 0.04 : 1e-6 * i;
    s.initial_error = 10.0;  // huge errors: intervals stay consistent
    s.poll_period = 5.0;
    cfg.servers.push_back(s);
  }
  // Server 0 polls both neighbours to feed its monitor; its own error is
  // kept far below everyone else's so MM never accepts a reply (a reset
  // would clear the rate windows) and it purely observes.
  cfg.servers[0].algo = core::SyncAlgorithm::kMM;
  cfg.servers[0].monitor_rates = true;
  cfg.servers[0].initial_error = 0.001;
  TimeService service(cfg);
  service.run_until(200.0);

  const PeerTable& peers = service.server(0).peers();
  ASSERT_TRUE(peers.rates_on());
  EXPECT_EQ(peers.rate_neighbours(), 2u);
  // Intervals are all consistent (errors are 10 s, offsets < 8 s)...
  EXPECT_TRUE(service.all_correct());
  // ...yet the rate monitor has already convicted server 2.
  const auto bad = peers.dissonant();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 2u);
}

// A joined server takes part in rate monitoring like a built one: the
// existing monitors hold its claimed delta and convict it when it runs
// fast, and its own monitor holds theirs.  All four start with equal
// errors and the joiner's grows faster, so no MM reset clears a window.
TEST(PeerTableRatesService, JoinedServerIsJudgedAndJudges) {
  ServiceConfig cfg;
  cfg.seed = 61;
  cfg.delay_hi = 0.001;
  cfg.sample_interval = 0.0;
  for (int i = 0; i < 3; ++i) {
    ServerSpec s;
    s.algo = core::SyncAlgorithm::kMM;
    s.monitor_rates = true;
    s.claimed_delta = 1.2e-5;
    s.simulated_drift = 1e-6 * i;
    s.initial_error = 0.001;
    s.poll_period = 5.0;
    cfg.servers.push_back(s);
  }
  TimeService service(cfg);
  ServerSpec joiner = cfg.servers[0];
  joiner.simulated_drift = 0.04;  // far above its claimed 1.2e-5
  const core::ServerId id = service.add_server(joiner);  // announced
  service.run_until(200.0);

  for (core::ServerId i = 0; i < 3; ++i) {
    EXPECT_EQ(service.server(i).peers().dissonant(),
              (std::vector<core::ServerId>{id}))
        << "server " << i;
  }
  EXPECT_EQ(service.server(id).peers().dissonant(),
            (std::vector<core::ServerId>{0, 1, 2}));
}

}  // namespace
}  // namespace mtds::service
