// Directed-broadcast collection ([Boggs 82], the paper's suggested method
// for gathering the distributed data).
#include <gtest/gtest.h>

#include "service/invariants.h"
#include "service/time_service.h"
#include "sim/network.h"

namespace mtds::service {
namespace {

TEST(NetworkBroadcast, FansOutToEveryTargetOnce) {
  sim::EventQueue queue;
  sim::Rng rng(1);
  sim::FixedDelay delay(0.01);
  sim::Network<int> net(queue, delay, rng);
  std::map<core::ServerId, int> received;
  for (core::ServerId id : {1u, 2u, 3u}) {
    net.register_node(id, [&received, id](core::RealTime, const int& v) {
      received[id] += v;
    });
  }
  const auto dispatched = net.broadcast(0, {1, 2, 3, 0}, 7);
  EXPECT_EQ(dispatched, 3u);  // self excluded
  queue.run_all();
  EXPECT_EQ(received[1], 7);
  EXPECT_EQ(received[2], 7);
  EXPECT_EQ(received[3], 7);
}

TEST(NetworkBroadcast, RespectsPartitionsPerCopy) {
  sim::EventQueue queue;
  sim::Rng rng(2);
  sim::FixedDelay delay(0.01);
  sim::Network<int> net(queue, delay, rng);
  int hits = 0;
  net.register_node(1, [&](core::RealTime, const int&) { ++hits; });
  net.register_node(2, [&](core::RealTime, const int&) { ++hits; });
  net.set_partitioned(0, 1, true);
  EXPECT_EQ(net.broadcast(0, {1, 2}, 1), 1u);
  queue.run_all();
  EXPECT_EQ(hits, 1);
}

ServiceConfig config_with_broadcast(bool broadcast, core::SyncAlgorithm algo) {
  ServiceConfig cfg;
  cfg.seed = 88;
  cfg.delay_hi = 0.004;
  cfg.sample_interval = 2.0;
  for (int i = 0; i < 4; ++i) {
    ServerSpec s;
    s.algo = algo;
    s.claimed_delta = 1e-5;
    s.simulated_drift = (i - 2) * 5e-6;
    s.initial_error = 0.02 + 0.02 * i;
    s.poll_period = 5.0;
    s.use_broadcast = broadcast;
    cfg.servers.push_back(s);
  }
  return cfg;
}

class BroadcastModeTest
    : public ::testing::TestWithParam<core::SyncAlgorithm> {};

TEST_P(BroadcastModeTest, ServiceBehavesEquivalently) {
  TimeService service(config_with_broadcast(true, GetParam()));
  service.run_until(300.0);
  EXPECT_TRUE(check_correctness(service.trace()).ok());
  EXPECT_TRUE(check_pairwise_consistency(service.trace()).ok());
  EXPECT_GT(service.trace().count_events(sim::TraceEventKind::kReset), 0u);
  // Every broadcast still fans out to each neighbour, so request counters
  // match the unicast mode's.
  TimeService unicast(config_with_broadcast(false, GetParam()));
  unicast.run_until(300.0);
  EXPECT_NEAR(
      static_cast<double>(service.server(0).counters().requests_sent),
      static_cast<double>(unicast.server(0).counters().requests_sent),
      static_cast<double>(unicast.server(0).counters().requests_sent) * 0.1);
}

INSTANTIATE_TEST_SUITE_P(Algos, BroadcastModeTest,
                         ::testing::Values(core::SyncAlgorithm::kMM,
                                           core::SyncAlgorithm::kIM,
                                           core::SyncAlgorithm::kIMFT),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

TEST(BroadcastMode, DuplicateRepliesAreIgnored) {
  // A replayed/duplicated reply with the round tag must not be consumed
  // twice (pairing is by (tag, sender) and each sender is awaited once).
  TimeService service(config_with_broadcast(true, core::SyncAlgorithm::kIM));
  service.run_until(200.0);
  for (std::size_t i = 0; i < service.size(); ++i) {
    const auto& c = service.server(i).counters();
    EXPECT_LE(c.replies_received, c.requests_sent);
  }
  EXPECT_TRUE(service.all_correct());
}

}  // namespace
}  // namespace mtds::service
