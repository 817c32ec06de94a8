// Delay models + simulated network.
#include "sim/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/delay_model.h"

namespace mtds::sim {
namespace {

struct TestMsg {
  int value = 0;
};

class NetworkTest : public ::testing::Test {
 protected:
  EventQueue queue;
  Rng rng{7};
  FixedDelay delay{0.5};
  Network<TestMsg> net{queue, delay, rng};
};

TEST(DelayModels, FixedDelayIsConstant) {
  Rng rng(1);
  FixedDelay d(0.25);
  EXPECT_DOUBLE_EQ(d.sample(rng).seconds(), 0.25);
  EXPECT_DOUBLE_EQ(d.max_delay().seconds(), 0.25);
  EXPECT_THROW(FixedDelay(-0.1), std::invalid_argument);
}

TEST(DelayModels, UniformWithinBounds) {
  Rng rng(2);
  UniformDelay d(0.1, 0.4);
  for (int i = 0; i < 10000; ++i) {
    const double s = d.sample(rng).seconds();
    EXPECT_GE(s, 0.1);
    EXPECT_LE(s, 0.4);
  }
  EXPECT_DOUBLE_EQ(d.max_delay().seconds(), 0.4);
  EXPECT_THROW(UniformDelay(-0.1, 0.5), std::invalid_argument);
  EXPECT_THROW(UniformDelay(0.5, 0.1), std::invalid_argument);
}

TEST(DelayModels, TruncatedExponentialRespectsCap) {
  Rng rng(3);
  TruncatedExponentialDelay d(0.1, 0.3);
  double max_seen = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const double s = d.sample(rng).seconds();
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 0.3);
    max_seen = std::max(max_seen, s);
  }
  EXPECT_DOUBLE_EQ(max_seen, 0.3);  // the cap is actually hit
  EXPECT_THROW(TruncatedExponentialDelay(0.0, 1.0), std::invalid_argument);
}

TEST_F(NetworkTest, DeliversWithModelDelay) {
  std::vector<std::pair<double, int>> received;
  net.register_node(1, [&](core::RealTime t, const TestMsg& m) {
    received.emplace_back(t.seconds(), m.value);
  });
  const auto d = net.send(0, 1, TestMsg{42});
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(d->seconds(), 0.5);
  queue.run_all();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_DOUBLE_EQ(received[0].first, 0.5);
  EXPECT_EQ(received[0].second, 42);
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST_F(NetworkTest, DropsToUnregisteredNode) {
  net.send(0, 99, TestMsg{1});
  queue.run_all();
  EXPECT_EQ(net.stats().dropped_no_handler, 1u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST_F(NetworkTest, UnregisterStopsDelivery) {
  int hits = 0;
  net.register_node(1, [&](core::RealTime, const TestMsg&) { ++hits; });
  net.send(0, 1, TestMsg{});
  net.unregister_node(1);
  queue.run_all();
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(net.stats().dropped_no_handler, 1u);
}

TEST_F(NetworkTest, PartitionBlocksBothDirections) {
  int hits = 0;
  net.register_node(0, [&](core::RealTime, const TestMsg&) { ++hits; });
  net.register_node(1, [&](core::RealTime, const TestMsg&) { ++hits; });
  net.set_partitioned(0, 1, true);
  EXPECT_TRUE(net.is_partitioned(1, 0));
  EXPECT_FALSE(net.send(0, 1, TestMsg{}).has_value());
  EXPECT_FALSE(net.send(1, 0, TestMsg{}).has_value());
  queue.run_all();
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(net.stats().dropped_partition, 2u);

  net.set_partitioned(0, 1, false);
  EXPECT_TRUE(net.send(0, 1, TestMsg{}).has_value());
  queue.run_all();
  EXPECT_EQ(hits, 1);
}

TEST_F(NetworkTest, LossProbabilityDropsSome) {
  net.register_node(1, [](core::RealTime, const TestMsg&) {});
  net.set_loss_probability(0.5);
  int sent_ok = 0;
  for (int i = 0; i < 1000; ++i) {
    if (net.send(0, 1, TestMsg{}).has_value()) ++sent_ok;
  }
  EXPECT_GT(sent_ok, 350);
  EXPECT_LT(sent_ok, 650);
  EXPECT_EQ(net.stats().dropped_loss, 1000u - static_cast<unsigned>(sent_ok));
}

TEST_F(NetworkTest, PerLinkDelayOverride) {
  FixedDelay slow(2.0);
  net.set_link_delay(0, 1, &slow);
  std::vector<double> times;
  net.register_node(1, [&](core::RealTime t, const TestMsg&) {
    times.push_back(t.seconds());
  });
  net.register_node(2, [&](core::RealTime t, const TestMsg&) {
    times.push_back(t.seconds());
  });
  net.send(0, 1, TestMsg{});  // overridden: 2.0
  net.send(0, 2, TestMsg{});  // default: 0.5
  queue.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
  // Clearing restores the default.
  net.set_link_delay(0, 1, nullptr);
  net.send(0, 1, TestMsg{});
  queue.run_all();
  EXPECT_DOUBLE_EQ(times.back(), queue.now().seconds());
}

TEST_F(NetworkTest, MaxOneWayDelayReflectsModel) {
  EXPECT_DOUBLE_EQ(net.max_one_way_delay().seconds(), 0.5);
}

TEST_F(NetworkTest, StatsCountSends) {
  net.register_node(1, [](core::RealTime, const TestMsg&) {});
  net.send(0, 1, TestMsg{});
  net.send(0, 7, TestMsg{});
  queue.run_all();
  EXPECT_EQ(net.stats().sent, 2u);
  EXPECT_EQ(net.stats().delivered, 1u);
}

}  // namespace
}  // namespace mtds::sim
