// Delay models + simulated network.
#include "sim/network.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <utility>
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

// Merge order: timers and deliveries that share one timestamp run in the
// order they were scheduled (FIFO by insertion), whichever kind they are.
// Every event below lands at t = 0.5 (the fixture's fixed delay); the
// recorded value of a message or a timer is its scheduling rank.

TEST_F(NetworkTest, TimersAndDeliveriesShareFifoOrderAtOneTime) {
  std::vector<int> order;
  net.register_node(1, [&](core::RealTime t, const TestMsg& m) {
    EXPECT_DOUBLE_EQ(t.seconds(), 0.5);
    order.push_back(m.value);
    // Scheduled mid-drain at the current time: after everything pending.
    if (m.value == 2) queue.at(t, [&order] { order.push_back(7); });
  });
  queue.at(0.5, [&order] { order.push_back(1); });
  net.send(0, 1, TestMsg{2});
  net.send(0, 1, TestMsg{3});
  queue.at(0.5, [&order] { order.push_back(4); });
  net.send(0, 1, TestMsg{5});
  queue.at(0.5, [&order] { order.push_back(6); });
  EXPECT_EQ(queue.run_until(0.5), 7u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST_F(NetworkTest, TimerCancelledBetweenDeliveriesLeavesTheirOrder) {
  std::vector<int> order;
  net.register_node(1, [&order](core::RealTime, const TestMsg& m) {
    order.push_back(m.value);
  });
  net.send(0, 1, TestMsg{1});
  const auto cancelled = queue.at(0.5, [&order] { order.push_back(99); });
  net.send(0, 1, TestMsg{2});
  queue.at(0.5, [&order] { order.push_back(3); });
  net.send(0, 1, TestMsg{4});
  EXPECT_TRUE(queue.cancel(cancelled));
  EXPECT_EQ(queue.pending(), 4u);
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(queue.empty());
}

TEST_F(NetworkTest, StepRunsOneMergedEventAtATime) {
  // TimeClient::query_blocking drains with step() until its callback
  // fires; each step must run exactly the next event of either kind.
  std::vector<int> order;
  net.register_node(1, [&order](core::RealTime, const TestMsg& m) {
    order.push_back(m.value);
  });
  net.send(0, 1, TestMsg{1});
  queue.at(0.5, [&order] { order.push_back(2); });
  net.send(0, 1, TestMsg{3});
  queue.at(0.25, [&order] { order.push_back(0); });
  for (std::size_t n = 1; n <= 4; ++n) {
    ASSERT_TRUE(queue.step());
    EXPECT_EQ(order.size(), n);
  }
  EXPECT_FALSE(queue.step());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now().seconds(), 0.5);
}

TEST(NetworkShards, FlushedDeliveriesTakeTheirPlaceAtTheBarrier) {
  // Two shards (id % 2).  A cross-shard message is keyed on its receiver's
  // queue when the barrier flushes the mailboxes, so it runs after every
  // same-time event that queue held before the flush and before every one
  // scheduled after it; a same-shard message is keyed at send time.
  EventQueue q0;
  EventQueue q1;
  Rng r0{3};
  Rng r1{4};
  FixedDelay delay{0.5};
  Network<TestMsg> net({&q0, &q1}, delay, {&r0, &r1});
  std::vector<int> order;
  for (core::ServerId id : {1u, 3u}) {
    net.register_node(id, [&order](core::RealTime t, const TestMsg& m) {
      EXPECT_DOUBLE_EQ(t.seconds(), 0.5);
      order.push_back(m.value);
    });
  }
  q1.at(0.5, [&order] { order.push_back(1); });
  net.send(0, 1, TestMsg{4});  // shard 0 -> 1: mailbox
  net.send(1, 3, TestMsg{2});  // shard 1 -> 1: keyed now
  net.send(2, 3, TestMsg{5});  // shard 0 -> 1: mailbox
  q1.at(0.5, [&order] { order.push_back(3); });
  net.flush_mailboxes();
  q1.at(0.5, [&order] { order.push_back(6); });
  EXPECT_EQ(q0.next_time().seconds(),
            std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(q1.next_time().seconds(), 0.5);
  EXPECT_EQ(q1.run_at(0.5), 6u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(net.stats().delivered, 3u);
}

// Arrival order through the calendar ring.  Four nodes forward each
// message a few hops; every send adds its (arrival time, send rank) to a
// reference std::set, and every delivery must head that set.
struct Hop {
  std::uint64_t rank = 0;
  int hops = 0;
};

class RingOrder {
 public:
  RingOrder(EventQueue& queue, Network<Hop>& net) : queue_(queue), net_(net) {
    for (ServerId id = 0; id < 4; ++id) {
      net_.register_node(id, [this, id](core::RealTime t, const Hop& m) {
        arrived(id, t, m);
      });
    }
  }

  void send(ServerId from, ServerId to, int hops) {
    const std::uint64_t rank = next_rank_++;
    const auto delay = net_.send(from, to, Hop{rank, hops});
    ASSERT_TRUE(delay.has_value());
    expected_.emplace((queue_.now() + *delay).seconds(), rank);
    if (*delay > max_delay) max_delay = *delay;
  }

  std::size_t delivered = 0;
  bool in_order = true;
  core::Duration max_delay{0.0};

  bool drained() const { return expected_.empty(); }

 private:
  void arrived(ServerId id, core::RealTime t, const Hop& m) {
    ++delivered;
    if (expected_.empty() ||
        *expected_.begin() != std::make_pair(t.seconds(), m.rank)) {
      in_order = false;
    }
    expected_.erase({t.seconds(), m.rank});
    if (m.hops > 0) {
      send(id, static_cast<ServerId>((id + 1 + m.rank % 3) % 4), m.hops - 1);
    }
  }

  EventQueue& queue_;
  Network<Hop>& net_;
  std::set<std::pair<double, std::uint64_t>> expected_;
  std::uint64_t next_rank_ = 0;
};

TEST(NetworkRing, LinksBeyondTheSpanArriveInOrderAmongRingKeys) {
  // The ring spans the default model's 1 ms; one link takes 10 ms, another
  // a truncated exponential capped at 8 ms, so their keys wait in the
  // overflow heap while the ring holds the rest.
  EventQueue queue;
  Rng rng{29};
  UniformDelay delay{0.0, 1e-3};
  FixedDelay slow{10e-3};
  TruncatedExponentialDelay bursty{2e-3, 8e-3};
  Network<Hop> net(queue, delay, rng);
  net.set_link_delay(0, 1, &slow);
  net.set_link_delay(2, 3, &bursty);
  RingOrder ring(queue, net);
  for (int i = 0; i < 200; ++i) {
    ring.send(static_cast<ServerId>(i % 4),
              static_cast<ServerId>((i + 1) % 4), 6);
  }
  queue.run_all();
  EXPECT_TRUE(ring.in_order);
  EXPECT_TRUE(ring.drained());
  EXPECT_EQ(ring.delivered, 200u * 7);
  EXPECT_GT(ring.max_delay.seconds(), 5e-3);  // the long links were used
}

TEST(NetworkRing, ZeroDelayNetworkDeliversInSendOrder) {
  // FixedDelay(0) gives the queue a span of zero: no ring, every key in
  // the heap, and every arrival at t = 0 in send order.
  EventQueue queue;
  Rng rng{31};
  FixedDelay delay{0.0};
  Network<Hop> net(queue, delay, rng);
  RingOrder ring(queue, net);
  for (int i = 0; i < 100; ++i) {
    ring.send(static_cast<ServerId>(i % 4),
              static_cast<ServerId>((i + 2) % 4), 3);
  }
  queue.run_all();
  EXPECT_TRUE(ring.in_order);
  EXPECT_TRUE(ring.drained());
  EXPECT_EQ(ring.delivered, 100u * 4);
  EXPECT_DOUBLE_EQ(queue.now().seconds(), 0.0);
}

}  // namespace
}  // namespace mtds::sim
