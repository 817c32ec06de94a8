// Unit coverage for the sharded-engine building blocks: the EventQueue
// window primitives and the ShardedEngine epoch loop itself (window math,
// barrier hook ordering, cross-shard hand-offs at the engine level).
// Whole-service determinism is pinned end-to-end by determinism_test.cc;
// these tests isolate the pieces so a regression points at the right
// layer.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/sharded_engine.h"

namespace mtds {
namespace {

using core::Duration;
using core::RealTime;

// --- EventQueue window primitives ------------------------------------------

TEST(EventQueueWindows, RunBeforeIsStrict) {
  sim::EventQueue q;
  std::vector<int> fired;
  q.at(RealTime{1.0}, [&] { fired.push_back(1); });
  q.at(RealTime{2.0}, [&] { fired.push_back(2); });
  q.at(RealTime{3.0}, [&] { fired.push_back(3); });

  EXPECT_EQ(q.run_before(RealTime{2.0}), 1u);  // strictly before 2.0
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(q.now(), RealTime{2.0});  // now advances to the window end

  EXPECT_EQ(q.run_before(RealTime{3.5}), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueWindows, RunAtExecutesOneTimestampIncludingSelfSchedules) {
  sim::EventQueue q;
  int count = 0;
  q.at(RealTime{5.0}, [&] {
    ++count;
    // A same-time event scheduled during the lockstep round still runs.
    q.at(RealTime{5.0}, [&] { ++count; });
  });
  q.at(RealTime{5.0}, [&] { ++count; });
  q.at(RealTime{6.0}, [&] { ++count; });

  EXPECT_EQ(q.run_at(RealTime{5.0}), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(q.now(), RealTime{5.0});
  EXPECT_EQ(q.pending(), 1u);  // the 6.0 event is untouched
}

TEST(EventQueueWindows, NextTimeIsInfinityWhenEmpty) {
  sim::EventQueue q;
  EXPECT_TRUE(q.next_time() > RealTime{1e300});
  q.at(RealTime{2.5}, [] {});
  EXPECT_EQ(q.next_time(), RealTime{2.5});
}

TEST(EventQueueWindows, NextTimeSkipsCancelledTop) {
  sim::EventQueue q;
  const auto id = q.at(RealTime{1.0}, [] {});
  q.at(RealTime{2.0}, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), RealTime{2.0});
}

TEST(EventQueueWindows, AdvanceToNeverMovesBackwards) {
  sim::EventQueue q;
  q.advance_to(RealTime{10.0});
  EXPECT_EQ(q.now(), RealTime{10.0});
  q.advance_to(RealTime{5.0});
  EXPECT_EQ(q.now(), RealTime{10.0});
}

// --- ShardedEngine ----------------------------------------------------------

// Two shards exchanging "messages" through the barrier hook: each event at
// time t on shard s schedules the next on the other shard at t + delay,
// mimicking the Network mailbox protocol.
TEST(ShardedEngine, CrossShardPingPongAlternatesShards) {
  const Duration kDelay{0.25};
  sim::EventQueue q0, q1;
  std::vector<std::pair<int, double>> log;  // (shard, time)
  struct Mail {
    int to;
    RealTime at;
  };
  std::vector<Mail> mailbox;

  std::function<void(int)> bounce = [&](int shard) {
    sim::EventQueue& q = shard == 0 ? q0 : q1;
    log.emplace_back(shard, q.now().seconds());
    if (log.size() < 8) {
      mailbox.push_back(Mail{1 - shard, q.now() + kDelay});
    }
  };

  q0.at(RealTime{0.0}, [&] { bounce(0); });
  sim::ShardedEngine engine({&q0, &q1});
  engine.set_barrier_hook([&] {
    for (const Mail& m : mailbox) {
      sim::EventQueue& q = m.to == 0 ? q0 : q1;
      const int to = m.to;
      q.at(m.at, [&, to] { bounce(to); });
    }
    mailbox.clear();
  });
  engine.run_until(RealTime{10.0}, kDelay);

  ASSERT_EQ(log.size(), 8u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].first, static_cast<int>(i % 2));
    EXPECT_NEAR(log[i].second, 0.25 * static_cast<double>(i), 1e-12);
  }
  EXPECT_EQ(q0.now(), RealTime{10.0});
  EXPECT_EQ(q1.now(), RealTime{10.0});
}

TEST(ShardedEngine, ZeroLookaheadRunsLockstepRounds) {
  sim::EventQueue q0, q1;
  std::vector<int> order;
  q0.at(RealTime{1.0}, [&] { order.push_back(0); });
  q1.at(RealTime{1.0}, [&] { order.push_back(1); });
  q1.at(RealTime{2.0}, [&] { order.push_back(2); });

  sim::ShardedEngine engine({&q0, &q1});
  engine.run_until(RealTime{3.0}, Duration{0.0});
  // Both t=1.0 events ran in the first lockstep round, t=2.0 in a later one.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 2);
  EXPECT_GE(engine.last_windows(), 2u);
}

TEST(ShardedEngine, PositiveLookaheadBatchesWindows) {
  sim::EventQueue q0, q1;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    q0.at(RealTime{0.01 * i}, [&] { ++fired; });
    q1.at(RealTime{0.01 * i}, [&] { ++fired; });
  }
  sim::ShardedEngine engine({&q0, &q1});
  engine.run_until(RealTime{1.0}, Duration{0.1});
  EXPECT_EQ(fired, 200);
  // 100 distinct timestamps, but only ~10 windows of width 0.1.
  EXPECT_LE(engine.last_windows(), 12u);
}

TEST(ShardedEngine, BarrierHookRunsAfterEveryWindow) {
  sim::EventQueue q0, q1;
  q0.at(RealTime{0.5}, [] {});
  q1.at(RealTime{1.5}, [] {});
  sim::ShardedEngine engine({&q0, &q1});
  std::size_t hooks = 0;
  engine.set_barrier_hook([&] { ++hooks; });
  engine.run_until(RealTime{2.0}, Duration{0.0});
  EXPECT_EQ(hooks, engine.last_windows());
  EXPECT_EQ(hooks, 2u);
}

}  // namespace
}  // namespace mtds
