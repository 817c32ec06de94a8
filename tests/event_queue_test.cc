#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "event_queue_model.h"
#include "sim/rng.h"

namespace mtds::sim {
namespace {

TEST(EventQueue, StartsEmptyAtZero) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now().seconds(), 0.0);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.at(3.0, [&] { order.push_back(3); });
  q.at(1.0, [&] { order.push_back(1); });
  q.at(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now().seconds(), 3.0);
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.at(5.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, AfterSchedulesRelative) {
  EventQueue q;
  double fired_at = -1.0;
  q.at(10.0, [&] {
    q.after(5.0, [&] { fired_at = q.now().seconds(); });
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(EventQueue, RejectsPastAndNegative) {
  EventQueue q;
  q.at(10.0, [] {});
  q.run_all();
  EXPECT_THROW(q.at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.after(-1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    q.at(t, [&fired, &q] { fired.push_back(q.now().seconds()); });
  }
  EXPECT_EQ(q.run_until(2.5), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(q.now().seconds(), 2.5);
  EXPECT_EQ(q.pending(), 2u);
  // Inclusive boundary.
  EXPECT_EQ(q.run_until(3.0), 1u);
  EXPECT_DOUBLE_EQ(q.now().seconds(), 3.0);
}

TEST(EventQueue, RunUntilAdvancesNowEvenWithoutEvents) {
  EventQueue q;
  EXPECT_EQ(q.run_until(100.0), 0u);
  EXPECT_DOUBLE_EQ(q.now().seconds(), 100.0);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto id = q.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel
  q.run_all();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledTopDoesNotLeakLaterEvents) {
  // Regression guard: a cancelled earliest event must not cause run_until
  // to execute an event beyond the horizon.
  EventQueue q;
  bool late_fired = false;
  const auto id = q.at(1.0, [] {});
  q.at(10.0, [&] { late_fired = true; });
  q.cancel(id);
  q.run_until(5.0);
  EXPECT_FALSE(late_fired);
  EXPECT_DOUBLE_EQ(q.now().seconds(), 5.0);
}

TEST(EventQueue, CancelUnknownIdIsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(42));
}

TEST(EventQueue, CancelAfterExecutionIsHarmlessNoOp) {
  // Regression: cancelling an id that already ran must not return true,
  // corrupt pending(), or affect other scheduled events.
  EventQueue q;
  const auto ran = q.at(1.0, [] {});
  bool other_fired = false;
  q.at(2.0, [&] { other_fired = true; });
  q.run_until(1.5);
  EXPECT_FALSE(q.cancel(ran));
  EXPECT_EQ(q.pending(), 1u);
  q.run_all();
  EXPECT_TRUE(other_fired);
}

TEST(EventQueue, CancelledIdIsNeverConfusedWithLaterEvents) {
  // Regression for the sentinel bug: cancelling id 0 after it ran must not
  // suppress any later event.
  EventQueue q;
  int fired = 0;
  const auto first = q.at(0.5, [&] { ++fired; });
  EXPECT_EQ(first, 0u);  // ids start at 0: exactly the hazardous case
  q.run_all();
  q.cancel(first);  // stale handle
  q.at(1.0, [&] { ++fired; });
  q.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SelfSchedulingChainTerminatesWithRunUntil) {
  EventQueue q;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    q.after(1.0, tick);
  };
  q.after(1.0, tick);
  q.run_until(10.5);
  EXPECT_EQ(ticks, 10);
}

TEST(EventQueue, RunAllGuardsAgainstRunaway) {
  EventQueue q;
  std::function<void()> forever = [&] { q.after(0.0, forever); };
  q.after(0.0, forever);
  EXPECT_EQ(q.run_all(/*max_events=*/1000), 1000u);
}

TEST(EventQueue, ZeroDelaySameTimeOrdering) {
  EventQueue q;
  std::vector<int> order;
  q.at(1.0, [&] {
    order.push_back(1);
    q.after(0.0, [&] { order.push_back(2); });
  });
  q.at(1.0, [&] { order.push_back(3); });
  q.run_all();
  // The zero-delay event was enqueued after the second 1.0 event.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(EventQueue, PendingCountsLiveEvents) {
  EventQueue q;
  const auto a = q.at(1.0, [] {});
  q.at(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
}

// Deliveries through the raw sink API: the queue hands each key's slot to
// the sink at its time, in (time, seq) order merged with the timers.
struct SlotLog {
  EventQueue* q = nullptr;
  std::vector<std::pair<double, int>> runs;  // (now, slot or -timer)
  static void sink(void* self, std::uint32_t slot) {
    auto* log = static_cast<SlotLog*>(self);
    log->runs.emplace_back(log->q->now().seconds(), static_cast<int>(slot));
  }
};

TEST(EventQueue, DeliveriesMergeWithTimersByTimeThenSeq) {
  EventQueue q;
  SlotLog log{&q, {}};
  q.set_delivery_sink(&log, &SlotLog::sink, 1.0);
  q.deliver(2.0, 7);
  q.at(1.0, [&log] { log.runs.emplace_back(1.0, -1); });
  q.deliver(1.0, 3);
  q.at(2.0, [&log] { log.runs.emplace_back(2.0, -2); });
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_DOUBLE_EQ(q.next_time().seconds(), 1.0);
  EXPECT_EQ(q.run_before(2.0), 2u);
  EXPECT_DOUBLE_EQ(q.next_time().seconds(), 2.0);
  EXPECT_EQ(q.run_at(2.0), 2u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(log.runs, (std::vector<std::pair<double, int>>{
                          {1.0, -1}, {1.0, 3}, {2.0, 7}, {2.0, -2}}));
  EXPECT_THROW(q.deliver(1.0, 0), std::invalid_argument);
}

// The calendar ring.  Each test drives the queue through model::QueueModel,
// which checks every event against a reference std::set of (time, seq).
using model::Operation;
using model::OpKind;
using model::QueueModel;

// Delay codes (QueueModel::delay_of): the low three bits pick the class,
// the high five a fraction f = (code >> 3) / 31 of the span.
constexpr std::uint8_t fraction_code(int f31) {
  return static_cast<std::uint8_t>((f31 << 3) | 2);  // f * span
}
constexpr std::uint8_t kZero = 0;       // delay 0
constexpr std::uint8_t kSpan = 1;       // exactly the span
constexpr std::uint8_t kBeyond = 0x86;  // about 5.4 spans: overflow
constexpr std::uint8_t kHandlerSendsNow = 1;  // child: deliver at delay 0

TEST(EventQueueRing, KeysBeyondTheSpanLeaveOverflowInOrder) {
  QueueModel m(1e-3);
  for (int round = 0; round < 20; ++round) {
    m.apply({OpKind::kBurst, fraction_code(round), 0, 63});
    m.apply({OpKind::kBurst, kBeyond, 0, 15});
    m.apply({OpKind::kDeliver, kSpan, 0, 0});
    m.apply({OpKind::kRunBefore, fraction_code(20), 0, 0});
  }
  m.finish();
  EXPECT_TRUE(m.ok()) << m.error();
  EXPECT_EQ(m.deliveries_run(), 20u * (64 + 16 + 1));
}

TEST(EventQueueRing, ZeroDelaySendFromAHandlerJoinsTheBucketBeingDrained) {
  QueueModel m(1.0);
  // 64 keys in one bucket (delay < span / 1024); each odd one's handler
  // sends again at delay 0, into the bucket the run is draining.
  for (int round = 0; round < 8; ++round) {
    m.apply({OpKind::kBurst, 0x7c, kHandlerSendsNow, 63});
    m.apply({OpKind::kStep, 0, 0, 0});
    m.apply({OpKind::kRunUntil, fraction_code(1), 0, 0});
  }
  m.finish();
  EXPECT_TRUE(m.ok()) << m.error();
  EXPECT_EQ(m.deliveries_run(), 8u * (64 + 64));
}

TEST(EventQueueRing, TimerBeforeTheRunSchedulingEarlierSpillsTheRun) {
  QueueModel m(1.0);
  // The ring's run forms at about 0.48 s; a timer at about 0.1 s fires
  // first and delivers at its own time, before the run's bucket.
  m.apply({OpKind::kBurst, fraction_code(15), 0, 63});
  m.apply({OpKind::kAt, fraction_code(3), kHandlerSendsNow, 0});
  m.apply({OpKind::kNextTime, 0, 0, 0});  // gathers the run
  m.apply({OpKind::kRunUntil, fraction_code(31), 0, 0});
  m.finish();
  EXPECT_TRUE(m.ok()) << m.error();
  EXPECT_EQ(m.deliveries_run(), 64u + 1u);
}

TEST(EventQueueRing, ZeroSpanKeepsEveryDeliveryInTheHeap) {
  QueueModel m(0.0);
  for (int round = 0; round < 16; ++round) {
    m.apply({OpKind::kBurst, static_cast<std::uint8_t>(round * 11),
             kHandlerSendsNow, 63});
    m.apply({OpKind::kAt, kZero, kHandlerSendsNow, 0});
    m.apply({OpKind::kRunBefore, kSpan, 0, 0});
  }
  m.finish();
  EXPECT_TRUE(m.ok()) << m.error();
}

// A seeded stream of about 100k mixed operations over four spans (none,
// a millisecond, a second, and one that is no power-of-two fraction).
TEST(EventQueueRing, MatchesTheReferenceSetOnARandomStream) {
  // Schedules outnumber runs, so hundreds of keys stay pending.
  constexpr OpKind kMix[] = {
      OpKind::kDeliver, OpKind::kDeliver,   OpKind::kDeliver,
      OpKind::kBurst,   OpKind::kAt,        OpKind::kAt,
      OpKind::kCancel,  OpKind::kStep,      OpKind::kStep,
      OpKind::kRunBefore, OpKind::kRunUntil, OpKind::kRunAt,
      OpKind::kNextTime};
  Rng rng(2718);
  std::size_t events = 0;
  for (const double span : {0.0, 1e-3, 1.0, 0.37}) {
    QueueModel m(span);
    for (int i = 0; i < 25'000; ++i) {
      const auto byte = [&rng] {
        return static_cast<std::uint8_t>(rng.uniform_index(256));
      };
      m.apply({kMix[rng.uniform_index(std::size(kMix))], byte(), byte(),
               byte()});
    }
    m.finish();
    ASSERT_TRUE(m.ok()) << "span " << span << ": " << m.error();
    events += m.events_run();
  }
  EXPECT_GT(events, 100'000u);
}

}  // namespace
}  // namespace mtds::sim
