// FaultInjector: the chaos plane decorator in isolation, against a fake
// inner runtime - every fault mode, the accounting invariant, and
// same-seed determinism.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/fault_injector.h"
#include "sim/event_queue.h"

namespace mtds::runtime {
namespace {

using service::ServiceMessage;

// Records outbound sends and lets the test inject inbound deliveries;
// timers and the clock run on its event queue.
class FakeRuntime final : public Runtime {
 public:
  struct Sent {
    ServerId to;
    ServiceMessage msg;
  };

  explicit FakeRuntime(sim::EventQueue& queue) : queue_(&queue) {}

  void open(ServerId /*self*/, Handler handler) override {
    handler_ = std::move(handler);
  }
  void close() override { handler_ = nullptr; }
  void send(ServerId to, const ServiceMessage& msg) override {
    sent.push_back({to, msg});
  }
  Duration max_one_way_delay() const override { return 0.01; }
  TimerId after(Duration delay, std::function<void()> cb) override {
    return queue_->after(delay, std::move(cb));
  }
  bool cancel(TimerId id) override { return queue_->cancel(id); }
  RealTime now() override { return queue_->now(); }

  // What the network would do: hand an inbound message to whatever handler
  // open() installed (the injector's interposer).
  void deliver(RealTime t, const ServiceMessage& msg) {
    if (handler_) handler_(t, msg);
  }

  std::vector<Sent> sent;

 private:
  sim::EventQueue* queue_;
  Handler handler_;
};

ServiceMessage response(ServerId from, ServerId to, std::uint64_t tag,
                        double c = 100.0, double e = 0.01) {
  ServiceMessage msg;
  msg.type = ServiceMessage::Type::kTimeResponse;
  msg.from = from;
  msg.to = to;
  msg.tag = tag;
  msg.c = c;
  msg.e = e;
  return msg;
}

struct Harness {
  explicit Harness(FaultPlan plan)
      : inner(queue), injector(inner, plan) {
    injector.open(0, [this](RealTime t, const ServiceMessage& msg) {
      received.push_back(msg);
      receive_times.push_back(t);
    });
  }

  sim::EventQueue queue;
  FakeRuntime inner;
  FaultInjector injector;
  std::vector<ServiceMessage> received;
  std::vector<RealTime> receive_times;
};

TEST(FaultInjector, DropAllLosesEverythingAndCounts) {
  FaultPlan plan;
  plan.drop = 1.0;
  Harness h(plan);

  for (std::uint64_t i = 0; i < 5; ++i) {
    h.injector.send(1, response(0, 1, i));
    h.inner.deliver(h.queue.now(), response(1, 0, i));
  }
  EXPECT_TRUE(h.inner.sent.empty());
  EXPECT_TRUE(h.received.empty());
  EXPECT_EQ(h.injector.stats().outbound, 5u);
  EXPECT_EQ(h.injector.stats().inbound, 5u);
  EXPECT_EQ(h.injector.stats().dropped_loss, 10u);
  EXPECT_EQ(h.injector.stats().forwarded, 0u);
}

TEST(FaultInjector, DuplicateAllDispatchesTwice) {
  FaultPlan plan;
  plan.duplicate = 1.0;
  Harness h(plan);

  h.injector.send(1, response(0, 1, 7));
  ASSERT_EQ(h.inner.sent.size(), 2u);
  EXPECT_EQ(h.inner.sent[0].msg.tag, h.inner.sent[1].msg.tag);

  h.inner.deliver(h.queue.now(), response(1, 0, 8));
  EXPECT_EQ(h.received.size(), 2u);

  EXPECT_EQ(h.injector.stats().duplicated, 2u);
  EXPECT_EQ(h.injector.stats().forwarded, 4u);
}

TEST(FaultInjector, DelaySpikeHoldsCopyUntilTimerFires) {
  FaultPlan plan;
  plan.delay = 1.0;
  plan.delay_lo = 0.5;
  plan.delay_hi = 0.5;
  Harness h(plan);

  h.injector.send(1, response(0, 1, 1));
  h.inner.deliver(h.queue.now(), response(1, 0, 2));
  EXPECT_TRUE(h.inner.sent.empty());
  EXPECT_TRUE(h.received.empty());
  EXPECT_EQ(h.injector.stats().delayed, 2u);

  h.queue.run_until(0.49);
  EXPECT_TRUE(h.inner.sent.empty());
  h.queue.run_until(0.51);
  EXPECT_EQ(h.inner.sent.size(), 1u);
  ASSERT_EQ(h.received.size(), 1u);
  // The late inbound copy carries the fire-time timestamp, exactly like a
  // slow network delivery.
  EXPECT_NEAR(h.receive_times[0].seconds(), 0.5, 1e-9);
}

TEST(FaultInjector, DelayInflatesAdvertisedOneWayBound) {
  FaultPlan plan;
  plan.delay = 0.5;
  plan.delay_hi = 0.2;
  Harness h(plan);
  EXPECT_DOUBLE_EQ(h.injector.max_one_way_delay().seconds(), 0.01 + 0.2);

  FaultPlan quiet;
  quiet.enabled = true;
  Harness h2(quiet);
  EXPECT_DOUBLE_EQ(h2.injector.max_one_way_delay().seconds(), 0.01);
}

TEST(FaultInjector, CrashStopSilencesBothDirectionsUntilRestart) {
  FaultPlan plan;
  plan.enabled = true;
  Harness h(plan);

  h.injector.set_crashed(true);
  h.injector.send(1, response(0, 1, 1));
  h.inner.deliver(h.queue.now(), response(1, 0, 2));
  EXPECT_TRUE(h.inner.sent.empty());
  EXPECT_TRUE(h.received.empty());
  EXPECT_EQ(h.injector.stats().dropped_crash, 2u);

  h.injector.set_crashed(false);
  h.injector.send(1, response(0, 1, 3));
  h.inner.deliver(h.queue.now(), response(1, 0, 4));
  EXPECT_EQ(h.inner.sent.size(), 1u);
  EXPECT_EQ(h.received.size(), 1u);
}

TEST(FaultInjector, CrashDropsDelayedCopiesInFlight) {
  FaultPlan plan;
  plan.delay = 1.0;
  plan.delay_lo = 1.0;
  plan.delay_hi = 1.0;
  Harness h(plan);

  h.injector.send(1, response(0, 1, 1));
  h.injector.set_crashed(true);
  h.queue.run_until(2.0);
  // The spike fired while crashed: the copy dies at the endpoint.
  EXPECT_TRUE(h.inner.sent.empty());
  EXPECT_EQ(h.injector.stats().dropped_crash, 1u);
}

TEST(FaultInjector, CorruptionMutatesFieldsAndCounts) {
  FaultPlan plan;
  plan.corrupt = 1.0;
  Harness h(plan);

  const auto original = response(1, 0, 42, 100.0, 0.01);
  for (int i = 0; i < 8; ++i) h.inner.deliver(h.queue.now(), original);
  ASSERT_EQ(h.received.size(), 8u);
  EXPECT_EQ(h.injector.stats().corrupted, 8u);
  for (const auto& msg : h.received) {
    // Either the clock field moved (far beyond the honest bound) or the
    // tag no longer matches; never a clean copy.
    EXPECT_TRUE(msg.c != original.c || msg.tag != original.tag);
  }
}

FaultStats run_mixed_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.drop = 0.2;
  plan.duplicate = 0.2;
  plan.delay = 0.2;
  plan.delay_lo = 0.01;
  plan.delay_hi = 0.1;
  plan.corrupt = 0.1;
  plan.seed = seed;
  Harness h(plan);
  for (std::uint64_t i = 0; i < 200; ++i) {
    h.injector.send(1 + (i % 3), response(0, 1, i));
    h.inner.deliver(h.queue.now(), response(1, 0, 1000 + i));
  }
  h.queue.run_until(10.0);  // drain every delayed copy
  return h.injector.stats();
}

TEST(FaultInjector, AccountingInvariantHoldsOnceDrained) {
  const FaultStats s = run_mixed_plan(0x5EED);
  EXPECT_EQ(s.outbound + s.inbound + s.duplicated,
            s.forwarded + s.dropped_loss + s.dropped_partition +
                s.dropped_crash);
  EXPECT_GT(s.dropped_loss, 0u);
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_GT(s.delayed, 0u);
  EXPECT_GT(s.corrupted, 0u);
}

TEST(FaultInjector, IdenticalSeedsReplayIdenticalLedgers) {
  EXPECT_EQ(run_mixed_plan(0x5EED), run_mixed_plan(0x5EED));
  EXPECT_NE(run_mixed_plan(0x5EED), run_mixed_plan(0xBEEF));
}

TEST(FaultInjector, PlanActiveArmsOnlyWhenAsked) {
  EXPECT_FALSE(FaultPlan{}.active());
  FaultPlan crash_only;
  crash_only.enabled = true;
  EXPECT_TRUE(crash_only.active());
  FaultPlan lossy;
  lossy.drop = 0.1;
  EXPECT_TRUE(lossy.active());
}

}  // namespace
}  // namespace mtds::runtime
