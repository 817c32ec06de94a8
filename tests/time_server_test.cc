// Unit-level tests of a single simulated time server - a ProtocolEngine
// over a runtime::SimRuntime - driven directly through the simulated
// network.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "runtime/sim_runtime.h"
#include "service/protocol_engine.h"
#include "service/time_service.h"
#include "sim/delay_model.h"

namespace mtds::service {
namespace {

using core::ClockFaultKind;
using core::DriftingClock;
using core::ServerId;

class TimeServerTest : public ::testing::Test {
 protected:
  sim::EventQueue queue;
  sim::Rng rng{11};
  sim::FixedDelay delay{0.01};
  ServiceNetwork network{queue, delay, rng};
  sim::Trace trace;
  // One runtime per server, kept alive past every engine's final stop().
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;

  std::unique_ptr<ProtocolEngine> make_engine(
      ServerId id, std::unique_ptr<core::Clock> clock, const ServerSpec& spec) {
    runtimes.push_back(std::make_unique<runtime::SimRuntime>(queue, network));
    return std::make_unique<ProtocolEngine>(id, std::move(clock), spec,
                                            *runtimes.back(), &trace,
                                            rng.fork());
  }

  std::unique_ptr<ProtocolEngine> make_server(ServerId id, ServerSpec spec,
                                              double drift = 0.0,
                                              double offset = 0.0) {
    return make_engine(
        id,
        std::make_unique<DriftingClock>(
            drift, core::ClockTime{queue.now().seconds() + offset},
            queue.now()),
        spec);
  }

  // Captures one response sent to a probe node.
  std::optional<ServiceMessage> probe_request(ServerId target) {
    std::optional<ServiceMessage> got;
    const ServerId probe_id = 1000;
    network.register_node(probe_id,
                          [&](core::RealTime, const ServiceMessage& m) {
                            got = m;
                          });
    ServiceMessage req;
    req.type = ServiceMessage::Type::kTimeRequest;
    req.from = probe_id;
    req.to = target;
    req.tag = 777;
    network.send(probe_id, target, req);
    queue.run_until(queue.now() + 1.0);
    network.unregister_node(probe_id);
    return got;
  }
};

TEST_F(TimeServerTest, RespondsWithRuleMM1Pair) {
  ServerSpec spec;
  spec.claimed_delta = 1e-3;
  spec.initial_error = 0.5;
  spec.algo = core::SyncAlgorithm::kNone;
  auto server = make_server(0, spec, /*drift=*/0.0, /*offset=*/0.25);
  server->start({});

  const auto resp = probe_request(0);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, ServiceMessage::Type::kTimeResponse);
  EXPECT_EQ(resp->from, 0u);
  EXPECT_EQ(resp->tag, 777u);
  // Clock: offset 0.25 from real time; request took one delay hop (0.01).
  EXPECT_NEAR(resp->c.seconds(), 0.01 + 0.25, 1e-9);
  // Error: eps + (C - r) * delta with C - r = elapsed clock time.
  EXPECT_NEAR(resp->e.seconds(), 0.5 + 0.01 * 1e-3, 1e-9);
}

TEST_F(TimeServerTest, ErrorGrowsWithClaimedDelta) {
  ServerSpec spec;
  spec.claimed_delta = 1e-2;
  spec.initial_error = 0.1;
  spec.algo = core::SyncAlgorithm::kNone;
  auto server = make_server(0, spec);
  server->start({});
  queue.run_until(100.0);
  EXPECT_NEAR(server->current_error(100.0).seconds(), 0.1 + 100.0 * 1e-2,
              1e-9);
}

TEST_F(TimeServerTest, StoppedServerIgnoresMessages) {
  ServerSpec spec;
  spec.algo = core::SyncAlgorithm::kNone;
  auto server = make_server(0, spec);
  server->start({});
  server->stop();
  EXPECT_FALSE(server->running());
  const auto resp = probe_request(0);
  EXPECT_FALSE(resp.has_value());
}

TEST_F(TimeServerTest, MMServerAdoptsBetterNeighbor) {
  ServerSpec good;
  good.algo = core::SyncAlgorithm::kNone;
  good.claimed_delta = 1e-6;
  good.initial_error = 0.001;
  auto reference = make_server(1, good);
  reference->start({});

  ServerSpec bad;
  bad.algo = core::SyncAlgorithm::kMM;
  bad.claimed_delta = 1e-4;
  bad.initial_error = 0.8;
  bad.poll_period = 1.0;
  auto learner = make_server(0, bad, /*drift=*/0.0, /*offset=*/0.3);
  learner->start({1});

  queue.run_until(5.0);
  EXPECT_GT(learner->counters().resets, 0u);
  // After adopting the reference, the error is near the reference's plus
  // the round-trip cost.
  EXPECT_LT(learner->current_error(queue.now()), 0.1);
  EXPECT_LT(std::abs(learner->true_offset(queue.now()).seconds()), 0.05);
  EXPECT_TRUE(learner->correct(queue.now()));
}

TEST_F(TimeServerTest, MMServerKeepsOwnClockWhenBest) {
  ServerSpec worse;
  worse.algo = core::SyncAlgorithm::kNone;
  worse.initial_error = 2.0;
  auto neighbor = make_server(1, worse);
  neighbor->start({});

  ServerSpec best;
  best.algo = core::SyncAlgorithm::kMM;
  best.initial_error = 0.001;
  best.claimed_delta = 0.0;
  best.poll_period = 1.0;
  auto server = make_server(0, best);
  server->start({1});

  queue.run_until(10.0);
  EXPECT_EQ(server->counters().resets, 0u);
  EXPECT_NEAR(server->current_error(queue.now()).seconds(), 0.001, 1e-9);
}

TEST_F(TimeServerTest, MMIgnoresInconsistentNeighborAndRecordsIt) {
  // Neighbour claims a tiny error but is wildly wrong.
  ServerSpec liar;
  liar.algo = core::SyncAlgorithm::kNone;
  liar.claimed_delta = 0.0;
  liar.initial_error = 0.001;
  auto bad = make_server(1, liar, /*drift=*/0.0, /*offset=*/50.0);
  bad->start({});

  ServerSpec honest;
  honest.algo = core::SyncAlgorithm::kMM;
  honest.initial_error = 0.01;
  honest.claimed_delta = 0.0;
  honest.poll_period = 1.0;
  honest.recovery = RecoveryPolicy::kIgnore;
  auto server = make_server(0, honest);
  server->start({1});

  queue.run_until(10.0);
  EXPECT_EQ(server->counters().resets, 0u);
  EXPECT_GT(server->counters().inconsistencies, 0u);
  EXPECT_GT(trace.count_events(0, sim::TraceEventKind::kInconsistent), 0u);
  EXPECT_TRUE(server->correct(queue.now()));
}

TEST_F(TimeServerTest, IMServerDerivesSmallerErrorFromTwoNeighbors) {
  // Two driftless neighbours whose intervals overlap asymmetrically around
  // true time: IM should derive an error smaller than either reply's.
  ServerSpec n1;
  n1.algo = core::SyncAlgorithm::kNone;
  n1.claimed_delta = 0.0;
  n1.initial_error = 0.5;
  auto s1 = make_server(1, n1, 0.0, /*offset=*/0.4);
  s1->start({});
  ServerSpec n2 = n1;
  auto s2 = make_server(2, n2, 0.0, /*offset=*/-0.4);
  s2->start({});

  ServerSpec spec;
  spec.algo = core::SyncAlgorithm::kIM;
  spec.claimed_delta = 0.0;
  spec.initial_error = 3.0;
  spec.poll_period = 1.0;
  auto server = make_server(0, spec);
  server->start({1, 2});

  queue.run_until(5.0);
  EXPECT_GT(server->counters().resets, 0u);
  // Intersection of [~-0.1, ~0.9] and [~-0.9, ~0.1] has radius ~0.1 plus
  // round-trip padding; definitely below 0.3.
  EXPECT_LT(server->current_error(queue.now()), 0.3);
  EXPECT_TRUE(server->correct(queue.now()));
}

TEST_F(TimeServerTest, ThirdServerRecoveryResetsFromPool) {
  // Server 0 polls only the liar (1); its recovery pool holds an honest
  // remote server (2).  With kThirdServer it must adopt the remote value.
  ServerSpec liar;
  liar.algo = core::SyncAlgorithm::kNone;
  liar.claimed_delta = 0.0;
  liar.initial_error = 0.0005;
  auto bad = make_server(1, liar, 0.0, /*offset=*/-30.0);
  bad->start({});

  ServerSpec honest;
  honest.algo = core::SyncAlgorithm::kNone;
  honest.claimed_delta = 0.0;
  honest.initial_error = 0.01;
  auto remote = make_server(2, honest);
  remote->start({});

  ServerSpec spec;
  spec.algo = core::SyncAlgorithm::kMM;
  spec.claimed_delta = 0.0;
  spec.initial_error = 0.05;
  spec.poll_period = 1.0;
  spec.recovery = RecoveryPolicy::kThirdServer;
  spec.recovery_pool = {2};
  auto server = make_server(0, spec, 0.0, /*offset=*/0.02);
  server->start({1});

  queue.run_until(10.0);
  EXPECT_GT(server->counters().recoveries, 0u);
  EXPECT_GT(trace.count_events(0, sim::TraceEventKind::kRecovery), 0u);
  EXPECT_LT(std::abs(server->true_offset(queue.now()).seconds()), 0.05);
}

TEST_F(TimeServerTest, JoinAndLeaveEventsTraced) {
  ServerSpec spec;
  spec.algo = core::SyncAlgorithm::kNone;
  auto server = make_server(0, spec);
  server->start({});
  server->stop();
  EXPECT_EQ(trace.count_events(0, sim::TraceEventKind::kJoin), 1u);
  EXPECT_EQ(trace.count_events(0, sim::TraceEventKind::kLeave), 1u);
}

TEST_F(TimeServerTest, AddNeighborStartsPollingIsolatedServer) {
  ServerSpec ref;
  ref.algo = core::SyncAlgorithm::kNone;
  ref.claimed_delta = 0.0;
  ref.initial_error = 0.001;
  auto reference = make_server(1, ref);
  reference->start({});

  ServerSpec spec;
  spec.algo = core::SyncAlgorithm::kMM;
  spec.initial_error = 1.0;
  spec.poll_period = 1.0;
  auto server = make_server(0, spec);
  server->start({});  // no neighbours: no polling
  queue.run_until(3.0);
  EXPECT_EQ(server->counters().rounds, 0u);

  server->add_neighbor(1);
  queue.run_until(8.0);
  EXPECT_GT(server->counters().rounds, 0u);
  EXPECT_GT(server->counters().resets, 0u);
}

TEST_F(TimeServerTest, ReplyFromUnpolledServerIsNotPaired) {
  // Server 0 polls server 1 only.  Node 1 never answers; instead, the
  // moment each request reaches it, node 2 sends server 0 a response that
  // carries the outstanding tag.  A reply pairs by (tag, sender), so none
  // of these is an answer to anything.
  ServerSpec spec;
  spec.algo = core::SyncAlgorithm::kMM;
  spec.initial_error = 0.5;
  spec.poll_period = 1.0;
  auto server = make_server(0, spec);
  network.register_node(1, [&](core::RealTime, const ServiceMessage& req) {
    ServiceMessage resp;
    resp.type = ServiceMessage::Type::kTimeResponse;
    resp.from = 2;
    resp.to = 0;
    resp.tag = req.tag;
    resp.c = core::ClockTime{queue.now().seconds()};
    resp.e = core::Duration{0.001};
    network.send(2, 0, resp);
  });
  server->start({1});
  queue.run_until(5.0);
  EXPECT_GT(server->counters().requests_sent, 0u);
  EXPECT_EQ(server->counters().replies_received, 0u);
  EXPECT_EQ(server->counters().resets, 0u);
}

TEST_F(TimeServerTest, StickyResetFaultLeavesClockWrong) {
  // The clock refuses resets after t=0; the server's bookkeeping believes
  // them.  The server can end up believing a too-small error: exactly the
  // paper's "refusing to change its value when reset" failure.
  ServerSpec ref;
  ref.algo = core::SyncAlgorithm::kNone;
  ref.claimed_delta = 0.0;
  ref.initial_error = 0.001;
  auto reference = make_server(1, ref);
  reference->start({});

  ServerSpec spec;
  spec.algo = core::SyncAlgorithm::kMM;
  spec.claimed_delta = 0.0;
  spec.initial_error = 0.5;
  spec.poll_period = 1.0;
  spec.fault = {ClockFaultKind::kStickyReset, 0.0, 0.0};
  auto clock = std::make_unique<core::FaultyClock>(
      std::make_unique<DriftingClock>(0.0, 0.3, 0.0), spec.fault);
  auto server = make_engine(0, std::move(clock), spec);
  server->start({1});

  queue.run_until(5.0);
  EXPECT_GT(server->counters().resets, 0u);   // believed resets
  EXPECT_NEAR(server->true_offset(queue.now()).seconds(), 0.3,
              1e-6);  // clock unmoved
}

}  // namespace
}  // namespace mtds::service
