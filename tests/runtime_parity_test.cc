// Runtime parity: the same ProtocolEngine scenarios through both runtimes.
//
// A simulated server is a service::ProtocolEngine over runtime::SimRuntime
// (discrete-event); net::UdpTimeServer is a thin shell around the same
// engine over runtime::UdpRuntime (loopback sockets + threads).  These
// tests run the same 3-server MM-with-recovery scenario and the same IM
// scenario through both runtimes and assert that both paths converge and
// exercise every ServerCounters field - so a protocol feature that
// regresses on one path but not the other fails here.  The chaos scenarios
// run the engine's runtime::FaultInjector decorator over both.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "net/udp_client.h"
#include "net/udp_server.h"
#include "runtime/adversary.h"
#include "runtime/sim_runtime.h"
#include "service/protocol_engine.h"
#include "service/time_service.h"
#include "sim/delay_model.h"

namespace mtds {
namespace {

using core::ServerId;

struct ScenarioResult {
  service::ServerCounters learner;   // the synchronizing server's counters
  double true_offset = 0.0;          // learner C - real time at the end
  double error = 0.0;                // learner E at the end
  std::uint64_t responder_responses = 0;  // replies served by the responders
};

// One simulated bed: an event queue, a fixed-delay network, a trace and
// one runtime per server.  Declared before the engines a test holds, so
// each runtime outlives its engine's final stop().
struct SimBed {
  explicit SimBed(std::uint64_t seed) : rng(seed) {}

  // Server `id` built from `spec`, its clock starting `offset` s off.
  std::unique_ptr<service::ProtocolEngine> make(ServerId id,
                                                service::ServerSpec spec,
                                                double offset) {
    spec.initial_offset = core::Offset{offset};
    runtimes.push_back(std::make_unique<runtime::SimRuntime>(queue, network));
    return std::make_unique<service::ProtocolEngine>(
        id, service::make_clock(spec, queue.now()), spec, *runtimes.back(),
        &trace, rng.fork());
  }

  sim::EventQueue queue;
  sim::Rng rng;
  sim::FixedDelay delay{0.01};
  service::ServiceNetwork network{queue, delay, rng};
  sim::Trace trace;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
};

void expect_all_counters_populated(const service::ServerCounters& c) {
  EXPECT_GT(c.rounds, 0u);
  EXPECT_GT(c.requests_sent, 0u);
  EXPECT_GT(c.replies_received, 0u);
  EXPECT_GT(c.responses_sent, 0u);
  EXPECT_GT(c.resets, 0u);
  EXPECT_GT(c.inconsistencies, 0u);
  EXPECT_GT(c.recoveries, 0u);
}

// --- MM + third-server recovery ------------------------------------------
//
// Learner (MM) polls a confidently wrong liar, so every round records an
// inconsistency; its recovery pool holds an honest server on "another
// network", so recovery resets pull it to true time.  A client probe makes
// the learner serve a rule MM-1 reply.  One scenario populates every
// ServerCounters field.

ScenarioResult run_mm_recovery_sim() {
  SimBed bed{11};

  service::ServerSpec liar;
  liar.algo = core::SyncAlgorithm::kNone;
  liar.claimed_delta = 0.0;
  liar.initial_error = 0.0005;
  auto bad = bed.make(1, liar, /*offset=*/-30.0);
  bad->start({});

  service::ServerSpec honest;
  honest.algo = core::SyncAlgorithm::kNone;
  honest.claimed_delta = 0.0;
  honest.initial_error = 0.001;
  auto remote = bed.make(2, honest, /*offset=*/0.0);
  remote->start({});

  service::ServerSpec spec;
  spec.algo = core::SyncAlgorithm::kMM;
  spec.claimed_delta = 0.0;
  spec.initial_error = 0.05;
  spec.poll_period = 1.0;
  spec.recovery = service::RecoveryPolicy::kThirdServer;
  spec.recovery_pool = {2};
  auto learner = bed.make(0, spec, /*offset=*/0.02);
  learner->start({1});

  bed.queue.run_until(10.0);

  // Client probe: the learner must answer with its (recovered) pair.
  const ServerId probe_id = 1000;
  std::uint64_t probe_replies = 0;
  bed.network.register_node(
      probe_id, [&](core::RealTime, const service::ServiceMessage&) {
        ++probe_replies;
      });
  service::ServiceMessage req;
  req.type = service::ServiceMessage::Type::kTimeRequest;
  req.from = probe_id;
  req.to = 0;
  req.tag = 777;
  bed.network.send(probe_id, 0, req);
  bed.queue.run_until(bed.queue.now() + 1.0);
  EXPECT_EQ(probe_replies, 1u);

  ScenarioResult r;
  r.learner = learner->counters();
  r.true_offset = learner->true_offset(bed.queue.now()).seconds();
  r.error = learner->current_error(bed.queue.now()).seconds();
  r.responder_responses = bad->counters().responses_sent +
                          remote->counters().responses_sent;
  return r;
}

ScenarioResult run_mm_recovery_udp() {
  net::UdpServerConfig liar;
  liar.id = 1;
  liar.claimed_delta = 1e-6;
  liar.initial_error = 0.0005;
  liar.initial_offset = core::Offset{-5.0};  // wildly wrong, tiny claimed error
  liar.algo = core::SyncAlgorithm::kNone;
  net::UdpTimeServer bad(liar);
  bad.start();

  net::UdpServerConfig honest;
  honest.id = 2;
  honest.claimed_delta = 1e-6;
  honest.initial_error = 0.0005;
  honest.algo = core::SyncAlgorithm::kNone;
  net::UdpTimeServer remote(honest);
  remote.start();

  net::UdpServerConfig cfg;
  cfg.id = 0;
  cfg.claimed_delta = 1e-4;
  cfg.initial_error = 0.01;
  cfg.initial_offset = core::Offset{0.05};
  cfg.algo = core::SyncAlgorithm::kMM;
  cfg.poll_period = 0.02;
  cfg.reply_timeout = 0.01;
  cfg.recovery_ports = {remote.port()};
  net::UdpTimeServer learner(cfg);
  learner.set_peers({bad.port()});
  learner.start();

  for (int i = 0; i < 200 && learner.counters().recoveries == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  net::UdpTimeClient client;
  const auto readings = client.collect({learner.port()}, 0.5);
  EXPECT_EQ(readings.size(), 1u);

  ScenarioResult r;
  r.learner = learner.counters();
  r.true_offset = learner.true_offset().seconds();
  r.error = learner.current_error().seconds();
  r.responder_responses =
      bad.requests_served() + remote.requests_served();
  learner.stop();
  bad.stop();
  remote.stop();
  return r;
}

TEST(RuntimeParity, MMRecoveryScenarioMatchesAcrossRuntimes) {
  const auto sim = run_mm_recovery_sim();
  {
    SCOPED_TRACE("SimRuntime");
    expect_all_counters_populated(sim.learner);
    EXPECT_LT(std::abs(sim.true_offset), 0.05);
    EXPECT_LT(sim.error, 0.2);
    EXPECT_GT(sim.responder_responses, 0u);
  }
  const auto udp = run_mm_recovery_udp();
  {
    SCOPED_TRACE("UdpRuntime");
    expect_all_counters_populated(udp.learner);
    EXPECT_LT(std::abs(udp.true_offset), 0.05);
    EXPECT_LT(udp.error, 0.2);
    EXPECT_GT(udp.responder_responses, 0u);
  }
}

// --- IM against two staggered responders ---------------------------------
//
// The learner (IM) polls two honest responders whose intervals straddle
// true time; intersecting them must shrink its error below its start value
// on both runtimes.

ScenarioResult run_im_sim() {
  SimBed bed{23};

  service::ServerSpec responder;
  responder.algo = core::SyncAlgorithm::kNone;
  responder.claimed_delta = 0.0;
  responder.initial_error = 0.5;
  auto s1 = bed.make(1, responder, /*offset=*/0.4);
  s1->start({});
  auto s2 = bed.make(2, responder, /*offset=*/-0.4);
  s2->start({});

  service::ServerSpec spec;
  spec.algo = core::SyncAlgorithm::kIM;
  spec.claimed_delta = 0.0;
  spec.initial_error = 3.0;
  spec.poll_period = 1.0;
  auto learner = bed.make(0, spec, /*offset=*/0.0);
  learner->start({1, 2});

  bed.queue.run_until(5.0);

  ScenarioResult r;
  r.learner = learner->counters();
  r.true_offset = learner->true_offset(bed.queue.now()).seconds();
  r.error = learner->current_error(bed.queue.now()).seconds();
  r.responder_responses = s1->counters().responses_sent +
                          s2->counters().responses_sent;
  return r;
}

ScenarioResult run_im_udp() {
  net::UdpServerConfig a;
  a.id = 1;
  a.claimed_delta = 1e-5;
  a.initial_error = 0.003;
  a.initial_offset = core::Offset{0.002};
  a.algo = core::SyncAlgorithm::kNone;
  net::UdpTimeServer sa(a);
  sa.start();

  net::UdpServerConfig b = a;
  b.id = 2;
  b.initial_offset = core::Offset{-0.002};
  net::UdpTimeServer sb(b);
  sb.start();

  net::UdpServerConfig im;
  im.id = 0;
  im.claimed_delta = 1e-4;
  im.initial_error = 0.25;
  im.algo = core::SyncAlgorithm::kIM;
  im.poll_period = 0.02;
  im.reply_timeout = 0.01;
  net::UdpTimeServer learner(im);
  learner.set_peers({sa.port(), sb.port()});
  learner.start();

  for (int i = 0; i < 100 && learner.resets() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  ScenarioResult r;
  r.learner = learner.counters();
  r.true_offset = learner.true_offset().seconds();
  r.error = learner.current_error().seconds();
  r.responder_responses = sa.requests_served() + sb.requests_served();
  learner.stop();
  sa.stop();
  sb.stop();
  return r;
}

// IM populates the sync-loop counters; recovery/inconsistency stay zero in
// an all-honest scenario, so only the loop fields are asserted here.
void expect_sync_counters_populated(const ScenarioResult& r,
                                    double error_before, double error_bound) {
  EXPECT_GT(r.learner.rounds, 0u);
  EXPECT_GT(r.learner.requests_sent, 0u);
  EXPECT_GT(r.learner.replies_received, 0u);
  EXPECT_GT(r.learner.resets, 0u);
  EXPECT_GT(r.responder_responses, 0u);
  EXPECT_LT(r.error, error_before);
  EXPECT_LT(r.error, error_bound);
  EXPECT_LE(std::abs(r.true_offset), r.error + 1e-9);
}

TEST(RuntimeParity, IMScenarioConvergesOnBothRuntimes) {
  const auto sim = run_im_sim();
  {
    SCOPED_TRACE("SimRuntime");
    expect_sync_counters_populated(sim, /*error_before=*/3.0,
                                   /*error_bound=*/0.3);
  }
  const auto udp = run_im_udp();
  {
    SCOPED_TRACE("UdpRuntime");
    expect_sync_counters_populated(udp, /*error_before=*/0.25,
                                   /*error_bound=*/0.05);
  }
}

// --- Resets land at the time they were computed for ----------------------
//
// Over UDP, now() is host time, so every read inside one handler returns a
// later time than the one before, and a preempted round close reads it
// milliseconds later (2.9 ms in a perfbench serve-udp run on a loaded 4-vCPU
// KVM guest, which then served intervals missing true time).  LaggingRuntime models that in
// the simulator: within one event, each now() read is `step` later than the
// one before.  A reset computed from the state at one read and applied at a
// later read would leave the clock behind by the gap, outside its own error
// bound; the engine must set the clock for the time it computed the reset at.

class LaggingRuntime final : public runtime::Runtime {
 public:
  LaggingRuntime(runtime::Runtime& inner, core::Duration step)
      : inner_(&inner), step_(step) {}

  void open(ServerId self, Handler handler) override {
    inner_->open(self, std::move(handler));
  }
  void close() override { inner_->close(); }
  void send(ServerId to, const service::ServiceMessage& msg) override {
    inner_->send(to, msg);
  }
  core::Duration max_one_way_delay() const override {
    return inner_->max_one_way_delay();
  }
  runtime::TimerId after(core::Duration delay,
                         std::function<void()> cb) override {
    return inner_->after(delay, std::move(cb));
  }
  bool cancel(runtime::TimerId id) override { return inner_->cancel(id); }
  core::RealTime now() override {
    const core::RealTime t = inner_->now();
    if (t != event_) {
      event_ = t;
      reads_ = 0;
    }
    return t + static_cast<double>(reads_++) * step_;
  }

 private:
  runtime::Runtime* inner_;
  core::Duration step_;
  core::RealTime event_{-1.0};
  int reads_ = 0;
};

TEST(RuntimeParity, ResetsLandAtTheTimeTheyWereComputedFor) {
  for (const auto algo : {core::SyncAlgorithm::kIM, core::SyncAlgorithm::kMM}) {
    SCOPED_TRACE(std::string(core::to_string(algo)));
    SimBed bed{53};
    service::ServerSpec responder;
    responder.algo = core::SyncAlgorithm::kNone;
    responder.claimed_delta = 0.0;
    responder.initial_error = 0.001;
    auto s1 = bed.make(1, responder, /*offset=*/0.0);
    s1->start({});
    auto s2 = bed.make(2, responder, /*offset=*/0.0);
    s2->start({});

    // The learner's handlers "run" 50 ms per now() read: far more than the
    // ~20 ms error bound its resets land with, so a reset applied one read
    // late leaves it outside that bound.
    service::ServerSpec spec;
    spec.algo = algo;
    spec.claimed_delta = 0.0;
    spec.initial_error = 0.5;
    spec.initial_offset = core::Offset{0.2};
    spec.poll_period = 1.0;
    runtime::SimRuntime inner(bed.queue, bed.network);
    LaggingRuntime lagging(inner, core::Duration{0.05});
    auto learner = std::make_unique<service::ProtocolEngine>(
        0, service::make_clock(spec, bed.queue.now()), spec, lagging,
        &bed.trace, bed.rng.fork());
    learner->start({1, 2});

    bed.queue.run_until(10.0);
    EXPECT_GT(learner->counters().resets, 0u);
    EXPECT_LT(learner->current_error(bed.queue.now()).seconds(), 0.05);
    EXPECT_TRUE(learner->correct(bed.queue.now()))
        << "offset " << learner->true_offset(bed.queue.now()).seconds()
        << " error " << learner->current_error(bed.queue.now()).seconds();
  }
}

// --- Engine extensions over UDP ------------------------------------------
//
// Adaptive polling, the sample filter and the rate monitor used to be
// sim-only.  The shared engine makes them available to the daemon; this
// exercises them end-to-end over real sockets.

// --- Chaos plane on both runtimes ----------------------------------------
//
// The same learner scenario wrapped in a runtime::FaultInjector: duplicated
// replies must not double-count (the first copy pairs and erases the
// pending entry; the second is stale) and delay spikes must not break
// convergence.  Runs on both runtimes since the decorator claims to be
// runtime-agnostic.

TEST(RuntimeParity, ChaosWrappedLearnerConvergesInSim) {
  SimBed bed{31};

  service::ServerSpec responder;
  responder.algo = core::SyncAlgorithm::kNone;
  responder.claimed_delta = 0.0;
  responder.initial_error = 0.001;
  auto ref = bed.make(1, responder, /*offset=*/0.0);
  ref->start({});

  service::ServerSpec spec;
  spec.algo = core::SyncAlgorithm::kMM;
  spec.claimed_delta = 0.0;
  spec.initial_error = 0.5;
  spec.poll_period = 1.0;
  spec.chaos.drop = 0.1;
  spec.chaos.duplicate = 0.4;
  spec.chaos.delay = 0.3;
  spec.chaos.delay_hi = 0.05;
  spec.chaos.seed = 71;
  auto learner = bed.make(0, spec, /*offset=*/0.02);
  learner->start({1});

  bed.queue.run_until(30.0);

  const auto& c = learner->counters();
  EXPECT_GT(c.rounds, 0u);
  EXPECT_GT(c.resets, 0u);
  // Duplicate/stale copies never pair twice.
  EXPECT_LE(c.replies_received, c.requests_sent);
  EXPECT_LT(std::abs(learner->true_offset(bed.queue.now()).seconds()), 0.05);
  EXPECT_TRUE(learner->correct(bed.queue.now()));

  const auto stats = learner->fault_injector()->stats();
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.delayed, 0u);
  EXPECT_GT(stats.dropped_loss, 0u);
}

TEST(RuntimeParity, ChaosWrappedLearnerConvergesOverUdp) {
  net::UdpServerConfig ref;
  ref.id = 1;
  ref.claimed_delta = 1e-6;
  ref.initial_error = 0.0005;
  ref.algo = core::SyncAlgorithm::kNone;
  net::UdpTimeServer reference(ref);
  reference.start();

  net::UdpServerConfig cfg;
  cfg.id = 0;
  cfg.claimed_delta = 1e-4;
  cfg.initial_error = 0.25;
  cfg.initial_offset = core::Offset{0.01};
  cfg.algo = core::SyncAlgorithm::kMM;
  cfg.poll_period = 0.02;
  cfg.reply_timeout = 0.01;
  cfg.chaos.drop = 0.1;
  cfg.chaos.duplicate = 0.4;
  cfg.chaos.delay = 0.3;
  cfg.chaos.delay_hi = 0.003;
  cfg.chaos.seed = 71;
  net::UdpTimeServer learner(cfg);
  learner.set_peers({reference.port()});
  learner.start();

  for (int i = 0; i < 200 && learner.resets() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const auto c = learner.counters();
  EXPECT_GT(c.rounds, 0u);
  EXPECT_GT(c.resets, 0u);
  EXPECT_LE(c.replies_received, c.requests_sent);
  EXPECT_LT(std::abs(learner.true_offset().seconds()), 0.05);

  const auto stats = learner.fault_stats();
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.delayed, 0u);
  EXPECT_GT(stats.dropped_loss, 0u);

  learner.stop();
  reference.stop();
}

// --- Byzantine plane on both runtimes ------------------------------------
//
// A DriftAmplifier adversary controls the responder's network stack: the
// first reply is honest (the lie's epoch), every later reply runs away at
// 0.5 s/s while claiming a 1 ms bound.  The cross-round equivocation
// detector must convict on the second reading on BOTH runtimes - the
// advance between readings is impossible under the declared drift bound -
// and quarantine on the spot, so the learner keeps its honest clock.

TEST(RuntimeParity, ByzantineResponderConvictedInSim) {
  SimBed bed{41};

  service::ServerSpec responder;
  responder.algo = core::SyncAlgorithm::kNone;
  responder.claimed_delta = 0.0;
  responder.initial_error = 0.001;
  responder.chaos.adversary =
      std::make_shared<runtime::DriftAmplifier>(0.5, 0.001);
  auto liar = bed.make(1, responder, /*offset=*/0.0);
  liar->start({});

  service::ServerSpec spec;
  spec.algo = core::SyncAlgorithm::kMM;
  spec.claimed_delta = 1e-5;
  spec.initial_error = 0.05;
  spec.poll_period = 1.0;
  spec.health.enabled = true;
  spec.health.quarantine_after = 1;
  auto learner = bed.make(0, spec, /*offset=*/0.0);
  learner->start({1});

  bed.queue.run_until(20.0);

  EXPECT_GT(liar->fault_injector()->stats().forged, 0u);
  const auto& c = learner->counters();
  EXPECT_GE(c.byzantine_suspects, 1u);
  EXPECT_EQ(learner->peer_state(1), service::PeerState::kQuarantined);
  EXPECT_GT(c.polls_suppressed, 0u);  // quarantined = not polled again
  EXPECT_TRUE(learner->correct(bed.queue.now()));
  EXPECT_GT(bed.trace.count_events(sim::TraceEventKind::kByzantineSuspect), 0u);
}

TEST(RuntimeParity, ByzantineResponderConvictedOverUdp) {
  net::UdpServerConfig ref;
  ref.id = 1;
  ref.claimed_delta = 1e-6;
  ref.initial_error = 0.0005;
  ref.algo = core::SyncAlgorithm::kNone;
  ref.chaos.adversary = std::make_shared<runtime::DriftAmplifier>(1.0, 0.0005);
  net::UdpTimeServer liar(ref);
  liar.start();

  net::UdpServerConfig cfg;
  cfg.id = 0;
  cfg.claimed_delta = 1e-4;
  cfg.initial_error = 0.01;
  cfg.algo = core::SyncAlgorithm::kMM;
  cfg.poll_period = 0.02;
  cfg.reply_timeout = 0.01;
  cfg.health.enabled = true;
  cfg.health.quarantine_after = 1;
  net::UdpTimeServer learner(cfg);
  learner.set_peers({liar.port()});
  learner.start();

  const ServerId liar_id = net::UdpTimeServer::peer_engine_id(0);
  for (int i = 0;
       i < 300 && learner.peer_state(liar_id) != service::PeerState::kQuarantined;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  EXPECT_GT(liar.fault_stats().forged, 0u);
  EXPECT_GE(learner.counters().byzantine_suspects, 1u);
  EXPECT_EQ(learner.peer_state(liar_id), service::PeerState::kQuarantined);
  EXPECT_LE(std::abs(learner.true_offset().seconds()),
            learner.current_error().seconds() + 1e-9);

  learner.stop();
  liar.stop();
}

TEST(RuntimeParity, EngineExtensionsRunOverUdp) {
  net::UdpServerConfig ref;
  ref.id = 1;
  ref.claimed_delta = 1e-5;
  ref.initial_error = 0.0005;
  ref.algo = core::SyncAlgorithm::kNone;
  net::UdpTimeServer reference(ref);
  reference.start();

  net::UdpServerConfig cfg;
  cfg.id = 0;
  cfg.claimed_delta = 1e-4;
  cfg.initial_error = 0.5;
  cfg.initial_offset = core::Offset{0.02};
  cfg.algo = core::SyncAlgorithm::kMM;
  cfg.poll_period = 0.04;
  cfg.reply_timeout = 0.01;
  cfg.use_sample_filter = true;
  cfg.monitor_rates = true;
  cfg.adaptive.enabled = true;
  cfg.adaptive.error_target = 0.05;
  cfg.adaptive.min_period = 0.01;
  cfg.adaptive.max_period = 0.32;
  net::UdpTimeServer learner(cfg);
  learner.set_peers({reference.port()});
  learner.start();

  for (int i = 0; i < 150 && learner.resets() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(learner.resets(), 0u);
  EXPECT_LT(std::abs(learner.true_offset().seconds()), 0.01);
  // Adaptive polling reacted: the starting error (0.5) exceeds the target,
  // so the period must have moved off its configured starting value.
  EXPECT_NE(learner.poll_period(), cfg.poll_period);
  learner.stop();
  reference.stop();
}

}  // namespace
}  // namespace mtds
