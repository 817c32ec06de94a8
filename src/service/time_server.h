// A simulated time server: a thin shell composing the shared ProtocolEngine
// with the discrete-event runtime (runtime::SimRuntime).  The engine records
// its lifecycle events straight into the simulation trace.
//
// All protocol behavior - the rule MM-1/IM-1 responder, the rule MM-2/IM-2
// synchronization loop, adaptive polling, sample filtering, broadcast
// rounds, rate monitoring and third-server recovery - lives in
// service::ProtocolEngine (protocol_engine.h); the UDP daemon runs exactly
// the same engine over runtime::UdpRuntime.
#pragma once

#include <memory>
#include <vector>

#include "core/clock.h"
#include "runtime/fault_injector.h"
#include "runtime/sim_runtime.h"
#include "service/config.h"
#include "service/message.h"
#include "service/protocol_engine.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/trace.h"

namespace mtds::service {

using ServiceNetwork = runtime::SimServiceNetwork;

class TimeServer {
 public:
  // The server owns its clock; queue/network/trace are borrowed from the
  // enclosing service and must outlive it.  `trace` may be null.
  TimeServer(ServerId id, std::unique_ptr<core::Clock> clock,
             const ServerSpec& spec, sim::EventQueue& queue,
             ServiceNetwork& network, sim::Trace* trace, sim::Rng rng);

  TimeServer(const TimeServer&) = delete;
  TimeServer& operator=(const TimeServer&) = delete;

  // Registers with the network and schedules the first poll round.
  void start(const std::vector<ServerId>& neighbors) {
    engine_.start(neighbors);
  }

  // Leaves the service: unregisters from the network and stops polling.
  void stop() { engine_.stop(); }

  void add_neighbor(ServerId peer) { engine_.add_neighbor(peer); }
  void remove_neighbor(ServerId peer) { engine_.remove_neighbor(peer); }
  bool running() const noexcept { return engine_.running(); }

  ServerId id() const noexcept { return engine_.id(); }
  const ServerSpec& spec() const noexcept { return engine_.spec(); }
  const ServerCounters& counters() const noexcept { return engine_.counters(); }
  const std::vector<ServerId>& neighbors() const noexcept {
    return engine_.neighbors();
  }

  // The poll period currently in effect (== spec().poll_period unless
  // adaptive polling has moved it).
  Duration current_poll_period() const noexcept {
    return engine_.current_poll_period();
  }

  // Current clock reading / reported maximum error (rule MM-1).
  core::ClockTime read_clock(RealTime t) { return engine_.read_clock(t); }
  core::Duration current_error(RealTime t) { return engine_.current_error(t); }

  // Offset from true time; positive means the clock is fast.  (Simulator
  // ground truth - a real server cannot compute this.)
  core::Offset true_offset(RealTime t) { return engine_.true_offset(t); }

  // Whether the interval currently contains true time.
  bool correct(RealTime t) { return engine_.correct(t); }

  // Message entry point (installed as the network handler by start()).
  void handle(RealTime t, const ServiceMessage& msg) { engine_.handle(t, msg); }

  // Per-peer state, including the Section 5 rate queries (their column is
  // present only when spec.monitor_rates is set).
  PeerTable& peers() noexcept { return engine_.peers(); }
  const PeerTable& peers() const noexcept { return engine_.peers(); }

  // Chaos plane; non-null only when spec.chaos.active().
  runtime::FaultInjector* fault_injector() noexcept { return chaos_.get(); }
  const runtime::FaultInjector* fault_injector() const noexcept {
    return chaos_.get();
  }

  // Corrupt-state fault: routed through the chaos plane when one is armed
  // (its ledger and nonce stream account the fault), straight into the
  // engine otherwise.
  void corrupt_state() {
    if (chaos_ != nullptr) {
      chaos_->corrupt_state();
    } else {
      engine_.corrupt_state();
    }
  }

  // Peer-health passthroughs (kHealthy / false when the layer is off).
  PeerState peer_state(ServerId peer) const { return engine_.peer_state(peer); }
  bool degraded() const noexcept { return engine_.degraded(); }

  ProtocolEngine& engine() noexcept { return engine_; }

 private:
  runtime::SimRuntime runtime_;
  std::unique_ptr<runtime::FaultInjector> chaos_;  // null unless chaos.active()
  ProtocolEngine engine_;
};

}  // namespace mtds::service
