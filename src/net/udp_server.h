// A real time server over UDP loopback: a thin shell composing the shared
// service::ProtocolEngine with runtime::UdpRuntime.
//
// The protocol logic - rule MM-1 responder, rule MM-2/IM-2 synchronization
// loop, adaptive polling, sample filtering, broadcast rounds, rate
// monitoring, third-server recovery - is service::ProtocolEngine, the exact
// code the simulator validates (service::TimeServer runs it over
// runtime::SimRuntime).  This shell only plumbs configuration: it builds
// the virtualized clock (a core::DriftingClock layered over CLOCK_MONOTONIC
// so drift and offset can be injected for demonstrations), maps peer ports
// to engine ServerIds, and exposes thread-safe introspection.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/serving_plane.h"
#include "runtime/fault_injector.h"
#include "runtime/udp_runtime.h"
#include "service/config.h"
#include "service/protocol_engine.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mtds::net {

// Monotonic host time in seconds since process-local epoch.
inline double host_seconds() noexcept { return runtime::host_seconds(); }

struct UdpServerConfig {
  std::uint32_t id = 0;
  double claimed_delta = 1e-4;   // delta_i the server reports with
  double simulated_drift = 0.0;  // injected actual drift of the virtual clock
  core::ErrorBound initial_error = 1e-3;  // epsilon at start
  core::Offset initial_offset{0.0};       // virtual clock offset at start

  core::SyncAlgorithm algo = core::SyncAlgorithm::kMM;
  // tau between sync rounds; 0 = respond only.
  core::Duration poll_period = 0.05;
  core::Duration reply_timeout = 0.02;  // wait for replies in a round
  std::uint16_t port = 0;        // 0 = ephemeral

  // Third-server recovery (Section 3): ports of servers on "another
  // network" to reset from unconditionally when the sync round finds this
  // server inconsistent with its peers.  Empty = ignore inconsistency.
  std::vector<std::uint16_t> recovery_ports;

  // Engine extensions, shared with the simulated ServerSpec (the runtime
  // refactor makes these available over UDP for free).
  service::ServerSpec::AdaptivePoll adaptive;  // adaptive polling
  bool use_sample_filter = false;              // ntpd-style clock filter
  bool use_broadcast = false;                  // one-tag broadcast rounds
  bool monitor_rates = false;                  // Section 5 rate monitor

  // Chaos plane: when chaos.active() the UDP runtime is wrapped in a
  // runtime::FaultInjector (loss, duplication, delay spikes, corruption,
  // partitions, crash-stop) - the same decorator the simulator uses.
  runtime::FaultPlan chaos;
  // Peer-health / graceful-degradation policy (see service/peer_health.h).
  service::PeerHealthPolicy health;

  // Client serving plane (net/serving_plane.h): 0 = no client port.  With
  // client_threads > 0 the server also answers ClientTimeRequest datagrams
  // on client_port (0 = ephemeral) from the engine's published snapshot -
  // lock-free and allocation-free, off the sync plane entirely.
  std::uint32_t client_threads = 0;
  std::uint16_t client_port = 0;
  std::size_t client_batch = 64;       // datagrams per shard batch
};

class UdpTimeServer {
 public:
  explicit UdpTimeServer(UdpServerConfig config);
  ~UdpTimeServer();

  UdpTimeServer(const UdpTimeServer&) = delete;
  UdpTimeServer& operator=(const UdpTimeServer&) = delete;

  std::uint16_t port() const noexcept { return runtime_->port(); }
  std::uint32_t id() const noexcept { return config_.id; }

  // Peers (by loopback port) polled by the sync loop.  Set before start().
  void set_peers(std::vector<std::uint16_t> peers);

  void start();
  void stop();
  bool running() const noexcept { return running_.load(); }

  // Introspection (thread-safe).
  core::ClockTime read_clock() const;    // C_i now (virtual seconds)
  core::Duration current_error() const;  // E_i now
  core::Offset true_offset() const;      // C_i - host time (ground truth)
  // Current tau (moves under adaptive polling).
  core::Duration poll_period() const;
  service::ServerCounters counters() const;  // snapshot of engine counters
  std::uint64_t resets() const { return counters().resets; }
  std::uint64_t recoveries() const { return counters().recoveries; }
  std::uint64_t requests_served() const { return counters().responses_sent; }

  // Engine-side id of the k-th configured peer port (for peer_state()).
  static core::ServerId peer_engine_id(std::size_t k) noexcept;

  // Peer-health introspection (kHealthy / false when the layer is off).
  service::PeerState peer_state(core::ServerId peer) const;
  bool degraded() const;

  // Chaos plane (null unless config.chaos.active()).  Control calls
  // (set_crashed, partition) are thread-safe.
  runtime::FaultInjector* fault_injector() noexcept { return chaos_.get(); }
  runtime::FaultStats fault_stats() const;
  void set_crashed(bool crashed);

  // Client serving plane introspection (all valid only with
  // config.client_threads > 0; client_port() is 0 otherwise).
  std::uint16_t client_port() const noexcept;
  std::uint64_t client_queries_served() const noexcept;

 private:
  UdpServerConfig config_;
  std::vector<std::uint16_t> peer_ports_;
  std::unique_ptr<runtime::UdpRuntime> runtime_;
  // The runtime's serialization mutex, bound once at construction so the
  // engine/injector pointees below can be declared PT_GUARDED_BY it and
  // every introspection method is statically checked to lock it.
  util::Mutex& state_mu_;
  // Null unless chaos.active().  The injector itself is unsynchronized by
  // design - it lives entirely inside the runtime's serialization domain -
  // so its pointee may only be touched under state_mu_ (the locked wrappers
  // below; the bare pointer from fault_injector() may be read freely).
  std::unique_ptr<runtime::FaultInjector> chaos_ PT_GUARDED_BY(state_mu_);
  std::unique_ptr<service::ProtocolEngine> engine_ PT_GUARDED_BY(state_mu_);
  // Client serving plane (null unless config.client_threads > 0).  Not
  // guarded: its own API is thread-safe (the engine writes through the
  // SnapshotSink seam under state_mu_; shard readers are lock-free).
  std::unique_ptr<ServingPlane> serving_;
  // mtds:lock-free(run flag: start()/stop() handshake with the receiver
  // loop; no data is published through it - closing the socket is what
  // actually unblocks the receiver)
  std::atomic<bool> running_{false};
  bool stopped_ = false;  // shutdown is one-way (the socket is closed)
};

}  // namespace mtds::net
