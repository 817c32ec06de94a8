// A real time server over UDP loopback: a thin shell composing the shared
// service::ProtocolEngine with runtime::UdpRuntime.
//
// The protocol logic - rule MM-1 responder, rule MM-2/IM-2 synchronization
// loop, adaptive polling, sample filtering, rate monitoring, third-server
// recovery - is service::ProtocolEngine, the exact
// code the simulator validates (service::TimeService runs it over
// runtime::SimRuntime).  This shell only plumbs configuration: it builds
// the virtualized clock with service::make_clock at host time (so drift,
// offset and clock faults can be injected for demonstrations), maps peer
// ports to engine ServerIds, and exposes thread-safe introspection.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/serving_plane.h"
#include "runtime/udp_runtime.h"
#include "service/config.h"
#include "service/protocol_engine.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mtds::net {

// Monotonic host time in seconds since process-local epoch.
inline double host_seconds() noexcept { return runtime::host_seconds(); }

// A server's full description: the service::ServerSpec both planes share
// (algorithm, claimed delta, simulated drift, initial error and offset,
// tau, engine extensions, peer health, chaos plan) plus the settings only a
// deployment has.  The engine receives this as its ServerSpec, with one
// exception: over UDP, `recovery` and `recovery_pool` are derived from
// `recovery_ports` (third-server recovery is on iff it is non-empty), so
// values set on those two fields are overwritten.  poll_period = 0 makes
// the server respond only: it polls none of its peers.
struct UdpServerConfig : service::ServerSpec {
  std::uint32_t id = 0;
  std::uint16_t port = 0;               // 0 = ephemeral
  core::Duration reply_timeout = 0.02;  // wait for replies in a round

  // Third-server recovery (Section 3): ports of servers on "another
  // network" to reset from unconditionally when the sync round finds this
  // server inconsistent with its peers.  Empty = ignore inconsistency.
  std::vector<std::uint16_t> recovery_ports;

  // Client serving plane (net/serving_plane.h): 0 = no client port.  With
  // client_threads > 0 the server also answers ClientTimeRequest datagrams
  // on client_port (0 = ephemeral) from the engine's published snapshot -
  // lock-free and allocation-free, off the sync plane entirely.
  std::uint32_t client_threads = 0;
  std::uint16_t client_port = 0;
  std::size_t client_batch = 64;  // datagrams per shard batch
};

class UdpTimeServer {
 public:
  explicit UdpTimeServer(UdpServerConfig config);
  ~UdpTimeServer();

  UdpTimeServer(const UdpTimeServer&) = delete;
  UdpTimeServer& operator=(const UdpTimeServer&) = delete;

  std::uint16_t port() const noexcept { return runtime_->port(); }

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
  std::uint64_t requests_served() const { return counters().responses_sent; }

  // Engine-side id of the k-th configured peer port (for peer_state()).
  // mtds:test-api(UDP tests name a peer to peer_state() with it)
  static core::ServerId peer_engine_id(std::size_t k) noexcept;

  // Source addresses the runtime remembers (its configured peers).
  // mtds:test-api(udp_test checks that answering clients leaves no address behind)
  std::size_t known_addresses() const { return runtime_->known_addresses(); }

  // Peer-health introspection (kHealthy / false when the layer is off).
  service::PeerState peer_state(core::ServerId peer) const;
  bool degraded() const;

  // Chaos plane (a no-op unless config.chaos.active()); thread-safe.
  runtime::FaultStats fault_stats() const;
  // mtds:test-api(chaos_soak_test crash-stops and restarts a UDP server)
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
  // engine pointee below can be declared PT_GUARDED_BY it and every
  // introspection method is statically checked to lock it.  The engine's
  // fault injector is unsynchronized by design - it lives entirely inside
  // the runtime's serialization domain - so it is only reached under it.
  util::Mutex& state_mu_;
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
