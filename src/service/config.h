// Configuration vocabulary for simulated time services.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/clock.h"
#include "core/sync_function.h"
#include "core/time_types.h"
#include "runtime/fault_injector.h"
#include "service/peer_table.h"

namespace mtds::service {

using core::ClockFault;
using core::Duration;
using core::RealTime;
using core::ServerId;
using core::SyncAlgorithm;

// What a server does when it detects inconsistency (Section 3).
enum class RecoveryPolicy : std::uint8_t {
  kIgnore,       // MM's default: drop the reply, keep going
  kThirdServer,  // reset unconditionally to the value of any third server
};

// Per-server scenario parameters.
struct ServerSpec {
  SyncAlgorithm algo = SyncAlgorithm::kMM;

  // Claimed bound delta_i the server *believes* (drives its error report).
  double claimed_delta = 1e-5;

  // Actual constant drift of the (simulated or virtualized) hardware clock;
  // exceeds claimed_delta in invalid-bound experiments.
  double simulated_drift = 0.0;

  core::ErrorBound initial_error = 0.01;  // epsilon at t = 0
  core::Offset initial_offset{0.0};       // C(0) - 0

  Duration poll_period = 10.0;     // tau, measured on the server's own clock

  // Adaptive polling (extension): instead of a fixed tau, the server halves
  // its period while its error exceeds `error_target` and doubles it while
  // the error sits below half the target - trading messages for error only
  // when needed.  poll_period is the starting period.
  struct AdaptivePoll {
    bool enabled = false;
    Duration min_period = 1.0;
    Duration max_period = 120.0;
    Duration error_target = 0.05;
  };
  AdaptivePoll adaptive;
  ClockFault fault{};              // optional injected failure
  RecoveryPolicy recovery = RecoveryPolicy::kIgnore;

  // Section 5: maintain per-neighbour rate estimators (consonance).  The
  // monitor is passive - it diagnoses invalid drift bounds; it does not
  // change synchronization decisions.
  bool monitor_rates = false;

  // ntpd-style clock filter: serve each synchronization round the
  // minimum-round-trip sample per neighbour from a sliding window instead
  // of the latest reply (the filter column of service/peer_table.h).
  bool use_sample_filter = false;

  // Servers this one may consult for third-server recovery but does not
  // poll routinely ("a server on some other network").
  std::vector<ServerId> recovery_pool;

  // Peer-health / graceful-degradation policy: classify neighbours as
  // healthy / suspect / dead / quarantined, probe dead peers on exponential
  // backoff, and enter an explicit degraded mode when no peer is reachable
  // (the health column of service/peer_table.h).  Off by default - the engine then behaves
  // exactly as before this layer existed.
  PeerHealthPolicy health;

  // Chaos plane: when active(), the engine wraps its runtime in its own
  // runtime::FaultInjector with this plan (loss, duplication, delay
  // spikes, corruption, partitions, crash-stop), on either runtime.
  runtime::FaultPlan chaos;
};

// The clock a server built from `spec` starts with at real time `start`:
// a DriftingClock at rate 1 + simulated_drift reading start +
// initial_offset, wrapped in a FaultyClock when spec.fault is set.  Both
// planes build their servers' clocks here (the simulator at its virtual
// time, net::UdpTimeServer at host time), so one spec means one clock.
std::unique_ptr<core::Clock> make_clock(const ServerSpec& spec,
                                        RealTime start);

enum class Topology : std::uint8_t { kFull, kRing, kStar, kLine, kCustom };

struct ServiceConfig {
  std::vector<ServerSpec> servers;

  Topology topology = Topology::kFull;
  // Used when topology == kCustom; undirected edges.
  std::vector<std::pair<ServerId, ServerId>> custom_edges;

  // Default one-way delay: uniform in [delay_lo, delay_hi].
  Duration delay_lo = 0.0;
  Duration delay_hi = 0.01;
  double loss_probability = 0.0;

  std::uint64_t seed = 42;

  // Fleet-wide gossip cross-notes switch (DSL: `gossip on`): every server
  // forwards fresh first-hand readings (plus a self-note) to every other
  // server each round, and cross-checks incoming notes against first-hand
  // memory (see ProtocolEngine::set_gossip_peers).  Gossip messages go
  // directly to every other server regardless of topology - cross-notes
  // model an out-of-band channel, which is exactly what lets a star's
  // leaves compare notes about the hub.
  bool gossip = false;

  // Trace sampling period in real time; <= 0 disables sampling.
  Duration sample_interval = 1.0;

  // Sharded engine (sim/sharded_engine.h): servers are split across
  // S = max(1, sim_shards) shards (id % S), run one after another on the
  // calling thread.  0 and 1 both mean one shard, whose RNG is the root
  // stream itself - the run the one-shard determinism goldens pin.  Runs at
  // different S are not byte-identical: each of several shards forks its
  // own stream from the root.
  std::uint32_t sim_shards = 0;
};

// Expands a topology into per-server neighbour lists.
std::vector<std::vector<ServerId>> build_adjacency(
    std::size_t n, Topology topology,
    const std::vector<std::pair<ServerId, ServerId>>& custom_edges);

}  // namespace mtds::service
