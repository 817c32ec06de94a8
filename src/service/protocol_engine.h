// ProtocolEngine: the runtime-agnostic core of a time server.
//
// One implementation of the paper's protocol - the rule MM-1/IM-1 responder
// plus the periodic rule MM-2/IM-2 synchronization loop, with pluggable
// synchronization function, adaptive polling, sample filtering, Section 5
// rate monitoring and Section 3 third-server recovery - driven entirely
// through the one runtime::Runtime interface.  The same
// engine is a simulated server (service::TimeService builds one per server
// over runtime::SimRuntime) and the core of the UDP daemon
// (net::UdpTimeServer over runtime::UdpRuntime), so the deployed loop is
// exactly the loop the simulator validates.  When the spec arms a chaos
// plan, the engine wraps its runtime in its own runtime::FaultInjector.
//
// Concurrency: the engine is not internally synchronized; the runtime
// serializes message delivery and timer fires (see runtime/runtime.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/clock.h"
#include "core/error_tracker.h"
#include "core/reading.h"
#include "core/sync_function.h"
#include "runtime/fault_injector.h"
#include "runtime/runtime.h"
#include "service/config.h"
#include "service/message.h"
#include "service/peer_table.h"
#include "service/snapshot.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace mtds::service {

struct ServerCounters {
  std::uint64_t rounds = 0;           // poll rounds started
  std::uint64_t requests_sent = 0;
  std::uint64_t replies_received = 0;
  std::uint64_t responses_sent = 0;   // rule MM-1/IM-1 replies served
  std::uint64_t resets = 0;           // clock resets applied
  std::uint64_t inconsistencies = 0;  // inconsistent replies / empty rounds
  std::uint64_t recoveries = 0;       // third-server recoveries performed

  // Peer-health layer (all zero unless spec.health.enabled).
  std::uint64_t probes_sent = 0;       // backoff probes to dead peers
  std::uint64_t polls_suppressed = 0;  // round sends skipped (dead backoff
                                       // countdown or quarantined peer)
  std::uint64_t peer_deaths = 0;       // healthy/suspect -> dead transitions
  std::uint64_t peer_recoveries = 0;   // suspect/dead -> healthy transitions
  std::uint64_t quarantines = 0;       // peers quarantined as inconsistent
  std::uint64_t degraded_entries = 0;  // times degraded mode was entered

  // Third-server recovery bookkeeping (Section 3).
  std::uint64_t recovery_timeouts = 0; // recovery requests that expired
                                       // unanswered (then retried w/ backoff)

  // Byzantine defenses.
  std::uint64_t byzantine_suspects = 0;   // readings whose cross-round advance
                                          // was impossible under the declared
                                          // drift bound (equivocation)
  std::uint64_t marzullo_exclusions = 0;  // readings a successful IMFT round
                                          // excluded by coverage (the round's
                                          // quorum reset went ahead without
                                          // them)

  // Gossip cross-notes plane (all zero unless gossip peers are set).
  std::uint64_t gossip_sent = 0;         // cross-note messages sent
  std::uint64_t gossip_received = 0;     // cross-note messages received
  std::uint64_t gossip_convictions = 0;  // second-hand note contradicted the
                                         // source's first-hand story to us
                                         // (same-round equivocation caught)

  // Probation plane (all zero unless health.release_after > 0).
  std::uint64_t probations = 0;       // quarantine -> probation releases
  std::uint64_t rehabilitations = 0;  // probation -> healthy completions

  // Self-stabilization bookkeeping.
  std::uint64_t state_corruptions = 0;  // corrupt-state faults absorbed
  std::uint64_t recovery_rounds = 0;    // rounds from a corruption until the
                                        // clock was provably re-contained
};

class ProtocolEngine {
 public:
  // The engine owns its clock (and its chaos plane, when spec.chaos is
  // active); the runtime and trace are borrowed and must outlive it.
  // `trace` may be null (the UDP daemon records nothing); otherwise the
  // engine records its lifecycle events into it (the set is documented in
  // docs/TRACING.md).
  ProtocolEngine(ServerId id, std::unique_ptr<core::Clock> clock,
                 const ServerSpec& spec, runtime::Runtime& rt,
                 sim::Trace* trace, sim::Rng rng);
  ~ProtocolEngine();

  ProtocolEngine(const ProtocolEngine&) = delete;
  ProtocolEngine& operator=(const ProtocolEngine&) = delete;

  // Opens the runtime and schedules the first poll round.  The first poll
  // is jittered uniformly within one poll period so that a service's rounds
  // don't run in lockstep.
  void start(const std::vector<ServerId>& neighbors);

  // Leaves the service: closes the runtime and cancels the pending poll, so
  // a later start() drives exactly one poll chain.
  void stop();

  // Membership update: future rounds will also poll `peer`.
  void add_neighbor(ServerId peer);
  bool running() const noexcept { return running_; }

  ServerId id() const noexcept { return id_; }
  const ServerSpec& spec() const noexcept { return spec_; }
  const ServerCounters& counters() const noexcept { return counters_; }

  // The poll period currently in effect (== spec().poll_period unless
  // adaptive polling has moved it).
  Duration current_poll_period() const noexcept { return current_period_; }

  // Current clock reading / reported maximum error (rule MM-1).
  core::ClockTime read_clock(RealTime t);
  core::Duration current_error(RealTime t);

  // Offset from the runtime's real-time axis; positive means the clock is
  // fast.  (Ground truth in the simulator; host-monotonic offset over UDP.)
  core::Offset true_offset(RealTime t);

  // Whether the interval currently contains true time.
  bool correct(RealTime t);

  // Message entry point (installed as the runtime handler by start()).
  void handle(RealTime t, const ServiceMessage& msg);

  // Everything the engine keeps per peer: reading memories, health state,
  // filter windows and rate evidence (the Section 5 queries live there).
  PeerTable& peers() noexcept { return peers_; }
  const PeerTable& peers() const noexcept { return peers_; }
  // kHealthy when the health layer is off (every peer is then trusted).
  PeerState peer_state(ServerId peer) const {
    return peers_.peer_state(peer);
  }
  // Degraded mode: no neighbour reachable; the clock free runs and the
  // reported error grows at the drift bound until a peer answers again.
  bool degraded() const noexcept { return degraded_; }

  // Installs the snapshot publication sink (the serving plane's seqlock;
  // see service/snapshot.h).  Call before start(); the engine publishes on
  // start, after every completed round, and after every reset - all inside
  // the runtime's serialization domain, so the sink sees a single writer.
  void set_snapshot_sink(SnapshotSink* sink) noexcept {
    snapshot_sink_ = sink;
  }

  // Gossip cross-notes: every round, forward the fresh first-hand readings
  // in the equivocation memory (plus a self-note) to each of `peers`.
  // Receivers cross-check the notes against their own first-hand memory,
  // which is what turns a per-victim equivocator's stories into a
  // conviction.  Empty (the default) disables the plane entirely.
  void set_gossip_peers(const std::vector<ServerId>& peers);

  // Chaos plane; non-null only when spec().chaos.active().
  runtime::FaultInjector* fault_injector() noexcept { return chaos_.get(); }
  const runtime::FaultInjector* fault_injector() const noexcept {
    return chaos_.get();
  }

  // Deterministic corrupt-state fault: scrambles the volatile sync state
  // (clock, error tracker, peer reading memory, second-hand notes, pending
  // timestamps) as a pure function of `nonce`.  The parameterless overload
  // routes through the chaos plane when one is armed (its ledger and nonce
  // stream account the fault) and draws the nonce from the engine's own
  // stream otherwise.  Recovery is accounted in counters().recovery_rounds
  // until the clock is provably re-contained.
  void corrupt_state();
  void corrupt_state(std::uint64_t nonce);

 private:
  void schedule_next_poll(Duration own_clock_delay);
  void begin_round();
  void end_round();
  void send_gossip(core::ClockTime local);
  void handle_gossip(RealTime t, const ServiceMessage& msg);
  // `t` is the reading's delivery time.
  void process_reading(PeerTable::Row row, const core::TimeReading& reading,
                       RealTime t);
  // Cross-round equivocation detector: compares `reading` against the same
  // peer's previous reading and returns true when the pair is mutually
  // impossible under the declared drift bound (then also records the trace
  // event and updates counters).  Always refreshes the per-peer memory.
  bool note_reading_impossible(PeerTable::Row row,
                               const core::TimeReading& reading);
  // Applies `reset`, computed from the local state at real time `at`, by
  // setting the clock to read reset.clock at `at`.  Over UDP real time
  // moves on while a handler runs, and a preempted handler resumes
  // milliseconds later; setting the value at a later now() would leave the
  // clock behind by that gap, outside its own error bound.
  void apply_reset(const core::ClockReset& reset, RealTime at,
                   bool is_recovery);
  void note_inconsistency(const core::ServerIdVec& peers);
  void request_recovery(ServerId exclude);
  core::LocalState local_state(RealTime t);
  void note_peer_replied(PeerTable::Row row);
  void age_recovery_requests();
  void set_degraded(bool degraded);
  void publish_snapshot(RealTime now);
  // Records one lifecycle event for this server (no-op without a trace).
  void record(RealTime t, sim::TraceEventKind kind, ServerId peer,
              double detail);

  ServerId id_;
  std::unique_ptr<core::Clock> clock_;
  core::ErrorTracker tracker_;
  ServerSpec spec_;
  std::unique_ptr<core::SyncFunction> sync_;  // null for kNone
  // Null unless spec.chaos.active(); then it wraps the borrowed runtime and
  // rt_ points at it, so every message runs the fault gauntlet.
  std::unique_ptr<runtime::FaultInjector> chaos_;
  runtime::Runtime* rt_;
  sim::Trace* trace_;
  sim::Rng rng_;

  std::vector<ServerId> neighbors_;
  bool running_ = false;
  Duration current_period_ = 0.0;  // adaptive tau; starts at spec.poll_period

  // Outstanding requests, in tag order: every request gets its own tag,
  // handed out monotonically.  A reply pairs by (tag, sender)
  // with a short linear scan (at most a round's worth of requests).
  // Steady-state rounds touch no allocator: push_back reuses capacity and
  // expiry compacts in place.
  struct Pending {
    std::uint64_t tag = 0;
    ServerId to;     // destination (pairing and miss attribution)
    core::ClockTime sent_local;
    bool recovery;   // reply triggers an unconditional recovery reset
    std::uint32_t age = 0;  // round closes survived (recovery timeout)
  };
  std::vector<Pending> pending_;
  std::uint64_t next_tag_;

  // Per-peer state: one row per peer (see service/peer_table.h).
  PeerTable peers_;
  bool degraded_ = false;

  // Snapshot sink (null = no serving plane attached); see set_snapshot_sink.
  SnapshotSink* snapshot_sink_ = nullptr;

  // Gossip plane: targets for cross-notes (empty = gossip off).
  std::vector<ServerId> gossip_peers_;
  core::Readings merged_replies_;  // BYZ round scratch: first + second hand

  // corrupt-state recovery accounting: set by corrupt_state(), cleared by
  // the first reset that provably re-contains true time.
  bool awaiting_recovery_ = false;

  // Third-server recovery retry state: attempts this burst, rounds left of
  // backoff before the next attempt, and the peer the burst excludes.
  std::uint32_t recovery_attempts_ = 0;
  std::uint32_t recovery_wait_rounds_ = 0;
  ServerId recovery_exclude_ = core::kInvalidServer;

  // Current round state (per-round sync functions buffer replies here).
  core::Readings round_replies_;
  // Round scratch buffer: cleared and refilled every round, never shrunk.
  core::Readings filter_scratch_;  // per-round filter output (best_all_into)
  bool round_open_ = false;
  runtime::TimerId round_end_timer_ = runtime::kInvalidTimer;
  // The pending poll: one chain per engine (replaced by each schedule,
  // cancelled by stop()).
  runtime::TimerId poll_timer_ = runtime::kInvalidTimer;

  ServerCounters counters_;
};

}  // namespace mtds::service
