// Trace recording for simulated services.
//
// The benches and invariant checkers consume the same trace: periodic
// samples of every server's (C_i, E_i) against true time, plus discrete
// events (resets, inconsistencies, recoveries).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time_types.h"

namespace mtds::sim {

using core::ClockTime;
using core::Duration;
using core::ErrorBound;
using core::RealTime;
using core::ServerId;

struct Sample {
  RealTime t;         // true time of the sample
  ServerId server;
  ClockTime clock;    // C_i(t)
  ErrorBound error;   // E_i(t)
};

enum class TraceEventKind : std::uint8_t {
  kReset,          // server reset its clock (detail = new error)
  kInconsistent,   // server saw an inconsistent reply / empty intersection
  kRecovery,       // recovery policy fired (third-server reset)
  kJoin,           // server joined the service
  kLeave,          // server left the service
  kPeerState,      // peer-health transition (peer = subject, detail = new
                   // service::PeerState as a double)
  kDegraded,       // degraded mode toggled (detail = 1 enter, 0 exit)
  kByzantineSuspect,  // cross-round equivocation detected: peer's successive
                      // readings are mutually impossible under the declared
                      // drift bound (detail = excess seconds beyond the
                      // drift/error/rtt budget)
  kGossipConviction,  // same-round equivocation caught via gossip: a
                      // cross-note about `peer` contradicts its first-hand
                      // story to this server (detail = excess seconds)
  kStateCorrupt       // corrupt-state fault scrambled this server's volatile
                      // sync state (clock, error, peer memories)
};

struct TraceEvent {
  RealTime t;
  ServerId server;
  TraceEventKind kind;
  ServerId peer;   // counterparty (source of reset / inconsistent neighbour)
  double detail;   // kind-specific payload
};

const char* to_string(TraceEventKind kind) noexcept;

class Trace {
 public:
  void record(const Sample& s) { samples_.push_back(s); }
  void record(const TraceEvent& e) { events_.push_back(e); }

  // Pre-sizes the backing vectors (steady-state recording then allocates
  // nothing until the reservation is exhausted; see tests/alloc_test.cc).
  void reserve(std::size_t samples, std::size_t events) {
    samples_.reserve(samples);
    events_.reserve(events);
  }

  const std::vector<Sample>& samples() const noexcept { return samples_; }
  const std::vector<TraceEvent>& events() const noexcept { return events_; }

  std::size_t count_events(TraceEventKind kind) const;
  // mtds:test-api(tests assert one server's resets, recoveries and joins)
  std::size_t count_events(ServerId id, TraceEventKind kind) const;

  // Distinct sample times, sorted (the scenario samples all servers at the
  // same instants, so this recovers the sampling grid).
  std::vector<RealTime> sample_times() const;

  // All samples taken at time t (within tolerance).
  std::vector<Sample> samples_at(RealTime t, double tol = 1e-9) const;

  void clear();

  // CSV dump: "t,server,clock,error,offset".
  std::string samples_csv() const;

 private:
  std::vector<Sample> samples_;
  std::vector<TraceEvent> events_;
};

// K-way merge of per-shard traces into one deterministic stream, ordered
// by (t, shard index) with per-shard append order preserved for ties.  Each
// shard records its own servers' samples and events in nondecreasing time
// (its event queue executes in time order), so the merge is a classic
// sorted-runs merge; the shard index tie-break makes the result a function
// of the shard count alone - the determinism goldens hash the merged
// stream.  With one shard the merge is a plain append.
//
// merge_into() moves every shard entry recorded since the previous call
// into `out` and clears the shard buffers (their capacity is kept), so the
// service can merge at every run_until barrier without rescanning and
// without holding each record twice.
class TraceMerger {
 public:
  explicit TraceMerger(std::vector<Trace*> shards);

  // Appends all newly recorded shard entries to `out` in merged order, then
  // empties the shard buffers.
  void merge_into(Trace& out);

 private:
  std::vector<Trace*> shards_;
  std::vector<std::size_t> pos_;  // merge cursors, reset every call
};

}  // namespace mtds::sim
