// ShardedEngine: conservative-lookahead windows over S shard queues.
//
// This is the simulator's only engine.  The server population is split
// across S shards, each owning its own SlabHeap-backed EventQueue, RNG
// stream and trace buffer (the owners live in the service layer; the engine
// only sees the queues).  The calling thread runs the shards, one after
// another in shard order, in epoch windows:
//
//   Tmin = min over shards of next_time()
//   if S == 1:           the one shard runs every event up to the target
//   if lookahead L > 0:  every shard runs its events in [Tmin, Tmin + L)
//   if L == 0:           every shard runs exactly the events at time Tmin
//
// with a barrier hook after every window that drains the cross-shard
// mailboxes and a recomputation of Tmin.  The scheme is conservative in the
// classical PDES sense: L is the minimum one-way link delay, so an event
// executing at u >= Tmin can only produce a cross-shard arrival at
// u + delay >= Tmin + L - beyond the window - and events inside one window
// on different shards can never interact.  With L == 0 (the paper's default
// "minimum delay zero" networks) the engine degenerates to lockstep over
// distinct timestamps.  One shard has no cross-shard link at all, so its
// lookahead is unbounded: each run_until is a single window, i.e. a plain
// EventQueue::run_until.
//
// Determinism invariants (pinned by determinism_test's goldens): shard
// assignment, RNG streams, mailbox indices and trace buffers are functions
// of S alone, and mailboxes are drained only between windows, in canonical
// (receiver, sender) order, each preserving push order.  Hence the
// observable run is a pure function of (scenario, S).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/time_types.h"
#include "sim/event_queue.h"

namespace mtds::sim {

using core::Duration;
using core::RealTime;

class ShardedEngine {
 public:
  // Borrows the shard queues (the service owns them; they must outlive the
  // engine).
  explicit ShardedEngine(std::vector<EventQueue*> queues);

  // Invoked after every epoch window: drain cross-shard mailboxes into the
  // shard queues.  Must be set before run_until when mailboxes are in use.
  void set_barrier_hook(std::function<void()> hook) {
    barrier_hook_ = std::move(hook);
  }

  // Runs every shard's events with time <= t_target under the epoch scheme,
  // then aligns every shard clock to t_target.  `lookahead` is
  // the window width L; it must not exceed the minimum one-way delay of any
  // cross-shard link (it is ignored at S = 1).  Monotone like
  // EventQueue::run_until.
  void run_until(RealTime t_target, Duration lookahead);

  // mtds:test-api(scale_test checks a scenario's shards= arrives)
  std::size_t num_shards() const noexcept { return queues_.size(); }
  // Epoch windows executed by the last run_until (scheduling diagnostics).
  std::size_t last_windows() const noexcept { return last_windows_; }

 private:
  std::vector<EventQueue*> queues_;
  std::function<void()> barrier_hook_;
  std::size_t last_windows_ = 0;
};

}  // namespace mtds::sim
