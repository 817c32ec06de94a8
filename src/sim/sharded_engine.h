// ShardedEngine: conservative-lookahead parallel discrete-event execution.
//
// This is the simulator's only engine.  The server population is split
// across S shards, each owning its own SlabHeap-backed EventQueue, RNG
// stream and trace buffer (the owners live in the service layer; the engine
// only sees the queues).  The calling thread and T-1 helper threads execute
// the shards in epoch windows:
//
//   Tmin = min over shards of next_time()
//   if S == 1:           the one shard runs every event up to the target
//   if lookahead L > 0:  every shard runs its events in [Tmin, Tmin + L)
//   if L == 0:           every shard runs exactly the events at time Tmin
//
// with a barrier between windows at which the coordinating thread drains
// the cross-shard mailboxes (the barrier hook) and recomputes Tmin.  The
// scheme is conservative in the classical PDES sense: L is the minimum
// one-way link delay, so an event executing at u >= Tmin can only produce a
// cross-shard arrival at u + delay >= Tmin + L - beyond the window - and
// events inside one window on different shards can never interact.  With
// L == 0 (the paper's default "minimum delay zero" networks) the engine
// degenerates to deterministic lockstep over distinct timestamps, which is
// correct but only parallel across shards sharing a timestamp.  One shard
// has no cross-shard link at all, so its lookahead is unbounded: each
// run_until is a single window, i.e. a plain EventQueue::run_until.
//
// Determinism invariants (pinned by determinism_test's goldens):
//   * the shard count S - not the thread count T - partitions all state:
//     shard assignment, RNG streams, mailbox indices and trace buffers are
//     all functions of S alone;
//   * a shard's window execution is single-threaded and FIFO-ordered, so it
//     is identical whichever thread runs it;
//   * mailboxes are drained only at barriers, by the coordinating thread,
//     in canonical (receiver, sender) order, each preserving push order.
// Hence the observable run is a pure function of (scenario, S): T in
// {1, 2, 4, ...} only changes which OS thread executes a shard's window.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "core/time_types.h"
#include "sim/event_queue.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mtds::sim {

using core::Duration;
using core::RealTime;

class ShardedEngine {
 public:
  // Borrows the shard queues (the service owns them; they must outlive the
  // engine).  With T = max(1, num_threads), spawns T - 1 helper threads;
  // shard s is always executed by thread s % T, thread 0 being the caller
  // of run_until.  Which thread runs a shard is irrelevant to the result
  // (see determinism invariants above).  At T = 1 no thread is spawned and
  // windows run inline.
  ShardedEngine(std::vector<EventQueue*> queues, unsigned num_threads);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Invoked by the coordinating thread at every epoch barrier, after all
  // helpers have finished the window: drain cross-shard mailboxes into the
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

  // mtds:test-api(scale_test checks a scenario's shards= and threads= arrive)
  std::size_t num_shards() const noexcept { return queues_.size(); }
  // mtds:test-api(scale_test checks a scenario's shards= and threads= arrive)
  unsigned num_threads() const noexcept { return stride_; }
  // Epoch windows executed by the last run_until (scheduling diagnostics).
  std::size_t last_windows() const noexcept { return last_windows_; }

 private:
  // Runs one window job on every shard: the helpers take their shards while
  // the caller runs shards 0, T, 2T, ..., then blocks until every helper is
  // done.  `job` receives a shard index and must only touch that shard.
  void run_window(const std::function<void(std::size_t)>& job);
  // Thread `thread` runs its static shard-cyclic share: thread, thread+T, ...
  void run_shards(unsigned thread,
                  const std::function<void(std::size_t)>& job);
  void helper_loop(unsigned thread);

  std::vector<EventQueue*> queues_;
  std::function<void()> barrier_hook_;
  std::size_t last_windows_ = 0;
  unsigned stride_ = 1;  // thread count T; set before helpers spawn

  // Generation-counted barrier: the coordinator bumps `generation_` to
  // publish a job, helpers report back through `remaining_`.
  util::Mutex mu_;
  util::CondVar work_ready_;
  util::CondVar work_done_;
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;
  std::size_t remaining_ GUARDED_BY(mu_) = 0;
  const std::function<void(std::size_t)>* job_ GUARDED_BY(mu_) = nullptr;
  bool stop_ GUARDED_BY(mu_) = false;

  std::vector<std::thread> helpers_;
};

}  // namespace mtds::sim
