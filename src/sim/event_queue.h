// Discrete-event simulation core.
//
// A single-threaded priority queue of timestamped callbacks.  Ties are
// broken by insertion order (FIFO), which together with the seeded RNG makes
// whole runs deterministic.  Events may schedule further events, including
// at the current time (but never in the past).
//
// Storage is a generation-tagged slab plus a 4-ary indexed heap
// (util::SlabHeap): schedule and pop touch no hash tables, cancel is an
// O(1) tag bump, and callbacks live in small-buffer-optimized util::SmallFn
// slots so a typical event allocates nothing.  The old implementation
// (std::priority_queue + two unordered_sets of ids + std::function) paid
// two hash lookups and a heap allocation per event; the determinism golden
// test pins that this rewrite preserves the exact (time, seq) FIFO order.
#pragma once

#include <cstdint>
#include <limits>

#include "core/time_types.h"
#include "util/slab_heap.h"
#include "util/small_fn.h"

namespace mtds::sim {

using core::Duration;
using core::RealTime;

class EventQueue {
 public:
  using Callback = util::SmallFn;

  // The schedule/run methods are defined inline: every simulated message
  // and timer passes through them, and keeping the bodies visible lets the
  // compiler fold the heap operations into the callers' loops.

  // Schedules `cb` at absolute time t (>= now, checked).  Returns the event
  // id, usable with cancel().
  // mtds:no-alloc
  std::uint64_t at(RealTime t, Callback cb) {
    if (t < now_) throw_past();
    return heap_.push(Priority{t, next_seq_++}, std::move(cb));
  }

  // Schedules `cb` after `d` (>= 0) from now.
  // mtds:no-alloc
  std::uint64_t after(Duration d, Callback cb) {
    if (d < 0) throw_negative();
    return at(now_ + d, std::move(cb));
  }

  // Cancels a pending event; returns false if it already ran or was
  // cancelled.  O(1): the callback is destroyed immediately, the heap entry
  // is skipped lazily when it surfaces.
  // mtds:no-alloc
  bool cancel(std::uint64_t id) { return heap_.cancel(id); }

  // Runs the next event; returns false when the queue is empty.
  bool step() { return pop_one(); }

  // Runs every event with time <= t_end, then advances now to t_end.
  // Returns the number of events executed.
  // mtds:no-alloc
  std::size_t run_until(RealTime t_end) {
    std::size_t executed = 0;
    for (;;) {
      const Priority* top = heap_.peek();
      if (top == nullptr || top->time > t_end) break;
      if (pop_one()) ++executed;
    }
    if (t_end > now_) now_ = t_end;
    return executed;
  }

  // Drains the queue completely.  Returns events executed.  `max_events`
  // guards against runaway self-scheduling loops.
  std::size_t run_all(std::size_t max_events = 100'000'000) {
    std::size_t executed = 0;
    while (executed < max_events && pop_one()) ++executed;
    return executed;
  }

  // Window primitives for the sharded engine (sharded_engine.h).  A shard
  // executes its queue in conservative-lookahead windows: run_before() for a
  // strict window [now, t_end) when the lookahead is positive, run_at() for
  // one lockstep timestamp when it is zero.  Both match run_until's FIFO
  // (time, seq) order exactly - they just stop earlier.

  // Runs every event with time < t_end (strict), then advances now to t_end.
  // mtds:no-alloc
  std::size_t run_before(RealTime t_end) {
    std::size_t executed = 0;
    for (;;) {
      const Priority* top = heap_.peek();
      if (top == nullptr || top->time >= t_end) break;
      if (pop_one()) ++executed;
    }
    if (t_end > now_) now_ = t_end;
    return executed;
  }

  // Runs every event with time == t, including events they schedule at t,
  // then advances now to t.  Events earlier than t must not exist (callers
  // pass the global minimum next_time()).
  // mtds:no-alloc
  std::size_t run_at(RealTime t) {
    std::size_t executed = 0;
    for (;;) {
      const Priority* top = heap_.peek();
      if (top == nullptr || top->time != t) break;
      if (pop_one()) ++executed;
    }
    if (t > now_) now_ = t;
    return executed;
  }

  // Time of the next live event, or +infinity when the queue is empty.
  // mtds:no-alloc
  RealTime next_time() {
    const Priority* top = heap_.peek();
    return top != nullptr
               ? top->time
               : RealTime{std::numeric_limits<double>::infinity()};
  }

  // Advances now without executing anything (the sharded engine aligns all
  // shard clocks at the end of a run; events must all lie beyond t).
  void advance_to(RealTime t) noexcept {
    if (t > now_) now_ = t;
  }

  RealTime now() const noexcept { return now_; }
  // mtds:test-api(event_queue_test checks cancellation removes events)
  std::size_t pending() const noexcept { return heap_.size(); }
  bool empty() const noexcept { return heap_.empty(); }

 private:
  // (time, insertion seq): the FIFO tie-break the determinism tests pin.
  struct Priority {
    RealTime time;
    std::uint64_t seq;
    bool operator<(const Priority& other) const noexcept {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  // Runs the next live event; false if empty.  consume_top runs the
  // callback IN PLACE in its slab slot (safe because chunked slot storage
  // never moves, even when the callback schedules more events), and
  // invoke_once fuses invoke + destroy into one dispatch - so a drained
  // event costs exactly one relocation (into the slot at schedule time).
  // mtds:no-alloc
  bool pop_one() {
    Priority pri;
    return heap_.consume_top(pri, [this, &pri](Callback& cb) {
      now_ = pri.time;
      cb.invoke_once();
    });
  }

  [[noreturn]] static void throw_past();      // cold paths kept out of line
  [[noreturn]] static void throw_negative();

  util::SlabHeap<Priority, Callback> heap_;
  RealTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mtds::sim
