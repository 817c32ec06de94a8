// Discrete-event simulation core.
//
// A single-threaded queue of timestamped events of two kinds: timers
// (callbacks) and message deliveries (plain records).  Ties are broken by
// insertion order (FIFO) across both kinds, which together with the seeded
// RNG makes whole runs deterministic.  Events may schedule further events,
// including at the current time (but never in the past).
//
// Timers live in a generation-tagged slab plus a 4-ary indexed heap
// (util::SlabHeap): schedule and pop touch no hash tables, cancel is an
// O(1) tag bump, and a callback is a std::function whose closure fits its
// inline buffer, so a typical timer allocates nothing.  Deliveries are never
// cancelled and need no closure: the queue keeps only their (time, seq,
// slot) keys in a plain util::QuadHeap, and the typed records they index
// stay with the sim::Network that owns them, which the queue calls back
// through one function pointer.  Both heaps draw their seq from one counter
// and the run loops pop whichever head is smaller by (time, seq), so the
// merged order is exactly the order one heap of closures would run - the
// determinism goldens pin it.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "core/time_types.h"
#include "util/slab_heap.h"

namespace mtds::sim {

using core::Duration;
using core::RealTime;

class EventQueue {
 public:
  using Callback = std::function<void()>;
  // Runs the delivery record in `slot` of `owner`'s pool.
  using DeliverFn = void (*)(void* owner, std::uint32_t slot);

  // The schedule/run methods are defined inline: every simulated message
  // and timer passes through them, and keeping the bodies visible lets the
  // compiler fold the heap operations into the callers' loops.

  // Schedules `cb` at absolute time t (>= now, checked).  Returns the event
  // id, usable with cancel().
  // mtds:no-alloc
  std::uint64_t at(RealTime t, Callback cb) {
    if (t < now_) throw_past();
    return timers_.push(Priority{t, next_seq_++}, std::move(cb));
  }

  // Schedules `cb` after `d` (>= 0) from now.
  // mtds:no-alloc
  std::uint64_t after(Duration d, Callback cb) {
    if (d < 0) throw_negative();
    return at(now_ + d, std::move(cb));
  }

  // Cancels a pending timer; returns false if it already ran or was
  // cancelled.  O(1): the callback is destroyed immediately, the heap entry
  // is skipped lazily when it surfaces.
  // mtds:no-alloc
  bool cancel(std::uint64_t id) { return timers_.cancel(id); }

  // Installs the delivery sink: deliver() keys run as fn(owner, slot).  A
  // queue serves one owner (the sim::Network over it), which must outlive
  // every delivery it schedules.
  void set_delivery_sink(void* owner, DeliverFn fn) noexcept {
    sink_owner_ = owner;
    sink_fn_ = fn;
  }

  // Schedules delivery of the sink owner's record `slot` at time t (>= now,
  // checked).  Deliveries take their seq from the same counter as timers.
  // mtds:no-alloc
  void deliver(RealTime t, std::uint32_t slot) {
    if (t < now_) throw_past();
    if ((slot >> kSlotBits) != 0 || (next_seq_ >> kSeqBits) != 0) throw_full();
    deliveries_.push(DeliveryKey{t, (next_seq_++ << kSlotBits) | slot});
  }

  // Runs the next event; returns false when the queue is empty.
  // mtds:no-alloc
  bool step() {
    return pop_one([](RealTime) { return false; });
  }

  // Runs every event with time <= t_end, then advances now to t_end.
  // Returns the number of events executed.
  // mtds:no-alloc
  std::size_t run_until(RealTime t_end) {
    const std::size_t executed =
        drain([t_end](RealTime t) { return t > t_end; });
    advance_to(t_end);
    return executed;
  }

  // Drains the queue completely.  Returns events executed.  `max_events`
  // guards against runaway self-scheduling loops.
  std::size_t run_all(std::size_t max_events = 100'000'000) {
    std::size_t executed = 0;
    while (executed < max_events && step()) ++executed;
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
    const std::size_t executed =
        drain([t_end](RealTime t) { return t >= t_end; });
    advance_to(t_end);
    return executed;
  }

  // Runs every event with time == t, including events they schedule at t,
  // then advances now to t.  Events earlier than t must not exist (callers
  // pass the global minimum next_time()).
  // mtds:no-alloc
  std::size_t run_at(RealTime t) {
    const std::size_t executed =
        drain([t](RealTime u) { return u != t; });
    advance_to(t);
    return executed;
  }

  // Time of the next live event, or +infinity when the queue is empty.
  // mtds:no-alloc
  RealTime next_time() {
    RealTime next{std::numeric_limits<double>::infinity()};
    if (const Priority* top = timers_.peek()) next = top->time;
    if (!deliveries_.empty() && deliveries_.top().time < next) {
      next = deliveries_.top().time;
    }
    return next;
  }

  // Advances now without executing anything (the sharded engine aligns all
  // shard clocks at the end of a run; events must all lie beyond t).
  void advance_to(RealTime t) noexcept {
    if (t > now_) now_ = t;
  }

  RealTime now() const noexcept { return now_; }
  // mtds:test-api(event_queue_test checks cancellation removes events)
  std::size_t pending() const noexcept {
    return timers_.size() + deliveries_.size();
  }
  bool empty() const noexcept { return timers_.empty() && deliveries_.empty(); }

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

  // A delivery's heap entry: its (time, seq) priority with the record's
  // slot packed under the seq, 16 bytes where a separate slot field would
  // pad it to 24 - the delivery heap is the largest structure a gossiping
  // run walks.  That caps a queue at 2^40 scheduled events and 2^24
  // deliveries in flight (deliver() checks both).
  static constexpr unsigned kSlotBits = 24;
  static constexpr unsigned kSeqBits = 64 - kSlotBits;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  struct DeliveryKey {
    RealTime time;
    std::uint64_t seq_slot;
    bool operator<(const DeliveryKey& other) const noexcept {
      if (time != other.time) return time < other.time;
      return seq_slot < other.seq_slot;
    }
  };

  // Runs the earlier of the two heads unless its time is `past`; false
  // when the queue is empty or the head is past.  A queue without pending
  // deliveries pays one size test for them.
  //
  // A timer is moved out of its slab slot before it runs, and a delivery
  // pops its key before the sink runs, so either may schedule freely.
  // mtds:no-alloc
  template <typename Past>
  bool pop_one(Past past) {
    if (!deliveries_.empty()) return pop_merged(past);
    const Priority* timer = timers_.peek();
    if (timer == nullptr || past(timer->time)) return false;
    run_timer();
    return true;
  }

  // pop_one with deliveries pending: compares the two heads.  Out of line
  // so the timer-only loop above stays small: inlined here, the merge cost
  // BM_EventQueueDrain (timers only) a quarter to a third of its rate.
  // mtds:no-alloc
  template <typename Past>
  [[gnu::noinline]] bool pop_merged(Past past) {
    const DeliveryKey key = deliveries_.top();
    const Priority* timer = timers_.peek();
    if (timer != nullptr &&
        *timer < Priority{key.time, key.seq_slot >> kSlotBits}) {
      if (past(timer->time)) return false;
      run_timer();
      return true;
    }
    if (past(key.time)) return false;
    deliveries_.pop();
    now_ = key.time;
    sink_fn_(sink_owner_,
             static_cast<std::uint32_t>(key.seq_slot & kSlotMask));
    return true;
  }

  // mtds:no-alloc
  void run_timer() {
    Priority pri;
    const Callback cb = timers_.pop(&pri);
    now_ = pri.time;
    cb();
  }

  // Runs events in (time, seq) order until the head's time is `past`.
  // mtds:no-alloc
  template <typename Past>
  std::size_t drain(Past past) {
    std::size_t executed = 0;
    while (pop_one(past)) ++executed;
    return executed;
  }

  [[noreturn]] static void throw_past();      // cold paths kept out of line
  [[noreturn]] static void throw_negative();
  [[noreturn]] static void throw_full();

  util::SlabHeap<Priority, Callback> timers_;
  util::QuadHeap<DeliveryKey> deliveries_;
  void* sink_owner_ = nullptr;
  DeliverFn sink_fn_ = nullptr;
  RealTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mtds::sim
