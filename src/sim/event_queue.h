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
// slot) keys, and the typed records they index stay with the sim::Network
// that owns them, which the queue calls back through one function pointer.
//
// The delivery keys sit in a calendar ring (Brown, CACM 31(10), 1988) of
// kBuckets equal buckets spanning the network's largest default one-way
// delay, so every arrival the default model draws lands within one turn
// of now.  A bucket is a list threaded through its keys' pool slots; the
// earliest occupied bucket, found in a bitmap, is gathered into one reused
// "run" vector and sorted once by (time, seq), so a pop is a pop_back where
// a heap paid an unpredictable compare per level.  Keys beyond the turn
// (per-link overrides, long tails), and all keys of a queue whose span is
// zero, wait in a small overflow heap instead.  The ring, the overflow
// heap and the timers draw their seq from one counter, and the run loops
// pop whichever head is smallest by (time, seq), so the merged order is
// exactly the order one heap of closures would run - the determinism
// goldens pin it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

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
  // every delivery it schedules.  `span` is the largest delay the owner
  // normally schedules a delivery after; the calendar ring spans it, and a
  // span of zero keeps every delivery in the overflow heap.  Call it before
  // the first deliver().
  void set_delivery_sink(void* owner, DeliverFn fn, Duration span);

  // Schedules delivery of the sink owner's record `slot` at time t (>= now,
  // checked).  Deliveries take their seq from the same counter as timers.
  // A slot holds at most one pending delivery: the ring's bucket lists are
  // threaded through the slots.
  // mtds:no-alloc
  void deliver(RealTime t, std::uint32_t slot) {
    if (t < now_) throw_past();
    if (slot >= kNoSlot || (next_seq_ >> kSeqBits) != 0) throw_full();
    const DeliveryKey key{t, (next_seq_++ << kSlotBits) | slot};
    if (inv_width_ == 0.0) {  // no ring: a zero span
      overflow_.push(key);
      return;
    }
    ring_push(key, slot);
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
    if (has_deliveries()) {
      const RealTime t = run_heads() ? run_.back().time : overflow_.top().time;
      if (t < next) next = t;
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
    return timers_.size() + ring_size_ + overflow_.size();
  }
  bool empty() const noexcept { return timers_.empty() && !has_deliveries(); }

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

  // A delivery's key: its (time, seq) priority with the record's slot
  // packed under the seq, 16 bytes where a separate slot field would pad
  // it to 24 - the run and the overflow heap hold keys by value.  That
  // caps a queue at 2^40 scheduled events and 2^24 - 1 deliveries in
  // flight, the top slot ending the ring's lists (deliver() checks both).
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
  // The run's order: its smallest key last, where pop_back takes it.
  struct Descending {
    bool operator()(const DeliveryKey& a, const DeliveryKey& b) const noexcept {
      return b < a;
    }
  };

  // Calendar ring geometry.  kBuckets is a power of two so a bucket's
  // index in the ring is its absolute number's low bits; the width is
  // span / (kBuckets - 1), so a key at now + span still falls inside the
  // kBuckets buckets that start at now's.
  static constexpr std::uint32_t kBuckets = 1024;
  static constexpr std::uint32_t kBucketMask = kBuckets - 1;
  static constexpr std::uint32_t kWords = kBuckets / 64;
  static_assert(kWords <= 32, "summary_ has a bit per bitmap word");
  static constexpr std::uint32_t kNoSlot = kSlotMask;  // ends a list
  // A bucket number must fit a uint64_t; time * inverse width at or past
  // this sends the key to the overflow heap.
  static constexpr double kBucketLimit = 9.0e18;

  bool has_deliveries() const noexcept {
    return ring_size_ != 0 || !overflow_.empty();
  }

  // Absolute bucket number of time t; requires t * inv_width_ below
  // kBucketLimit.  Monotone in t, so a later bucket holds only later keys.
  std::uint64_t bucket_of(RealTime t) const noexcept {
    return static_cast<std::uint64_t>(t.seconds() * inv_width_);
  }

  // Files a key in the ring: in its bucket's list, in order into the run
  // when it falls in the run's bucket, or in the overflow heap when it
  // lies beyond one turn from now.  Every pending key is at or after now,
  // so with the turn starting at now's bucket, no two buckets a ring
  // index maps to can both hold keys.
  //
  // Out of line, so the zero-span path that deliver() inlines stays small,
  // and the key comes by value: a reference pinned the caller's key in
  // memory, which cost BM_NetworkFanout/8 (zero span) a quarter of its rate.
  // mtds:no-alloc
  [[gnu::noinline]] void ring_push(DeliveryKey key, std::uint32_t slot) {
    if (!(key.time.seconds() * inv_width_ < kBucketLimit)) {
      overflow_.push(key);
      return;
    }
    const std::uint64_t bucket = bucket_of(key.time);
    if (bucket - bucket_of(now_) >= kBuckets) {
      overflow_.push(key);
      return;
    }
    if (slot >= nodes_.size()) grow_nodes(slot);
    ++ring_size_;
    if (!run_.empty()) {
      if (bucket == run_bucket_) {
        insert_into_run(key);
        return;
      }
      // A key before the run (scheduled by a timer that fires before the
      // run's bucket) sends the run back to its bucket.
      if (bucket < run_bucket_) spill_run();
    }
    link(static_cast<std::uint32_t>(bucket) & kBucketMask, key, slot);
  }

  // A ring key waits on its bucket's list at nodes_[slot], so the key's
  // own slot bits are free to hold the next slot on the list.
  void link(std::uint32_t index, const DeliveryKey& key,
            std::uint32_t slot) noexcept {
    nodes_[slot] =
        DeliveryKey{key.time, (key.seq_slot & ~kSlotMask) | heads_[index]};
    heads_[index] = slot;
    occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
    summary_ |= 1u << (index >> 6);
  }

  // The run is sorted descending, so a key at now (a zero-delay send)
  // goes in near its back.
  // mtds:no-alloc
  [[gnu::noinline]] void insert_into_run(const DeliveryKey& key) {
    // mtds:alloc-ok(the run reserves one entry per pool slot in grow_nodes, so an insert never outgrows it)
    run_.insert(std::upper_bound(run_.begin(), run_.end(), key, Descending{}),
                key);
  }

  // mtds:no-alloc
  [[gnu::noinline]] void spill_run() noexcept {
    const std::uint32_t index =
        static_cast<std::uint32_t>(run_bucket_) & kBucketMask;
    for (const DeliveryKey& key : run_) {
      link(index, key, static_cast<std::uint32_t>(key.seq_slot & kSlotMask));
    }
    run_.clear();
  }

  // Moves the earliest occupied bucket into the run, sorted descending so
  // its smallest key is at the back.  Requires ring keys and an empty run.
  // mtds:no-alloc
  [[gnu::noinline]] void gather() {
    const std::uint64_t base = bucket_of(now_);
    const std::uint32_t from = static_cast<std::uint32_t>(base) & kBucketMask;
    // The first occupied bucket at or after `from` in its word, else the
    // first occupied word after it, else (wrapping) the first occupied
    // word, whose buckets below `from` are the furthest from now.
    std::uint32_t word = from >> 6;
    std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from & 63));
    if (bits == 0) {
      const std::uint32_t later = summary_ & ~((2u << word) - 1);
      word = static_cast<std::uint32_t>(
          __builtin_ctz(later != 0 ? later : summary_));
      bits = occupied_[word];
    }
    const std::uint32_t index =
        (word << 6) + static_cast<std::uint32_t>(__builtin_ctzll(bits));
    occupied_[word] &= ~(std::uint64_t{1} << (index & 63));
    if (occupied_[word] == 0) summary_ &= ~(1u << word);
    run_bucket_ = base + ((index - from) & kBucketMask);
    for (std::uint32_t s = heads_[index]; s != kNoSlot;) {
      const DeliveryKey node = nodes_[s];
      // mtds:alloc-ok(the run reserves one entry per pool slot in grow_nodes, so gathering never outgrows it)
      run_.push_back(DeliveryKey{node.time, (node.seq_slot & ~kSlotMask) | s});
      s = static_cast<std::uint32_t>(node.seq_slot & kSlotMask);
    }
    heads_[index] = kNoSlot;
    std::sort(run_.begin(), run_.end(), Descending{});
  }

  // Whether the smallest pending delivery key heads the run rather than
  // the overflow heap; requires has_deliveries().  A queue with no ring
  // keys (a zero span among them) reads one counter and leaves the ring
  // alone.
  // mtds:no-alloc
  bool run_heads() {
    if (ring_size_ == 0) return false;
    if (run_.empty()) gather();
    return overflow_.empty() || run_.back() < overflow_.top();
  }

  [[gnu::noinline]] void grow_nodes(std::uint32_t slot);

  // Runs the earlier of the two heads unless its time is `past`; false
  // when the queue is empty or the head is past.  A queue without pending
  // deliveries pays two emptiness tests for them.
  //
  // A timer is moved out of its slab slot before it runs, and a delivery
  // pops its key before the sink runs, so either may schedule freely.
  // mtds:no-alloc
  template <typename Past>
  bool pop_one(Past past) {
    if (has_deliveries()) return pop_merged(past);
    const Priority* timer = timers_.peek();
    if (timer == nullptr || past(timer->time)) return false;
    run_timer();
    return true;
  }

  // pop_one with deliveries pending: compares the heads.  Out of line so
  // the timer-only loop above stays small: inlined here, the merge cost
  // BM_EventQueueDrain (timers only) a quarter to a third of its rate.
  // mtds:no-alloc
  template <typename Past>
  [[gnu::noinline]] bool pop_merged(Past past) {
    const bool in_run = run_heads();
    const DeliveryKey key = in_run ? run_.back() : overflow_.top();
    const Priority* timer = timers_.peek();
    if (timer != nullptr &&
        *timer < Priority{key.time, key.seq_slot >> kSlotBits}) {
      if (past(timer->time)) return false;
      run_timer();
      return true;
    }
    if (past(key.time)) return false;
    if (in_run) {
      run_.pop_back();
      --ring_size_;
    } else {
      overflow_.pop();
    }
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
  void* sink_owner_ = nullptr;
  DeliverFn sink_fn_ = nullptr;
  RealTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t ring_size_ = 0;  // keys in the ring's buckets and run
  util::QuadHeap<DeliveryKey> overflow_;

  // The calendar ring.  inv_width_ is 0 and heads_ empty until a sink with
  // a positive span is installed.  summary_ lets gather() find the first
  // occupied bitmap word in one ctz, so a sparse ring pays no word scan.
  double inv_width_ = 0.0;
  std::vector<DeliveryKey> run_;                  // head bucket, descending
  std::uint64_t run_bucket_ = 0;                  // the run's bucket number
  std::vector<DeliveryKey> nodes_;                // list nodes, by slot
  std::vector<std::uint32_t> heads_;              // list head per bucket
  std::array<std::uint64_t, kWords> occupied_{};  // bit per non-empty bucket
  std::uint32_t summary_ = 0;                     // bit per non-zero word
};

}  // namespace mtds::sim
