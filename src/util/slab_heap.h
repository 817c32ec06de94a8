// SlabHeap: a priority queue with O(1) cancellation and stable handles.
//
// The sim's EventQueue used to pair a std::priority_queue with two
// unordered_sets (live ids, cancelled ids): two hash lookups per scheduled
// event plus rehash churn, all on the hottest loop in the repo.  The UDP
// runtime's timer queue paid a std::multimap node allocation per timer and
// a linear scan per cancel.  SlabHeap replaces both:
//
//   * payloads live in a slab of reusable slots; a handle packs the slot
//     index with a per-slot generation tag, so stale handles (cancel after
//     fire, double cancel) are rejected by a tag compare - no hash set;
//   * pop() moves the payload out of its slot before the caller runs it, so
//     the slots can live in one plain vector that is free to reallocate
//     when a running payload pushes more entries;
//   * ordering lives in a QuadHeap of (priority, slot) entries - a 4-ary
//     min-heap, shallower than a binary heap, whose entries are small PODs
//     that stay hot in cache;
//   * cancel() is a tag bump: the slot dies immediately (its payload is
//     destroyed so captured resources release eagerly) and the heap entry
//     is skipped lazily when it surfaces at the top.
//
// Single-threaded; callers provide their own locking (the UDP runtime holds
// timer_mutex_).  Priority needs strict-weak operator<; ties are the
// caller's job to break (the sim packs an insertion sequence number into
// its Priority for FIFO determinism).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mtds::util {

// A 4-ary min-heap of small POD entries ordered by their operator<: the
// ordering half of SlabHeap, and on its own the overflow tier of the sim's
// delivery ring (sim/event_queue.h), which holds the keys beyond one turn
// of the ring and every key of a queue whose span is zero.
template <typename Entry>
class QuadHeap {
 public:
  // mtds:no-alloc
  void push(const Entry& e) {
    heap_.push_back(e);  // mtds:alloc-ok(vector growth is amortized and capacity is retained across pops; steady state appends into existing capacity)
    sift_up(heap_.size() - 1);
  }

  // The minimum entry; requires !empty().
  const Entry& top() const noexcept { return heap_.front(); }

  // Removes the minimum entry; requires !empty().
  //
  // Floyd's bottom-up deletion: walk the min-child path down to a leaf,
  // pulling children up into the hole, then bubble the displaced last
  // element up from there.  The last element came from the bottom of the
  // heap, so it almost always belongs near a leaf and the upward phase is
  // O(1) on average - the textbook sift-down pays an extra
  // compare-against-it at every level instead.
  // mtds:no-alloc
  void pop() noexcept {
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t lim = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < lim; ++c) {
        if (heap_[c] < heap_[best]) best = c;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!(last < heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = last;
  }

  std::size_t size() const noexcept { return heap_.size(); }
  bool empty() const noexcept { return heap_.empty(); }
  void clear() noexcept { heap_.clear(); }

 private:
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) noexcept {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!(e < heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;
};

template <typename Priority, typename Payload>
class SlabHeap {
 public:
  using Id = std::uint64_t;

  // Inserts a payload; the returned handle stays valid for cancel() until
  // the entry is popped or cancelled.  Handles are never reused: a slot's
  // generation advances on each release, and the generation occupies the
  // handle's high 32 bits.  The payload is forwarded, so the schedule path
  // relocates a moved-in callback exactly once (into the slot).
  // mtds:no-alloc
  template <typename P = Payload>
  Id push(const Priority& pri, P&& payload) {
    std::uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();  // mtds:alloc-ok(slab growth is amortized and slots are never freed while the queue lives, so a warmed queue reuses them via the free list - alloc_test pins the steady state)
    }
    Slot& s = slots_[slot];
    s.live = true;
    s.payload = std::forward<P>(payload);
    heap_.push(Entry{pri, slot});
    ++live_;
    return make_id(s.gen, slot);
  }

  // O(1): kills the entry and destroys its payload now; the heap entry is
  // purged lazily.  Returns false for ids that already popped or cancelled.
  // mtds:no-alloc
  bool cancel(Id id) {
    const std::uint32_t slot = static_cast<std::uint32_t>(id);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (s.gen != gen || !s.live) return false;
    s.live = false;
    s.payload = Payload{};
    --live_;
    ++dead_in_heap_;
    return true;
  }

  // Priority of the next live entry, or nullptr when empty.  Purges any
  // cancelled entries that have surfaced at the top.
  // mtds:no-alloc
  const Priority* peek() {
    purge_dead_tops();
    return heap_.empty() ? nullptr : &heap_.top().pri;
  }

  // Removes and returns the next live payload; requires !empty().
  // `pri_out`, when given, receives the entry's priority.  The slot is
  // released before the payload is returned, so running it may push and
  // cancel freely.
  // mtds:no-alloc
  Payload pop(Priority* pri_out = nullptr) {
    purge_dead_tops();
    const std::uint32_t slot = heap_.top().slot;
    if (pri_out != nullptr) *pri_out = heap_.top().pri;
    heap_.pop();
    Slot& s = slots_[slot];
    s.live = false;
    --live_;
    Payload payload = std::exchange(s.payload, Payload{});
    release_slot(slot);
    return payload;
  }

  std::size_t size() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  // Drops everything, pending and cancelled, destroying the payloads.
  void clear() {
    slots_.clear();
    heap_.clear();
    free_head_ = kNoSlot;
    live_ = 0;
    dead_in_heap_ = 0;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Entry {
    Priority pri;
    std::uint32_t slot;
    bool operator<(const Entry& other) const noexcept {
      return pri < other.pri;
    }
  };

  struct Slot {
    std::uint32_t gen = 0;
    bool live = false;
    // Free slots form an intrusive list through this field (it sits in
    // padding the payload's alignment creates anyway), so releasing a slot
    // touches only memory the pop already pulled in.
    std::uint32_t next_free = kNoSlot;
    Payload payload{};
  };

  static Id make_id(std::uint32_t gen, std::uint32_t slot) noexcept {
    return (static_cast<Id>(gen) << 32) | slot;
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  void purge_dead_tops() {
    // dead_in_heap_ counts cancelled entries still parked in the heap; when
    // it is zero (the common case) the top is live by construction and the
    // per-pop slot probe is skipped entirely.
    while (dead_in_heap_ != 0 && !heap_.empty() &&
           !slots_[heap_.top().slot].live) {
      release_slot(heap_.top().slot);
      heap_.pop();
      --dead_in_heap_;
    }
  }

  std::vector<Slot> slots_;            // the slab, indexed by an id's low half
  QuadHeap<Entry> heap_;
  std::uint32_t free_head_ = kNoSlot;  // intrusive free list through slots
  std::size_t live_ = 0;               // pushed minus popped/cancelled
  std::size_t dead_in_heap_ = 0;       // cancelled entries not yet purged
};

}  // namespace mtds::util
