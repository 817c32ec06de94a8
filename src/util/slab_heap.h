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
//   * the slab is chunked (fixed-size blocks, never reallocated), so slot
//     storage is address-stable: growth never moves pending payloads, and
//     consume_top() can run a payload in place even if it pushes more
//     entries while executing;
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
#include <memory>
#include <utility>
#include <vector>

namespace mtds::util {

// A 4-ary min-heap of small POD entries ordered by their operator<: the
// ordering half of SlabHeap, and on its own the sim's delivery queue
// (sim/event_queue.h), whose entries index records their owner keeps.
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
      free_head_ = slot_ref(slot).next_free;
    } else {
      if ((slot_count_ & (kChunkSize - 1)) == 0) {
        // mtds:alloc-ok(chunk growth; chunks are never freed while the queue lives, so a warmed queue reuses slots via the free list - alloc_test pins the steady state)
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      }
      slot = slot_count_++;
    }
    Slot& s = slot_ref(slot);
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
    if (slot >= slot_count_) return false;
    Slot& s = slot_ref(slot);
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
  // `pri_out`, when given, receives the entry's priority.
  Payload pop(Priority* pri_out = nullptr) {
    Payload payload{};
    Priority pri;
    try_pop(pri, payload);
    if (pri_out != nullptr) *pri_out = pri;
    return payload;
  }

  // Single-call peek+pop: one purge pass, no second top lookup.  Returns
  // false when the heap is empty.
  // mtds:no-alloc
  bool try_pop(Priority& pri_out, Payload& payload_out) {
    return consume_top(pri_out, [&payload_out](Payload& p) {
      payload_out = std::move(p);
    });
  }

  // Pops the next live entry and runs `f` on its payload IN PLACE - the
  // drain loop's fast path, skipping the relocation out of the slab.
  // Reentrancy-safe: chunked slot storage never moves, and the slot is not
  // released until f returns, so f may push new entries (it cannot be
  // handed its own slot back) and may cancel ids freely (this entry is
  // already dead to cancel()).  `pri_out` is assigned before f runs.
  // Returns false when the heap is empty, without calling f.
  // mtds:no-alloc
  template <typename F>
  bool consume_top(Priority& pri_out, F&& f) {
    purge_dead_tops();
    if (heap_.empty()) return false;
    const std::uint32_t slot = heap_.top().slot;
    pri_out = heap_.top().pri;
    heap_.pop();
    Slot& s = slot_ref(slot);
    s.live = false;
    --live_;
    f(s.payload);
    s.payload = Payload{};
    release_slot(slot);
    return true;
  }

  std::size_t size() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  // Drops everything (pending and cancelled) and releases slot storage.
  void clear() {
    chunks_.clear();
    slot_count_ = 0;
    heap_.clear();
    free_head_ = kNoSlot;
    live_ = 0;
    dead_in_heap_ = 0;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  // 256 slots per chunk: big enough that chunk allocation is rare, small
  // enough that an idle queue holds tens of KB, not MB.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

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
  Slot& slot_ref(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  static Id make_id(std::uint32_t gen, std::uint32_t slot) noexcept {
    return (static_cast<Id>(gen) << 32) | slot;
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slot_ref(slot);
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  void purge_dead_tops() {
    // dead_in_heap_ counts cancelled entries still parked in the heap; when
    // it is zero (the common case) the top is live by construction and the
    // per-pop slot probe is skipped entirely.
    while (dead_in_heap_ != 0 && !heap_.empty() &&
           !slot_ref(heap_.top().slot).live) {
      release_slot(heap_.top().slot);
      heap_.pop();
      --dead_in_heap_;
    }
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;  // address-stable slot slab
  std::uint32_t slot_count_ = 0;       // slots handed out so far
  QuadHeap<Entry> heap_;
  std::uint32_t free_head_ = kNoSlot;  // intrusive free list through slots
  std::size_t live_ = 0;               // pushed minus popped/cancelled
  std::size_t dead_in_heap_ = 0;       // cancelled entries not yet purged
};

}  // namespace mtds::util
