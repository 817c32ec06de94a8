#include "sim/event_queue.h"

#include <cmath>
#include <stdexcept>

namespace mtds::sim {

void EventQueue::set_delivery_sink(void* owner, DeliverFn fn, Duration span) {
  if (has_deliveries()) {
    throw std::logic_error(
        "EventQueue: delivery sink set with deliveries pending");
  }
  sink_owner_ = owner;
  sink_fn_ = fn;
  if (span > 0 && std::isfinite(span.seconds())) {
    inv_width_ = static_cast<double>(kBuckets - 1) / span.seconds();
    heads_.assign(kBuckets, kNoSlot);
  } else {
    inv_width_ = 0.0;
    heads_.clear();
  }
}

// Slots come from the owner's pool, which grows one slot at a time, so the
// node array grows geometrically beside it.  The run can hold every ring
// key, and no two ring keys share a slot, so reserving it to the node
// count here keeps the run's insert and gather free of allocation.
void EventQueue::grow_nodes(std::uint32_t slot) {
  const std::size_t size = std::max<std::size_t>(slot + std::size_t{1},
                                                 2 * nodes_.size());
  nodes_.resize(size);  // mtds:alloc-ok(grows with the owner's pool, geometrically, and keeps its capacity; a warm pool reuses its slots)
  run_.reserve(size);   // mtds:alloc-ok(reserves with the node array so the run's insert and gather never reallocate)
}

// The throw sites live here so the inline schedule paths carry only a
// compare-and-branch; the exception machinery stays out of the hot TUs.

void EventQueue::throw_past() {
  // mtds:alloc-ok(cold guard path; scheduling in the past is a caller bug and the throw is deliberately out of line)
  throw std::invalid_argument("EventQueue: cannot schedule in the past");
}

void EventQueue::throw_negative() {
  // mtds:alloc-ok(cold guard path; a negative delay is a caller bug and the throw is deliberately out of line)
  throw std::invalid_argument("EventQueue: negative delay");
}

void EventQueue::throw_full() {
  // mtds:alloc-ok(cold guard path; a delivery key has 24 bits of slot and 40 of seq)
  throw std::length_error("EventQueue: delivery key space exhausted");
}

}  // namespace mtds::sim
