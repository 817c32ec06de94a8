#include "sim/event_queue.h"

#include <stdexcept>

namespace mtds::sim {

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
