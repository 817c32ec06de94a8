// Fuzz entry for sim::EventQueue's (time, seq) order.
//
// Contract under test: whatever mix of timers, cancels, deliveries and run
// calls a caller makes, every event runs in the order of one sorted set of
// (time, seq) keys - across the timer heap, the calendar ring's run and
// bucket lists, and the overflow heap.  The first byte picks the ring's
// span; every following four bytes decode into one operation for
// model::QueueModel, which checks each event against its reference set.
// The first mismatch aborts.
#include <cstdio>
#include <cstdlib>

#include "event_queue_model.h"

#include "fuzz/file_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using mtds::sim::model::Operation;
  using mtds::sim::model::OpKind;
  if (size == 0) return 0;
  constexpr double kSpans[] = {0.0, 1e-3, 1.0, 0.37};
  mtds::sim::model::QueueModel model(kSpans[data[0] % 4]);
  for (std::size_t i = 1; i + 4 <= size; i += 4) {
    model.apply(Operation{
        static_cast<OpKind>(data[i] % static_cast<int>(OpKind::kCount)),
        data[i + 1], data[i + 2], data[i + 3]});
  }
  model.finish();
  if (!model.ok()) {
    std::fprintf(stderr, "fuzz_event_queue: %s\n", model.error().c_str());
    std::abort();
  }
  return 0;
}
