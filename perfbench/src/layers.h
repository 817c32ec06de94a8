// Per-layer replays: the benchmark calls one layer's public function on
// inputs taken from the live workload and times it in isolation.
#pragma once

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "core/reading.h"
#include "core/sync_function.h"
#include "service/snapshot.h"

namespace perfbench {

// Inputs captured from a workload at the end of its measured phase.
struct LayerInputs {
  // A live server's state and the readings it would collect from every
  // other running server at that instant (the workload's round size).
  mtds::core::LocalState local;
  std::vector<mtds::core::TimeReading> readings;
  // Snapshot of that server, as its serving plane would publish it.
  mtds::service::ClockSnapshot snapshot;
  // Sync rounds per wall second the workload measured (drives the seqlock
  // publisher).
  double publish_hz = 1.0;
  std::uint64_t seed = 1;
};

// Adds core.sync_round_us.{MM,IM,IMFT,BYZ}, net.serve_batch_ns_per_datagram
// and util.seqlock_read_ns, each recorded as spans in `spans`.
void add_layer_replays(const LayerInputs& in, SpanRecorder& spans,
                       Result& out);

}  // namespace perfbench
