// The benchmark's workloads.  Each takes the run arguments, builds its
// inputs from the seed, measures for the requested seconds and checks the
// program's outputs.  End-to-end metrics are measured untraced; with
// args.trace the same workload runs with spans and reports per-layer
// metrics instead (main() keeps the set the run mode asks for).
#pragma once

#include "bench_util.h"

namespace perfbench {

// "fleet-sharded" and "byz-gossip": simulated fleets (sim_workloads.cc).
bool is_sim_workload(const std::string& name);
Result run_sim_workload(const RunArgs& args);

// "serve-udp": three UDP daemons and a closed-loop client (serve_udp.cc).
Result run_serve_udp(const RunArgs& args);

}  // namespace perfbench
