// Shared helpers for the experiment binaries (bench/exp_*, bench/fig_*).
//
// Each binary regenerates one figure or experimental claim from the paper
// (see DESIGN.md section 3) and prints a paper-vs-measured comparison.  The
// binaries also self-check: they exit non-zero if the measured shape
// contradicts the paper, so `for b in build/bench/*; do $b; done` doubles as
// a reproduction gate.
#pragma once

#include <cstdio>
#include <string>

#include "service/config.h"
#include "service/time_service.h"
#include "util/flags.h"

namespace mtds::bench {

inline int g_failures = 0;

inline void heading(const std::string& title, const std::string& paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================\n");
}

inline void check(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

inline int finish() {
  if (g_failures > 0) {
    std::printf("\n%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall checks passed\n");
  return 0;
}

// A uniform server spec used by several experiments.
inline service::ServerSpec basic_server(core::SyncAlgorithm algo,
                                        double claimed_delta,
                                        double simulated_drift,
                                        double initial_error,
                                        double initial_offset,
                                        double poll_period) {
  service::ServerSpec s;
  s.algo = algo;
  s.claimed_delta = claimed_delta;
  s.simulated_drift = simulated_drift;
  s.initial_error = initial_error;
  s.initial_offset = core::Offset{initial_offset};
  s.poll_period = poll_period;
  return s;
}

}  // namespace mtds::bench
