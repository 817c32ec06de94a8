// Service-wide invariant checkers.
//
// The theorems make claims about every instant of a run; these helpers sweep
// a recorded Trace and verify them: correctness (Theorems 1/5), pairwise
// consistency (Section 2.3), asynchronism bounds (Theorems 3/7), minimum
// error monotonicity (Lemma 3) and long-term error growth (Theorem 4's
// corollary).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/time_types.h"
#include "sim/trace.h"
#include "util/stats.h"

namespace mtds::service {

using core::Duration;
using core::RealTime;
using core::ServerId;

struct Violation {
  RealTime t;
  ServerId server;        // second party in pairwise checks: `peer`
  ServerId peer;
  Duration magnitude;     // how badly the invariant failed
  std::string what;
};

struct CorrectnessReport {
  std::size_t samples_checked = 0;
  std::vector<Violation> violations;
  double worst_ratio = 0.0;  // max |offset| / E over all samples
  bool ok() const noexcept { return violations.empty(); }
};

// |C_i(t) - t| <= E_i(t) at every sample.
CorrectnessReport check_correctness(const sim::Trace& trace, double tol = 1e-9);

struct ConsistencyReport {
  std::size_t pairs_checked = 0;
  std::vector<Violation> violations;
  bool ok() const noexcept { return violations.empty(); }
};

// |C_i - C_j| <= E_i + E_j for every co-sampled pair.
ConsistencyReport check_pairwise_consistency(const sim::Trace& trace,
                                             double tol = 1e-9);

struct AsynchronismReport {
  Duration max_observed = 0.0;
  RealTime worst_time = 0.0;
  ServerId worst_i = core::kInvalidServer;
  ServerId worst_j = core::kInvalidServer;
  // Per-sample-time maximum spread, for plotting.
  std::vector<RealTime> times;
  std::vector<Duration> spread;
};

// max over sample times of max_ij |C_i - C_j|.
AsynchronismReport measure_asynchronism(const sim::Trace& trace);

struct GradientReport {
  std::size_t edges_checked = 0;  // (edge, sample-time) pairs examined
  std::vector<Violation> violations;
  Duration max_edge_spread = 0.0;  // worst |C_i - C_j| over any edge
  RealTime worst_time = 0.0;
  ServerId worst_i = core::kInvalidServer;
  ServerId worst_j = core::kInvalidServer;
};

// Gradient clock synchronization invariant (Kuhn et al., PAPERS.md): the
// asynchronism checkers above bound the *global* spread; gradient sync
// demands more - every pair of network *neighbors* stays within a
// neighbor-distance bound at all times, so close-by nodes never disagree
// badly even while far-apart ones legitimately drift.  Sweeps every
// co-sampled topology edge (i, j) in `edges` and reports each instant where
// |C_i - C_j| > bound.  Works on any merged trace, so every shard count is
// covered by the same sweep.  Pass only the edges
// between servers the bound should govern (e.g. the honest subgraph when
// adversaries are present).
// mtds:test-api(adversary_test's gradient-property check on adversarial runs)
GradientReport check_gradient(
    const sim::Trace& trace,
    const std::vector<std::pair<ServerId, ServerId>>& edges, Duration bound,
    double tol = 1e-9);

struct ErrorGrowthReport {
  // Smallest / largest error across servers at each sample time.
  std::vector<RealTime> times;
  std::vector<Duration> min_error;
  std::vector<Duration> max_error;
  util::LinearFit min_fit;   // slope = long-term error growth rate
  util::LinearFit max_fit;
  bool min_monotonic = true; // Lemma 3: E_M never decreases
};

ErrorGrowthReport measure_error_growth(const sim::Trace& trace);

}  // namespace mtds::service
