// Marzullo's intersection algorithm and fault-tolerant selection.
//
// Section 4 intersects *all* intervals, which fails as soon as one server is
// wrong (Section 5).  The extension developed in [Marzullo 83] - and later
// adopted by NTP and DTSS - finds the smallest interval that is contained in
// the *maximum number* of source intervals: if at most f of n sources are
// faulty and m >= n - f sources agree on a region, that region must contain
// true time.
//
// All functions run in O(n log n): sort the 2n edges, sweep once.  Callers
// on a per-round hot path (IMFT, clients) keep a MarzulloScratch and use
// the scratch overloads: the sort buffers and member sets then live in
// reusable storage and steady-state rounds allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/interval.h"
#include "core/time_types.h"

namespace mtds::core {

struct BestIntersection {
  TimeInterval interval;        // first region with maximum coverage
  std::size_t coverage = 0;     // number of source intervals containing it
  std::vector<std::size_t> members;  // indices of those sources, ascending
};

// Reusable workspace for the sweep functions.  Contents are unspecified
// between calls; one instance per owner (not thread-safe, but the owners -
// sync functions, clients - are already serialized by their runtime).
struct MarzulloScratch {
  struct Edge {
    double value;
    std::int32_t delta;   // +1 interval starts, -1 interval ends
    std::uint32_t index;  // owning interval
  };
  std::vector<Edge> edges;
  std::vector<unsigned char> active_flag;  // member replay: interval open?
  std::vector<double> values;             // consistency_groups: edge values
  std::vector<std::size_t> members;       // consistency_groups: point set
  std::vector<std::size_t> prev_members;  // consistency_groups: last set
};

// The region of maximum overlap among `intervals` (Marzullo's algorithm).
// Returns nullopt only for empty input.  Ties on coverage: the earliest
// (left-most) region wins, matching the original formulation.
std::optional<BestIntersection> best_intersection(
    std::span<const TimeInterval> intervals);

// Allocation-free variant: fills `out` (reusing its members capacity) and
// returns false only for empty input.
bool best_intersection(std::span<const TimeInterval> intervals,
                       MarzulloScratch& scratch, BestIntersection& out);

// Intersection of all intervals; nullopt when empty (this is rule IM-2's
// combine step expressed over absolute intervals).
std::optional<TimeInterval> intersect_all(std::span<const TimeInterval> intervals);

// NTP/DTSS-style adaptive selection: the smallest f (0 <= f < n) for which
// some region is covered by n - f sources, i.e. assume as few faults as the
// data forces.  Never nullopt for non-empty input (f = n-1 always succeeds).
std::optional<BestIntersection> intersect_adaptive(
    std::span<const TimeInterval> intervals);

// A maximal group of mutually consistent servers: their intervals share a
// common region and no strict superset of them does (Figure 4's shaded
// areas).
struct ConsistencyGroup {
  std::vector<std::size_t> members;  // indices into the input span, sorted
  TimeInterval intersection;         // their common region
};

// Partitions an (possibly inconsistent) service into its consistency groups.
// Groups are returned left-to-right by their intersection; each group is
// maximal (no group's member set is a subset of another's).  A fully
// consistent service yields exactly one group containing every index.
std::vector<ConsistencyGroup> consistency_groups(
    std::span<const TimeInterval> intervals);

// Scratch-backed variant (the returned groups still allocate; the sweep's
// sort buffers and candidate point sets do not).
std::vector<ConsistencyGroup> consistency_groups(
    std::span<const TimeInterval> intervals, MarzulloScratch& scratch);

}  // namespace mtds::core
