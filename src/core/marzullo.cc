#include "core/marzullo.h"

#include <algorithm>

namespace mtds::core {
namespace {

// Starts sort before ends at equal values so intervals touching at a point
// count as overlapping there (consistency admits |C_i - C_j| = E_i + E_j).
// mtds:no-alloc
void fill_sorted_edges(std::span<const TimeInterval> intervals,
                       std::vector<MarzulloScratch::Edge>& edges) {
  edges.clear();
  // mtds:alloc-ok(scratch capacity; grows to 2n on first use and is reused every round thereafter - alloc_test gates the steady state)
  edges.reserve(intervals.size() * 2);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const auto idx = static_cast<std::uint32_t>(i);
    edges.push_back({intervals[i].lo(), +1, idx});   // mtds:alloc-ok(within the reservation above)
    edges.push_back({intervals[i].hi(), -1, idx});   // mtds:alloc-ok(within the reservation above)
  }
  std::sort(edges.begin(), edges.end(),
            [](const MarzulloScratch::Edge& a, const MarzulloScratch::Edge& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.delta > b.delta;
            });
}

}  // namespace

// mtds:no-alloc
bool best_intersection(std::span<const TimeInterval> intervals,
                       MarzulloScratch& scratch, BestIntersection& out) {
  if (intervals.empty()) return false;
  auto& edges = scratch.edges;
  fill_sorted_edges(intervals, edges);

  std::size_t best = 0;
  double best_lo = 0.0, best_hi = 0.0;
  std::size_t best_edge = 0;  // index of the start edge that set `best`
  std::size_t count = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].delta > 0) {
      ++count;
      if (count > best) {
        best = count;
        best_lo = edges[i].value;
        // The region of this coverage extends to the next edge value.
        best_hi = (i + 1 < edges.size()) ? edges[i + 1].value : edges[i].value;
        best_edge = i;
      }
    } else {
      --count;
    }
  }

  out.interval = TimeInterval::from_edges(best_lo, best_hi);
  out.coverage = best;

  // Members fall out of the same sweep: replay edges[0..best_edge], flagging
  // an interval open on its start edge and closed on its end edge (a
  // branchless store per edge).  The open set at the winning start edge is
  // exactly the set of intervals containing the best region: anything ending
  // before best_lo has closed, and because starts sort ahead of ends at
  // equal values, an interval whose hi == best_lo is still open there - and
  // in that case the next edge pins best_hi to best_lo, so containment
  // agrees.  Collecting by scanning the flags emits members in ascending
  // index order for free.
  auto& flag = scratch.active_flag;
  // mtds:alloc-ok(scratch capacity; assign reuses the flag buffer once it has grown to n)
  flag.assign(intervals.size(), 0);
  for (std::size_t i = 0; i <= best_edge; ++i) {
    const auto& e = edges[i];
    flag[e.index] = static_cast<unsigned char>(e.delta > 0);
  }
  out.members.clear();
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    if (flag[i] != 0) out.members.push_back(i);  // mtds:alloc-ok(caller-owned result vector; IMFT reuses one BestIntersection across rounds so capacity persists)
  }
  return true;
}

std::optional<BestIntersection> best_intersection(
    std::span<const TimeInterval> intervals) {
  MarzulloScratch scratch;
  BestIntersection result;
  if (!best_intersection(intervals, scratch, result)) return std::nullopt;
  return result;
}

std::optional<TimeInterval> intersect_all(std::span<const TimeInterval> intervals) {
  if (intervals.empty()) return std::nullopt;
  TimeInterval acc = intervals.front();
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    auto next = acc.intersect(intervals[i]);
    if (!next) return std::nullopt;
    acc = *next;
  }
  return acc;
}

std::optional<BestIntersection> intersect_adaptive(
    std::span<const TimeInterval> intervals) {
  // best_intersection already yields the maximum achievable coverage, so the
  // smallest tolerable f is n - coverage.
  return best_intersection(intervals);
}

std::vector<ConsistencyGroup> consistency_groups(
    std::span<const TimeInterval> intervals, MarzulloScratch& scratch) {
  std::vector<ConsistencyGroup> groups;
  if (intervals.empty()) return groups;

  // Candidate regions: every point at an edge value and every open region
  // between consecutive edge values.  For each, the active member set is a
  // candidate group; maximal distinct sets survive.
  auto& values = scratch.values;
  values.clear();
  values.reserve(intervals.size() * 2);
  for (const auto& iv : intervals) {
    values.push_back(iv.lo());
    values.push_back(iv.hi());
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  // Probe points advance left to right, so a repeated member set can only
  // recur with a strict superset in between (intervals are convex); those
  // repeats die in the maximality filter anyway.  Deduplicating against just
  // the previous set therefore matches the old global std::set dedupe -
  // without a red-black tree of vectors per call.
  auto& members = scratch.members;
  auto& prev = scratch.prev_members;
  prev.clear();
  std::vector<ConsistencyGroup> candidates;
  auto consider = [&](double point) {
    members.clear();
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      if (intervals[i].contains(point)) members.push_back(i);
    }
    if (members.empty() || members == prev) return;
    prev = members;
    // Common region of the member set.
    TimeInterval common = intervals[members.front()];
    for (std::size_t k = 1; k < members.size(); ++k) {
      common = *common.intersect(intervals[members[k]]);
    }
    candidates.push_back({members, common});
  };

  for (std::size_t i = 0; i < values.size(); ++i) {
    consider(values[i]);
    if (i + 1 < values.size()) consider(0.5 * (values[i] + values[i + 1]));
  }

  // Drop member sets that are subsets of another candidate's member set.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    bool maximal = true;
    for (std::size_t j = 0; j < candidates.size() && maximal; ++j) {
      if (i == j) continue;
      const auto& a = candidates[i].members;
      const auto& b = candidates[j].members;
      if (a.size() < b.size() &&
          std::includes(b.begin(), b.end(), a.begin(), a.end())) {
        maximal = false;
      }
    }
    if (maximal) groups.push_back(candidates[i]);
  }

  std::sort(groups.begin(), groups.end(),
            [](const ConsistencyGroup& a, const ConsistencyGroup& b) {
              return a.intersection.lo() < b.intersection.lo();
            });
  return groups;
}

std::vector<ConsistencyGroup> consistency_groups(
    std::span<const TimeInterval> intervals) {
  MarzulloScratch scratch;
  return consistency_groups(intervals, scratch);
}

}  // namespace mtds::core
