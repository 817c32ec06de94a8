#include "core/imft_sync.h"

#include <algorithm>

namespace mtds::core {

SyncOutcome FaultTolerantIntersectionSync::on_round(
    const LocalState& local, std::span<const TimeReading> replies) const {
  SyncOutcome out;
  if (replies.empty()) return out;

  // IM-2's transform into offset intervals relative to the local clock,
  // aged to now; the local interval participates as entry 0.
  intervals_.clear();
  owners_.clear();
  // mtds:alloc-ok(member scratch; clear() keeps capacity, so these reserves only allocate when the peer count grows)
  intervals_.reserve(replies.size() + 1);
  owners_.reserve(replies.size() + 1);  // mtds:alloc-ok(same retained-capacity scratch as the line above)
  intervals_.push_back(TimeInterval::from_center_error(0.0, local.error.seconds()));
  owners_.push_back(kInvalidServer);  // self
  for (const TimeReading& r : replies) {
    const Duration age = std::max(Duration{0.0}, local.clock - r.local_receive);
    const Offset pad = to_offset(local.delta * age);
    const Offset t_j = offset_between(r.c - r.e, r.local_receive) - pad;
    const Offset l_j =
        offset_between(r.c + r.e + (1.0 + local.delta) * r.rtt_own,
                       r.local_receive) +
        pad;
    // mtds:alloc-ok(writes into the capacity reserved at round start; both vectors hold exactly replies+1 entries)
    intervals_.push_back(TimeInterval::from_edges(t_j.seconds(), l_j.seconds()));
    owners_.push_back(r.from);  // mtds:alloc-ok(same reservation as the interval above)
  }

  const bool found = best_intersection(intervals_, scratch_, best_);
  const std::size_t n = intervals_.size();
  const std::size_t quorum =
      max_faulty_ == kMajority ? n / 2 + 1
                               : (n > max_faulty_ ? n - max_faulty_ : 1);

  if (!found || best_.coverage < quorum) {
    // Not enough agreement to trust any region - and, symmetrically, no
    // basis to blame any individual server: a no-quorum round implicates
    // the round, not a peer.  (Blaming every owner here used to feed all
    // of them - honest majority included - into the peer table's Section 4
    // quarantine streaks; only exclusion by a *successful* cover carries
    // individual blame, below.)
    out.round_inconsistent = true;
    return out;
  }

  // Excluded servers (their interval does not contain the chosen region)
  // are reported for recovery/diagnosis even though the round succeeds.
  // mtds:alloc-ok(membership scratch sized to replies+1; capacity is retained across rounds like the interval buffers)
  member_.assign(n, false);
  for (std::size_t idx : best_.members) member_[idx] = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (!member_[i] && owners_[i] != kInvalidServer) {
      out.inconsistent_with.push_back(owners_[i]);
    }
  }

  ClockReset reset;
  reset.clock = local.clock + Offset{best_.interval.midpoint()};
  reset.error = best_.interval.radius();
  for (std::size_t idx : best_.members) {
    if (owners_[idx] != kInvalidServer) reset.sources.push_back(owners_[idx]);
  }
  out.reset = reset;
  return out;
}

}  // namespace mtds::core
