#include "core/byz_sync.h"

#include <algorithm>
#include <cmath>

namespace mtds::core {

// mtds:no-alloc
SyncOutcome ByzantineSync::on_round(const LocalState& local,
                                    std::span<const TimeReading> replies) const {
  SyncOutcome out;
  if (replies.empty()) return out;

  // IM-2's transform into offset intervals relative to the local clock,
  // aged to now - identical to IMFT's front end - then collapsed to
  // (midpoint, half-width) pairs: trimming orders by midpoint, and the
  // widths only re-enter for the final error bound.
  entries_.clear();
  // mtds:alloc-ok(round scratch; clear() keeps capacity, so this reserve only allocates when the peer count grows)
  entries_.reserve(replies.size() + 1);
  entries_.push_back(Entry{0.0, local.error.seconds(), kInvalidServer});  // self
  for (const TimeReading& r : replies) {
    const Duration age = std::max(Duration{0.0}, local.clock - r.local_receive);
    const Offset pad = to_offset(local.delta * age);
    const Offset t_j = offset_between(r.c - r.e, r.local_receive) - pad;
    const Offset l_j =
        offset_between(r.c + r.e + (1.0 + local.delta) * r.rtt_own,
                       r.local_receive) +
        pad;
    // mtds:alloc-ok(writes into the capacity reserved at round start; the vector holds exactly replies+1 entries)
    entries_.push_back(Entry{(t_j.seconds() + l_j.seconds()) / 2.0,
                             (l_j.seconds() - t_j.seconds()) / 2.0, r.from});
  }

  const std::size_t n = entries_.size();
  const std::size_t f = max_faulty_ == kAuto ? (n - 1) / 3 : max_faulty_;
  if (n < 3 * f + 1) {
    // Too few participants to survive the requested trim: with both
    // survivor endpoints possibly faulty there is no honest anchor, so the
    // round fails rather than adopting garbage.  No individual blame - the
    // round is under-provisioned, not a peer.
    out.round_inconsistent = true;
    return out;
  }

  // Deterministic order: midpoint, then owner as tie-break so equal
  // midpoints sort identically whatever order the readings arrived in.
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              if (a.mid != b.mid) return a.mid < b.mid;
              return a.owner < b.owner;
            });

  // Discard the f lowest and f highest; survivors span [f, n-1-f].  With
  // n >= 3f + 1 at least one of the survivor endpoints is honest, so the
  // adopted midpoint lies within honest-reading distance of true time.
  const double lo = entries_[f].mid;
  const double hi = entries_[n - 1 - f].mid;
  const double chosen = (lo + hi) / 2.0;
  const double half_spread = (hi - lo) / 2.0;
  double widest = 0.0;
  for (std::size_t i = f; i <= n - 1 - f; ++i) {
    widest = std::max(widest, entries_[i].width);
  }
  // Two independently sound bounds on the post-reset error; take the min.
  //
  //  - round bound: true offset lies inside some honest survivor's
  //    interval, so |chosen - true| <= half_spread + widest survivor
  //    width.  This is the self-stabilizing arm: it needs no clean local
  //    history (a corrupted tracker re-acquires an honest bound here).
  //  - carry bound: the pre-round bound covered the old clock, so after
  //    shifting by `chosen` the old bound plus |chosen| still covers the
  //    new one.  This is the steady-state arm: without it every round
  //    would re-ingest peer-error + rtt terms and the fleet's bounds
  //    would inflate each other by ~xi per round forever.
  const double round_bound = half_spread + widest;
  const double carry_bound = local.error.seconds() + std::fabs(chosen);
  const double error = std::min(round_bound, carry_bound);

  // Individual blame: a reading whose own uncertainty cannot explain its
  // distance from the adopted offset is physically inconsistent with the
  // round - the same disjointness standard MM applies per reply.  Honest
  // extremes trimmed merely for being extreme are NOT blamed: their
  // interval still overlaps the adopted region.
  for (const Entry& entry : entries_) {
    if (entry.owner == kInvalidServer) continue;
    if (std::fabs(entry.mid - chosen) > entry.width + error) {
      out.inconsistent_with.push_back(entry.owner);
    }
  }

  // Always reset: the adopted offset is a pure function of this round's
  // readings, which is exactly what makes BYZ self-stabilizing - corrupted
  // local state survives at most until the next full round.
  ClockReset reset;
  reset.clock = local.clock + Offset{chosen};
  reset.error = ErrorBound{error};
  for (std::size_t i = f; i <= n - 1 - f; ++i) {
    if (entries_[i].owner != kInvalidServer) {
      reset.sources.push_back(entries_[i].owner);
    }
  }
  out.reset = reset;
  return out;
}

}  // namespace mtds::core
