// Algorithm IMFT: fault-tolerant intersection.
//
// Plain IM (Section 4) intersects every reply; a single server with an
// invalid bound empties the intersection and stalls the round.  The paper's
// pointer to [Marzullo 83] - the extension "to deal with failing clocks" -
// is the algorithm now known as Marzullo's algorithm: take the smallest
// interval contained in the MAXIMUM number of reply intervals.  If at most
// f of the n participants are faulty and the chosen region is covered by at
// least n - f of them, the region must contain true time.
//
// IMFT runs IM's transform, then selects via best_intersection:
//   * if every interval agrees, it reduces exactly to IM;
//   * otherwise it adopts the max-coverage region when the coverage clears
//     the quorum (participants - max_faulty), and reports the excluded
//     servers as inconsistent;
//   * if even the best region lacks quorum, the round fails like IM's
//     b <= a case.
//
// NOTE on correctness: IMFT's guarantee is conditional on the fault bound
// f actually holding - with more than f invalid-bound servers it can adopt
// an incorrect region (garbage in, garbage out); Theorem 5's unconditional
// proof applies only to the degenerate all-consistent case.
#pragma once

#include <cstddef>
#include <vector>

#include "core/marzullo.h"
#include "core/sync_function.h"

namespace mtds::core {

class FaultTolerantIntersectionSync final : public SyncFunction {
 public:
  // max_faulty: how many replies may be wrong.  kMajority (the default)
  // derives f from the round size: the region must be covered by a strict
  // majority of participants (self included), the DTSS choice.
  static constexpr std::size_t kMajority = ~std::size_t{0};

  explicit FaultTolerantIntersectionSync(std::size_t max_faulty = kMajority)
      : max_faulty_(max_faulty) {}

  SyncMode mode() const noexcept override { return SyncMode::kPerRound; }
  std::string_view name() const noexcept override { return "IMFT"; }

  SyncOutcome on_round(const LocalState& local,
                       std::span<const TimeReading> replies) const override;

 private:
  std::size_t max_faulty_;
  // Round scratch: on_round runs once per sync round per server, so its
  // transform buffers and the Marzullo sweep reuse this storage instead of
  // allocating.  Logically const (contents are meaningless between rounds);
  // safe without locks because each server owns its sync function and the
  // runtimes serialize a server's callbacks.
  mutable std::vector<TimeInterval> intervals_;
  mutable std::vector<ServerId> owners_;
  mutable std::vector<bool> member_;
  mutable MarzulloScratch scratch_;
  mutable BestIntersection best_;
};

}  // namespace mtds::core
