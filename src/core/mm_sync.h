// Algorithm MM: minimization of the maximum error (Section 3).
//
// Rule MM-2: when a consistent reply <C_j, E_j> arrives with own-clock
// round-trip xi^i_j, evaluate
//
//     E_j + (1 + delta_i) * xi^i_j  <=  E_i
//
// If true, reset:  epsilon_i <- E_j + (1+delta_i) xi^i_j,  C_i <- C_j,
// r_i <- C_j.  Inconsistent replies are ignored and reported so a recovery
// policy can act on them: a reply is inconsistent when its interval, read
// xi^i_j ago, cannot overlap the local one, i.e. when
// C_j - E_j > C_i + E_i  or  C_i - E_i > C_j + E_j + (1 + delta_i) xi^i_j.
#pragma once

#include "core/sync_function.h"

namespace mtds::core {

class MinMaxErrorSync final : public SyncFunction {
 public:
  SyncMode mode() const noexcept override { return SyncMode::kPerReply; }
  std::string_view name() const noexcept override { return "MM"; }

  SyncOutcome on_reply(const LocalState& local,
                       const TimeReading& reply) const override;
};

}  // namespace mtds::core
