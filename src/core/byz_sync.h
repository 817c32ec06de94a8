// Algorithm BYZ: approximate-agreement selection over first- and
// second-hand readings.
//
// IMFT (Marzullo selection) guarantees a correct region only while the
// chosen cover clears a quorum of n/2 + 1 honest intervals - a TwoFaced hub
// that tells each victim a different consistent story defeats it without
// ever tripping that condition (`byzantine_twofaced.mtds`).  BYZ takes the
// approximate-agreement route of the fault-resistant clock function of
// Hoch, Ben-Or & Dolev: convert every reading to a midpoint offset, discard
// the f highest and f lowest, and adopt the midpoint of the surviving
// spread.  With n >= 3f + 1 participants at least one survivor endpoint is
// honest, so the adopted offset lands inside the honest spread no matter
// what the f liars claim - no quorum over *intervals* is needed, which is
// what lets BYZ ride second-hand gossip notes past a star hub that
// controls every first-hand link.
//
// Self-stabilization (Khanchandani & Lenzen's contract): BYZ keeps no
// round-to-round state and *always* resets when it has readings - the
// adopted offset is a pure function of this round's inputs.  A server whose
// clock, error and peer memory have been arbitrarily corrupted therefore
// re-converges as soon as one full round of readings arrives: its own wild
// clock enters as the zero-offset entry, gets trimmed as an extreme, and
// the reset recenters it on the honest spread.  Tests assert re-convergence
// within K = 3 rounds of a `corrupt-state` fault.
//
// NOTE on correctness: like every trim scheme, the guarantee is conditional
// on the fault bound - with f_actual > floor((n-1)/3) liars both survivor
// endpoints can be faulty and the adopted midpoint is garbage.  The derived
// error bound is the min of two arms: a per-round bound (half the survivor
// spread plus the widest survivor uncertainty - sound with no clean local
// history, the self-stabilizing arm) and a carried bound (the pre-round
// bound plus the applied adjustment - sound only while the previous bound
// was, but the arm that keeps a fleet's bounds from inflating each other
// by a round-trip's worth every round).  After a corrupt-state fault the
// carried arm is untrustworthy exactly until the first reset whose round
// arm wins the min; the fault injector therefore always throws the clock a
// macroscopic (>= 1 s) distance, which forces that on the first full round.
#pragma once

#include <cstddef>
#include <vector>

#include "core/sync_function.h"

namespace mtds::core {

class ByzantineSync final : public SyncFunction {
 public:
  // max_faulty: how many readings may be Byzantine.  kAuto (the default)
  // derives f = floor((n - 1) / 3) from the round size, the largest f with
  // n >= 3f + 1.  An explicit f turns rounds with n < 3f + 1 participants
  // into failed (round_inconsistent) rounds instead of silently trimming
  // less than requested.
  static constexpr std::size_t kAuto = ~std::size_t{0};

  explicit ByzantineSync(std::size_t max_faulty = kAuto)
      : max_faulty_(max_faulty) {}

  SyncMode mode() const noexcept override { return SyncMode::kPerRound; }
  std::string_view name() const noexcept override { return "BYZ"; }

  SyncOutcome on_round(const LocalState& local,
                       std::span<const TimeReading> replies) const override;

 private:
  struct Entry {
    double mid = 0.0;    // offset-interval midpoint, seconds
    double width = 0.0;  // offset-interval half-width, seconds
    ServerId owner = kInvalidServer;
  };

  std::size_t max_faulty_;
  // Round scratch, IMFT-style: on_round runs once per sync round per
  // server, contents are meaningless between rounds, and the runtimes
  // serialize a server's callbacks, so reuse is safe without locks.
  mutable std::vector<Entry> entries_;
};

}  // namespace mtds::core
