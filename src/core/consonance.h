// Consonance: consistency applied to clock *rates* (Section 5).
//
// Two clocks are consonant at t if their rate of separation is within the
// sum of their claimed drift bounds:
//
//     | d/dt (C_i - C_j) |  <=  delta_i + delta_j
//
// The paper's recovery story for inconsistent services is to run the same
// interval machinery over rates: each pairwise observation history yields a
// *rate interval* (measured relative rate +/- measurement uncertainty), and
// MM/IM-style reasoning over those intervals identifies servers whose actual
// drift violates their claimed bound.  This file holds the estimator; the
// judgement over a server's neighbours is service::PeerTable's rate column
// (dissonant(), refined_own_rate()).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/interval.h"
#include "core/time_types.h"

namespace mtds::core {

// One observation of a neighbour's clock against our own.
struct RateObservation {
  ClockTime local;     // C_i at receipt
  ClockTime remote;    // C_j as reported (midpoint-adjusted by caller)
  Duration rtt_own;    // xi^i_j: bounds the sampling uncertainty
};

// Estimates the relative rate d(C_j - C_i)/dC_i of one neighbour from a
// sliding window of observations, with an uncertainty derived from the
// message-delay bound.  With w observations spanning local duration D and
// per-sample uncertainty up to xi, the two-point rate estimate carries
// uncertainty <= (first.rtt + last.rtt) / D.
class RateEstimator {
 public:
  // window >= 2 observations are required before estimates are available.
  explicit RateEstimator(std::size_t window = 8);

  void add(const RateObservation& obs);
  void clear() noexcept { observations_.clear(); }
  std::size_t size() const noexcept { return observations_.size(); }

  // Least-squares relative rate over the window; nullopt until 2
  // observations span a non-zero local duration.
  std::optional<double> relative_rate() const;

  // Rate interval [rate - u, rate + u]: the set of relative rates consistent
  // with the observations given bounded message delays.
  std::optional<TimeInterval> rate_interval() const;

 private:
  std::size_t window_;
  std::vector<RateObservation> observations_;
};

}  // namespace mtds::core
