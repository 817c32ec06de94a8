// Message delay models (Section 2.2's assumptions).
//
// The paper assumes nondeterministic one-way delays with minimum zero and a
// known bound xi on the round trip; both algorithms consume only the bound
// and the measured own-clock round trip.  Every model here reports its
// max_delay() so services can derive a sound xi.
#pragma once

#include <memory>

#include "core/time_types.h"
#include "sim/rng.h"

namespace mtds::sim {

using core::Duration;

class DelayModel {
 public:
  virtual ~DelayModel() = default;

  // Samples a one-way delay; must satisfy min_delay() <= delay <= max_delay().
  virtual Duration sample(Rng& rng) const = 0;

  // Hard upper bound on one-way delay.
  virtual Duration max_delay() const noexcept = 0;

  // Hard lower bound on one-way delay (the paper's sigma_j >= min network
  // delay).  The sharded engine uses the minimum over all links as its
  // conservative lookahead window; zero is always sound and is the default.
  virtual Duration min_delay() const noexcept { return Duration{0.0}; }
};

// Constant delay (degenerate but useful in tests and worst-case setups).
class FixedDelay final : public DelayModel {
 public:
  explicit FixedDelay(Duration d);
  Duration sample(Rng&) const override { return delay_; }
  Duration max_delay() const noexcept override { return delay_; }
  Duration min_delay() const noexcept override { return delay_; }

 private:
  Duration delay_;
};

// Uniform in [lo, hi] - the paper's "nondeterministic and bounded" default
// with lo = 0.
class UniformDelay final : public DelayModel {
 public:
  UniformDelay(Duration lo, Duration hi);
  Duration sample(Rng& rng) const override;
  Duration max_delay() const noexcept override { return hi_; }
  Duration min_delay() const noexcept override { return lo_; }

 private:
  Duration lo_, hi_;
};

// Exponential with the given mean, truncated at `cap` (keeps the bound the
// algorithms require while modelling realistic long-tailed networks).
class TruncatedExponentialDelay final : public DelayModel {
 public:
  // mtds:test-api(adversarial_network_test builds a bursty link with it)
  TruncatedExponentialDelay(Duration mean, Duration cap);
  Duration sample(Rng& rng) const override;
  Duration max_delay() const noexcept override { return cap_; }

 private:
  Duration mean_, cap_;
};

std::unique_ptr<DelayModel> make_uniform_delay(Duration lo, Duration hi);

}  // namespace mtds::sim
