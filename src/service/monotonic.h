// Monotonic clock adapter (Section 1.1).
//
// The service's clocks "may be freely set backward as well as forward"; a
// client needing local monotonicity builds it on top: "such a clock may be
// implemented based on a nonmonotonic clock by temporarily running the
// monotonic clock more slowly when the nonmonotonic clock is set backwards."
//
// This adapter consumes successive readings of the raw clock and produces a
// non-decreasing view.  While the raw clock is behind the emitted value
// (because it was set backward), the adapter advances at `slew_rate` times
// raw progress (0 <= slew_rate < 1) until the raw clock catches up, after
// which it tracks the raw clock exactly.  Forward steps pass through
// unchanged (monotonicity only forbids going backward).
#pragma once


#include "core/time_types.h"

namespace mtds::service {

class MonotonicAdapter {
 public:
  // slew_rate in [0, 1): 0 freezes while ahead, 0.5 runs at half speed.
  explicit MonotonicAdapter(double slew_rate = 0.5);

  // Feeds the next raw reading (raw readings themselves arrive in call
  // order; the raw *value* may jump either way).  Returns the monotonic
  // value.
  core::ClockTime read(core::ClockTime raw);

  // True while the adapter is slewing (output ahead of raw clock).
  bool slewing() const noexcept { return ahead_; }

 private:
  double slew_rate_;
  bool initialized_ = false;
  bool ahead_ = false;
  core::ClockTime out_ = 0.0;
  core::ClockTime last_raw_ = 0.0;
};

}  // namespace mtds::service
