#include "core/clock.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace mtds::core {

DriftingClock::DriftingClock(double drift, ClockTime initial, RealTime start)
    : base_real_(start), base_clock_(initial), drift_(drift) {
  if (drift <= -1.0) {
    throw std::invalid_argument("DriftingClock: drift must be > -1 (clock must move forward)");
  }
}

ClockTime DriftingClock::read(RealTime t) {
  return base_clock_ + (t - base_real_) * (1.0 + drift_);
}

void DriftingClock::set(RealTime t, ClockTime value) {
  base_real_ = t;
  base_clock_ = value;
}

void DriftingClock::set_drift(RealTime t, double drift) {
  if (drift <= -1.0) {
    // mtds:alloc-ok(cold guard; drift specs are validated at scenario parse time, a running clock never crosses -1)
    throw std::invalid_argument("DriftingClock: drift must be > -1");
  }
  // Rebase so the clock value is continuous across the rate change.
  base_clock_ = read(t);
  base_real_ = t;
  drift_ = drift;
}

FaultyClock::FaultyClock(std::unique_ptr<DriftingClock> inner,
                         ClockFault fault)
    : inner_(std::move(inner)), fault_(fault) {
  assert(inner_ != nullptr);
}

ClockTime FaultyClock::read(RealTime t) {
  switch (fault_.kind) {
    case ClockFaultKind::kStopped:
      if (t >= fault_.start) {
        if (!frozen_) {
          frozen_value_ = inner_->read(fault_.start);
          frozen_ = true;
        }
        return frozen_value_;
      }
      return inner_->read(t);
    case ClockFaultKind::kRacing:
      if (t >= fault_.start && !applied_) {
        // Install the racing rate exactly at fault start so the value stays
        // continuous.
        inner_->set_drift(fault_.start,
                          (1.0 + inner_->drift()) * fault_.param - 1.0);
        applied_ = true;
      }
      return inner_->read(t);
    case ClockFaultKind::kStickyReset:
    case ClockFaultKind::kNone:
      return inner_->read(t);
  }
  return inner_->read(t);
}

void FaultyClock::set(RealTime t, ClockTime value) {
  if (fault_.kind == ClockFaultKind::kStickyReset && t >= fault_.start) {
    return;  // "refusing to change its value when reset"
  }
  if (fault_.kind == ClockFaultKind::kStopped && t >= fault_.start) {
    frozen_ = true;
    frozen_value_ = value;  // accepts the set, then freezes again
    return;
  }
  inner_->set(t, value);
}

double FaultyClock::rate(RealTime t) {
  if (fault_.kind == ClockFaultKind::kStopped && t >= fault_.start) return 0.0;
  return inner_->rate(t);
}

}  // namespace mtds::core
