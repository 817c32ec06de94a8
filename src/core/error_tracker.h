// Maximum-error bookkeeping (rule MM-1 / IM-1).
//
// A server maintains an inherited error epsilon, the clock value r at the
// last reset, and a claimed drift bound delta.  When asked the time at clock
// value C it reports
//
//     E(C) = epsilon + (C - r) * delta
//
// i.e. the inherited error plus the deterioration accumulated since the last
// reset, estimated on the server's own clock (valid to first order in delta,
// which the paper assumes throughout).
#pragma once

#include <stdexcept>

#include "core/time_types.h"

namespace mtds::core {

class ErrorTracker {
 public:
  // delta >= 0: claimed upper bound on |1 - dC/dt|.
  // initial_error >= 0: epsilon at creation.
  // initial_clock: r at creation (the clock's value "when last reset").
  ErrorTracker(double delta, ErrorBound initial_error, ClockTime initial_clock)
      : delta_(delta), epsilon_(initial_error), reset_clock_(initial_clock) {
    if (delta < 0) throw std::invalid_argument("ErrorTracker: delta must be >= 0");
    if (initial_error < Duration{0.0}) {
      throw std::invalid_argument("ErrorTracker: initial error must be >= 0");
    }
  }

  // E_i(t) given the current clock reading C_i(t).  The elapsed term is
  // clamped at zero: a clock that was (faultily) set backward must not
  // *shrink* its reported error.
  ErrorBound error_at(ClockTime c) const noexcept {
    const Duration elapsed = c - reset_clock_;
    return epsilon_ + (elapsed > Duration{0.0} ? elapsed : Duration{0.0}) * delta_;
  }

  // Applies a reset: the server adopted clock value `new_clock` with
  // inherited error `new_epsilon` (rule MM-2: eps <- E_j + (1+delta)xi,
  // r <- C_j; rule IM-2: eps <- (b-a)/2, r <- midpoint).
  void reset(ClockTime new_clock, ErrorBound new_epsilon) {
    if (new_epsilon < Duration{0.0}) {
      // mtds:alloc-ok(cold guard; both MM-2 and IM-2 derive the inherited error from non-negative terms, so a correct caller never reaches this)
      throw std::invalid_argument("ErrorTracker: negative inherited error");
    }
    epsilon_ = new_epsilon;
    reset_clock_ = new_clock;
  }

  double delta() const noexcept { return delta_; }

 private:
  double delta_;
  ErrorBound epsilon_;
  ClockTime reset_clock_;
};

}  // namespace mtds::core
