// Clock models (Section 2.1).
//
// A clock is a function C(t) mapping real time to clock time, continuous
// between resets.  A perfect clock has C(t) = t; a real clock drifts with
// |1 - dC/dt| <= delta.  The simulator owns real time t and asks the clock
// what it reads; a deployment (src/net) derives t from CLOCK_MONOTONIC.
#pragma once

#include <memory>

#include "core/time_types.h"

namespace mtds::core {

class Clock {
 public:
  virtual ~Clock() = default;

  // Value of the clock at real time t.
  virtual ClockTime read(RealTime t) = 0;

  // Resets the clock so that C(t) == value ("clocks may be freely set
  // backward as well as forward", Section 1.1).
  virtual void set(RealTime t, ClockTime value) = 0;

  // Instantaneous rate dC/dt at real time t (1.0 = accurate).
  virtual double rate(RealTime t) = 0;
};

// Clock running at a constant rate 1 + drift.  drift = 0 gives a perfect
// clock (up to its initial offset).
class DriftingClock : public Clock {
 public:
  // C(start) = initial; dC/dt = 1 + drift thereafter.
  explicit DriftingClock(double drift = 0.0, ClockTime initial = 0.0,
                         RealTime start = 0.0);

  ClockTime read(RealTime t) override;
  void set(RealTime t, ClockTime value) override;
  double rate(RealTime) override { return 1.0 + drift_; }

  // Changes the drift from real time t on (rebases so C stays continuous).
  void set_drift(RealTime t, double drift);
  double drift() const noexcept { return drift_; }

 private:
  RealTime base_real_;
  ClockTime base_clock_;
  double drift_;
};

// Failure modes from Section 1.1: "a clock may fail in many ways, such as by
// stopping, racing ahead, or refusing to change its value when reset."
enum class ClockFaultKind {
  kNone,
  kStopped,     // C freezes at its value at fault time
  kRacing,      // rate multiplied by `param` (e.g. 2.0) from fault time
  kStickyReset  // set() silently ignored from fault time
};

struct ClockFault {
  ClockFaultKind kind = ClockFaultKind::kNone;
  RealTime start = 0.0;   // fault activates at this real time
  double param = 1.0;     // meaning depends on kind
};

// Decorator injecting a failure mode into a drifting clock (a racing
// fault rescales the inner clock's drift at fault start).
class FaultyClock : public Clock {
 public:
  FaultyClock(std::unique_ptr<DriftingClock> inner, ClockFault fault);

  ClockTime read(RealTime t) override;
  void set(RealTime t, ClockTime value) override;
  double rate(RealTime t) override;

 private:
  std::unique_ptr<DriftingClock> inner_;
  ClockFault fault_;
  bool applied_ = false;    // racing: rate multiplier installed
  bool frozen_ = false;     // stopped: value latched
  ClockTime frozen_value_ = 0.0;
};

}  // namespace mtds::core
