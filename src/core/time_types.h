// Time vocabulary used across the library: a compile-time clock algebra.
//
// The paper reasons about four distinct quantities that are all "seconds"
// at runtime but must never be confused:
//
//   RealTime   - "perfect clock" time t (the simulator's ground truth; over
//                UDP, the host's CLOCK_MONOTONIC axis).  A point, not a
//                length.
//   ClockTime  - the value C_i(t) of some server's clock.  Also a point,
//                but on that server's own (drifting, resettable) axis.
//   Duration   - a signed length of time on either axis (delays xi, poll
//                periods tau, elapsed own-clock time, drift accumulations).
//   ErrorBound - a maximum error E_i(t): a non-negative duration with the
//                specific meaning "half-width of an interval guaranteed to
//                contain true time".  Validated (>= 0) at the bookkeeping
//                boundaries (ErrorTracker), not at construction, so tests
//                can exercise the rejection paths.
//   Offset     - rule IM-2's clock-relative quantity: the signed difference
//                between two time axes (remote clock vs local clock, or a
//                clock vs true time).  Adding two offsets of the same base
//                is meaningful; adding an Offset to a Duration is not.
//
// Instead of aliasing all of these to double (as the seed did), each is a
// tagged wrapper around double seconds with only the physically meaningful
// operators defined:
//
//   ClockTime - ClockTime -> Duration        RealTime - RealTime -> Duration
//   ClockTime + Duration  -> ClockTime       ClockTime + Offset -> ClockTime
//   Duration  +/- Duration -> Duration       scalar * Duration  -> Duration
//   ClockTime + ClockTime  -> COMPILE ERROR  ClockTime - RealTime -> COMPILE
//                                            ERROR (use offset_from_true)
//
// Conversion rules (deliberate, see docs/STATIC_ANALYSIS.md):
//   * A bare double converts implicitly INTO RealTime / ClockTime /
//     Duration / ErrorBound ("a literal is seconds on whatever axis the
//     context demands") - this keeps configuration structs and test
//     fixtures readable.  Offset construction is explicit: offsets are
//     always computed, never written as literals.
//   * Nothing converts implicitly OUT: leaving the typed world requires
//     .seconds().  Cross-kind conversion (ClockTime -> Duration, Duration
//     -> RealTime, ...) never compiles, which is the whole point.
//   * ErrorBound converts implicitly to Duration (every error bound is a
//     length); the reverse also converts so accumulation formulas like
//     eps + delta * elapsed assign back naturally.
//
// `Absolute - double -> Absolute` exists as an exact-match tie-breaker:
// without it `t - 0.5` would be ambiguous between "point minus 0.5 s"
// (double -> Duration) and "point minus point 0.5" (double -> RealTime).
// A bare double subtrahend always means seconds-of-duration.
//
// Nothing in the core depends on an epoch; 0.0 is just "when the scenario
// started".
#pragma once

#include <cstdint>
#include <ostream>

namespace mtds::core {

class Duration;
class ErrorBound;
class Offset;

// A signed length of time, in seconds.
class Duration {
 public:
  constexpr Duration() = default;
  constexpr Duration(double s) : s_(s) {}  // NOLINT(google-explicit-constructor)

  constexpr double seconds() const noexcept { return s_; }

 private:
  double s_ = 0.0;
};

[[nodiscard]] constexpr Duration operator+(Duration a, Duration b) noexcept {
  return Duration{a.seconds() + b.seconds()};
}
[[nodiscard]] constexpr Duration operator-(Duration a, Duration b) noexcept {
  return Duration{a.seconds() - b.seconds()};
}
[[nodiscard]] constexpr Duration operator-(Duration d) noexcept {
  return Duration{-d.seconds()};
}
[[nodiscard]] constexpr Duration operator*(Duration d, double k) noexcept {
  return Duration{d.seconds() * k};
}
[[nodiscard]] constexpr Duration operator*(double k, Duration d) noexcept {
  return Duration{k * d.seconds()};
}
[[nodiscard]] constexpr Duration operator/(Duration d, double k) noexcept {
  return Duration{d.seconds() / k};
}
// Ratio of two lengths is dimensionless.
[[nodiscard]] constexpr double operator/(Duration a, Duration b) noexcept {
  return a.seconds() / b.seconds();
}
constexpr bool operator==(Duration a, Duration b) noexcept {
  return a.seconds() == b.seconds();
}
// Each type spells out its four relationals and defines no operator<=>:
// gcc 12 compiles a relational synthesized from `<=>` on a double into a
// std::partial_ordering test with extra branches, which measured ~1.4x
// slower on the IM intersection scan (BM_IMRound/64); these compile to
// bare double compares.
constexpr bool operator<(Duration a, Duration b) noexcept {
  return a.seconds() < b.seconds();
}
constexpr bool operator>(Duration a, Duration b) noexcept {
  return a.seconds() > b.seconds();
}
constexpr bool operator<=(Duration a, Duration b) noexcept {
  return a.seconds() <= b.seconds();
}
constexpr bool operator>=(Duration a, Duration b) noexcept {
  return a.seconds() >= b.seconds();
}
constexpr Duration& operator+=(Duration& a, Duration b) noexcept {
  return a = a + b;
}
constexpr Duration& operator-=(Duration& a, Duration b) noexcept {
  return a = a - b;
}
constexpr Duration& operator*=(Duration& a, double k) noexcept {
  return a = a * k;
}
constexpr Duration& operator/=(Duration& a, double k) noexcept {
  return a = a / k;
}
[[nodiscard]] constexpr Duration abs(Duration d) noexcept {
  return d.seconds() < 0 ? Duration{-d.seconds()} : d;
}
inline std::ostream& operator<<(std::ostream& os, Duration d) {
  return os << d.seconds() << "s";
}

// A maximum error E_i(t) (rule MM-1's second field): semantically a
// non-negative duration.  It carries no arithmetic of its own - formulas
// run in Duration (via the implicit conversion) and assign back.
class ErrorBound {
 public:
  constexpr ErrorBound() = default;
  constexpr ErrorBound(double s) : s_(s) {}    // NOLINT(google-explicit-constructor)
  constexpr ErrorBound(Duration d) : s_(d.seconds()) {}  // NOLINT

  constexpr operator Duration() const noexcept { return Duration{s_}; }  // NOLINT
  constexpr double seconds() const noexcept { return s_; }

 private:
  double s_ = 0.0;
};

inline std::ostream& operator<<(std::ostream& os, ErrorBound e) {
  return os << e.seconds() << "s";
}

// The signed displacement between two time axes: C_j - C_i as rule IM-2
// sees it, or C_i(t) - t against true time.  Construction is explicit -
// offsets are derived quantities (see offset_between / offset_from_true
// below and to_offset for interval-space math).
class Offset {
 public:
  constexpr Offset() = default;
  constexpr explicit Offset(double s) : s_(s) {}

  constexpr double seconds() const noexcept { return s_; }
  // The magnitude/length view, for formulas that mix an offset into
  // duration arithmetic deliberately.
  constexpr Duration as_duration() const noexcept { return Duration{s_}; }

 private:
  double s_ = 0.0;
};

[[nodiscard]] constexpr Offset operator+(Offset a, Offset b) noexcept {
  return Offset{a.seconds() + b.seconds()};
}
[[nodiscard]] constexpr Offset operator-(Offset a, Offset b) noexcept {
  return Offset{a.seconds() - b.seconds()};
}
[[nodiscard]] constexpr Offset operator-(Offset o) noexcept {
  return Offset{-o.seconds()};
}
[[nodiscard]] constexpr Offset operator*(Offset o, double k) noexcept {
  return Offset{o.seconds() * k};
}
[[nodiscard]] constexpr Offset operator*(double k, Offset o) noexcept {
  return Offset{k * o.seconds()};
}
[[nodiscard]] constexpr Offset operator/(Offset o, double k) noexcept {
  return Offset{o.seconds() / k};
}
constexpr bool operator==(Offset a, Offset b) noexcept {
  return a.seconds() == b.seconds();
}
constexpr bool operator<(Offset a, Offset b) noexcept {
  return a.seconds() < b.seconds();
}
constexpr bool operator>(Offset a, Offset b) noexcept {
  return a.seconds() > b.seconds();
}
constexpr bool operator<=(Offset a, Offset b) noexcept {
  return a.seconds() <= b.seconds();
}
constexpr bool operator>=(Offset a, Offset b) noexcept {
  return a.seconds() >= b.seconds();
}
constexpr Offset& operator+=(Offset& a, Offset b) noexcept { return a = a + b; }
constexpr Offset& operator-=(Offset& a, Offset b) noexcept { return a = a - b; }
// |C - t| is a magnitude: comparing it against an ErrorBound is the
// correctness predicate, so abs() lands in Duration space.
[[nodiscard]] constexpr Duration abs(Offset o) noexcept {
  return o.seconds() < 0 ? Duration{-o.seconds()} : Duration{o.seconds()};
}
[[nodiscard]] constexpr Offset to_offset(Duration d) noexcept {
  return Offset{d.seconds()};
}
inline std::ostream& operator<<(std::ostream& os, Offset o) {
  return os << o.seconds() << "s";
}

// A point on the true-time axis t.
class RealTime {
 public:
  constexpr RealTime() = default;
  constexpr RealTime(double s) : s_(s) {}  // NOLINT(google-explicit-constructor)

  constexpr double seconds() const noexcept { return s_; }

 private:
  double s_ = 0.0;
};

[[nodiscard]] constexpr Duration operator-(RealTime a, RealTime b) noexcept {
  return Duration{a.seconds() - b.seconds()};
}
[[nodiscard]] constexpr RealTime operator+(RealTime t, Duration d) noexcept {
  return RealTime{t.seconds() + d.seconds()};
}
[[nodiscard]] constexpr RealTime operator-(RealTime t, Duration d) noexcept {
  return RealTime{t.seconds() - d.seconds()};
}
// Tie-breaker: a bare double always means seconds-of-duration.
[[nodiscard]] constexpr RealTime operator-(RealTime t, double s) noexcept {
  return RealTime{t.seconds() - s};
}
constexpr bool operator==(RealTime a, RealTime b) noexcept {
  return a.seconds() == b.seconds();
}
constexpr bool operator<(RealTime a, RealTime b) noexcept {
  return a.seconds() < b.seconds();
}
constexpr bool operator>(RealTime a, RealTime b) noexcept {
  return a.seconds() > b.seconds();
}
constexpr bool operator<=(RealTime a, RealTime b) noexcept {
  return a.seconds() <= b.seconds();
}
constexpr bool operator>=(RealTime a, RealTime b) noexcept {
  return a.seconds() >= b.seconds();
}
constexpr RealTime& operator+=(RealTime& t, Duration d) noexcept {
  return t = t + d;
}
constexpr RealTime& operator-=(RealTime& t, Duration d) noexcept {
  return t = t - d;
}
inline std::ostream& operator<<(std::ostream& os, RealTime t) {
  return os << t.seconds();
}

// A point on some server clock's axis: the reading C_i(t).
class ClockTime {
 public:
  constexpr ClockTime() = default;
  constexpr ClockTime(double s) : s_(s) {}  // NOLINT(google-explicit-constructor)

  constexpr double seconds() const noexcept { return s_; }

 private:
  double s_ = 0.0;
};

[[nodiscard]] constexpr Duration operator-(ClockTime a, ClockTime b) noexcept {
  return Duration{a.seconds() - b.seconds()};
}
[[nodiscard]] constexpr ClockTime operator+(ClockTime c, Duration d) noexcept {
  return ClockTime{c.seconds() + d.seconds()};
}
[[nodiscard]] constexpr ClockTime operator-(ClockTime c, Duration d) noexcept {
  return ClockTime{c.seconds() - d.seconds()};
}
// Tie-breaker: a bare double always means seconds-of-duration.
[[nodiscard]] constexpr ClockTime operator-(ClockTime c, double s) noexcept {
  return ClockTime{c.seconds() - s};
}
// Applying a correction interval's midpoint (rule IM-2's reset).
[[nodiscard]] constexpr ClockTime operator+(ClockTime c, Offset o) noexcept {
  return ClockTime{c.seconds() + o.seconds()};
}
[[nodiscard]] constexpr ClockTime operator-(ClockTime c, Offset o) noexcept {
  return ClockTime{c.seconds() - o.seconds()};
}
constexpr bool operator==(ClockTime a, ClockTime b) noexcept {
  return a.seconds() == b.seconds();
}
constexpr bool operator<(ClockTime a, ClockTime b) noexcept {
  return a.seconds() < b.seconds();
}
constexpr bool operator>(ClockTime a, ClockTime b) noexcept {
  return a.seconds() > b.seconds();
}
constexpr bool operator<=(ClockTime a, ClockTime b) noexcept {
  return a.seconds() <= b.seconds();
}
constexpr bool operator>=(ClockTime a, ClockTime b) noexcept {
  return a.seconds() >= b.seconds();
}
constexpr ClockTime& operator+=(ClockTime& c, Duration d) noexcept {
  return c = c + d;
}
constexpr ClockTime& operator-=(ClockTime& c, Duration d) noexcept {
  return c = c - d;
}
constexpr ClockTime& operator+=(ClockTime& c, Offset o) noexcept {
  return c = c + o;
}
inline std::ostream& operator<<(std::ostream& os, ClockTime c) {
  return os << c.seconds();
}

// The offset of clock reading `a` relative to clock reading `b` (two
// different clocks read at the same instant; same-clock subtraction is
// ClockTime - ClockTime -> Duration).
[[nodiscard]] constexpr Offset offset_between(ClockTime a, ClockTime b) noexcept {
  return Offset{a.seconds() - b.seconds()};
}
// The offset of a clock from true time: C_i(t) - t.  Positive = fast.
// This is the ONE sanctioned crossing of the clock-time and real-time axes
// (the simulator's ground-truth view; a deployed server cannot compute it).
[[nodiscard]] constexpr Offset offset_from_true(ClockTime c, RealTime t) noexcept {
  return Offset{c.seconds() - t.seconds()};
}

// Identifies a time server within a service.  Dense small integers so that
// vectors can be indexed directly.
using ServerId = std::uint32_t;

inline constexpr ServerId kInvalidServer = ~ServerId{0};

}  // namespace mtds::core
