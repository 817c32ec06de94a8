// TimeInterval: the paper's central abstraction.
//
// A time server does not really export a point in time; it exports an
// interval [C - E, C + E] that is guaranteed - if the server's drift bound
// is valid - to contain true time (Section 2.2).  Consistency of two servers
// (Section 2.3) is non-empty intersection:  |C_i - C_j| <= E_i + E_j.
//
// Axis-agnostic by design: the same interval algebra runs over absolute
// clock time (client combination), rule IM-2's clock-relative *offsets*
// (im_sync/imft_sync), and dimensionless relative *rates* (Section 5's
// consonance machinery).  Its edges are therefore plain numbers; callers
// in the typed world convert explicitly with .seconds() on the way in and
// tag the result (ClockTime + Offset{...}, ErrorBound{...}) on the way
// out, which keeps the one deliberately untyped component small and
// auditable.
#pragma once

#include <optional>
#include <string>

#include "core/time_types.h"

namespace mtds::core {

class TimeInterval {
 public:
  // Default: the degenerate empty-ish interval at 0 with zero error.
  constexpr TimeInterval() = default;

  // From edges.  Requires lo <= hi (checked, throws std::invalid_argument).
  static TimeInterval from_edges(double lo, double hi);

  // From a center C and maximum error E >= 0 (rule MM-1's reply format
  // <C_i(t), E_i(t)>, but equally an offset or rate center).
  static TimeInterval from_center_error(double c, double e);

  double lo() const noexcept { return lo_; }          // trailing edge C - E
  double hi() const noexcept { return hi_; }          // leading edge  C + E
  double midpoint() const noexcept { return 0.5 * (lo_ + hi_); }
  double length() const noexcept { return hi_ - lo_; }
  double radius() const noexcept { return 0.5 * (hi_ - lo_); }  // the "error"

  bool contains(double t) const noexcept { return lo_ <= t && t <= hi_; }
  bool contains(const TimeInterval& other) const noexcept {
    return lo_ <= other.lo_ && other.hi_ <= hi_;
  }

  // Non-empty overlap, i.e. the two servers are *consistent* (Section 2.3).
  // Touching at a point counts as consistent: |C_i - C_j| = E_i + E_j still
  // admits a common true time.
  bool intersects(const TimeInterval& other) const noexcept {
    return lo_ <= other.hi_ && other.lo_ <= hi_;
  }

  // Intersection per equation 12; nullopt when disjoint.
  std::optional<TimeInterval> intersect(const TimeInterval& other) const noexcept;

  // Both edges pushed outward by pad >= 0 (drift aging an interval).
  TimeInterval inflated(double pad) const noexcept;

  bool operator==(const TimeInterval& other) const noexcept = default;

  std::string str() const;  // "[lo, hi] (c=.., e=..)"

 private:
  constexpr TimeInterval(double lo, double hi) : lo_(lo), hi_(hi) {}
  double lo_ = 0.0;
  double hi_ = 0.0;
};

}  // namespace mtds::core
