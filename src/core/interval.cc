#include "core/interval.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace mtds::core {

TimeInterval TimeInterval::from_edges(double lo, double hi) {
  if (!(lo <= hi)) {
    // mtds:alloc-ok(cold guard; an inverted interval is a caller bug and never occurs on the checked sweep paths)
    throw std::invalid_argument("TimeInterval: lo must be <= hi");
  }
  return TimeInterval(lo, hi);
}

TimeInterval TimeInterval::from_center_error(double c, double e) {
  if (!(e >= 0)) {
    // mtds:alloc-ok(cold guard; negative error bounds are rejected at the protocol boundary before reaching interval math)
    throw std::invalid_argument("TimeInterval: error must be >= 0");
  }
  return TimeInterval(c - e, c + e);
}

std::optional<TimeInterval> TimeInterval::intersect(
    const TimeInterval& other) const noexcept {
  const double lo = std::max(lo_, other.lo_);
  const double hi = std::min(hi_, other.hi_);
  if (lo > hi) return std::nullopt;
  return TimeInterval(lo, hi);
}

TimeInterval TimeInterval::inflated(double pad) const noexcept {
  const double p = std::max(pad, 0.0);
  return TimeInterval(lo_ - p, hi_ + p);
}

std::string TimeInterval::str() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "[%.9g, %.9g] (c=%.9g, e=%.9g)", lo_, hi_,
                midpoint(), radius());
  return buf;
}

}  // namespace mtds::core
