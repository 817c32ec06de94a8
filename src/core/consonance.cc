#include "core/consonance.h"

#include <algorithm>

namespace mtds::core {

RateEstimator::RateEstimator(std::size_t window)
    : window_(std::max<std::size_t>(window, 2)) {}

void RateEstimator::add(const RateObservation& obs) {
  // mtds:alloc-ok(sliding window bounded by window_; after warm-up the erase below keeps size and capacity constant)
  observations_.push_back(obs);
  if (observations_.size() > window_) {
    observations_.erase(observations_.begin());
  }
}

std::optional<double> RateEstimator::relative_rate() const {
  if (observations_.size() < 2) return std::nullopt;
  // Least-squares slope of (remote - local) against local.  The offsets and
  // readings drop to raw seconds here: a rate is a dimensionless slope.
  const std::size_t n = observations_.size();
  double mx = 0.0, my = 0.0;
  for (const auto& o : observations_) {
    mx += o.local.seconds();
    my += offset_between(o.remote, o.local).seconds();
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxx = 0.0, sxy = 0.0;
  for (const auto& o : observations_) {
    const double dx = o.local.seconds() - mx;
    const double dy = offset_between(o.remote, o.local).seconds() - my;
    sxx += dx * dx;
    sxy += dx * dy;
  }
  if (sxx <= 0.0) return std::nullopt;
  return sxy / sxx;
}

std::optional<TimeInterval> RateEstimator::rate_interval() const {
  auto rate = relative_rate();
  if (!rate) return std::nullopt;
  const auto& first = observations_.front();
  const auto& last = observations_.back();
  const Duration span = last.local - first.local;
  if (span <= Duration{0.0}) return std::nullopt;
  // Each endpoint's offset is known only to within its round trip, so the
  // two-point slope - and hence the LS slope, which the endpoints dominate -
  // is uncertain by at most (rtt_first + rtt_last) / span.
  const double uncertainty = (first.rtt_own + last.rtt_own) / span;
  return TimeInterval::from_center_error(*rate, uncertainty);
}

}  // namespace mtds::core
