#include "sim/delay_model.h"

#include <algorithm>
#include <stdexcept>

namespace mtds::sim {

FixedDelay::FixedDelay(Duration d) : delay_(d) {
  if (d < 0) throw std::invalid_argument("FixedDelay: negative delay");
}

UniformDelay::UniformDelay(Duration lo, Duration hi) : lo_(lo), hi_(hi) {
  if (lo < 0 || hi < lo) {
    throw std::invalid_argument("UniformDelay: need 0 <= lo <= hi");
  }
}

Duration UniformDelay::sample(Rng& rng) const {
  return rng.uniform(lo_, hi_);
}

TruncatedExponentialDelay::TruncatedExponentialDelay(Duration mean, Duration cap)
    : mean_(mean), cap_(cap) {
  if (mean <= 0 || cap <= 0) {
    throw std::invalid_argument("TruncatedExponentialDelay: need mean, cap > 0");
  }
}

Duration TruncatedExponentialDelay::sample(Rng& rng) const {
  return std::min(rng.exponential(mean_), cap_);
}

std::unique_ptr<DelayModel> make_uniform_delay(Duration lo, Duration hi) {
  return std::make_unique<UniformDelay>(lo, hi);
}

}  // namespace mtds::sim
