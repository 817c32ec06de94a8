#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace mtds::util {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

std::string RunningStats::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "n=%zu mean=%.6g sd=%.6g min=%.6g max=%.6g",
                n_, mean(), stddev(), min(), max());
  return buf;
}

void Sampler::sort_if_needed() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Sampler::quantile(double q) {
  if (samples_.empty()) return 0.0;
  sort_if_needed();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Sampler::min() {
  if (samples_.empty()) return 0.0;
  sort_if_needed();
  return samples_.front();
}

double Sampler::max() {
  if (samples_.empty()) return 0.0;
  sort_if_needed();
  return samples_.back();
}

double Sampler::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double Sampler::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size()));
}

std::string Sampler::summary() {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.6g p50=%.6g p90=%.6g p99=%.6g max=%.6g",
                count(), mean(), quantile(0.5), quantile(0.9), quantile(0.99),
                max());
  return buf;
}

LinearFit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  LinearFit fit;
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return fit;
  const double nd = static_cast<double>(n);
  double sx = 0.0, sy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / nd;
  const double my = sy / nd;
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = syy == 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace mtds::util
