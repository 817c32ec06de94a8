// Running statistics and percentile utilities.
//
// RunningStats implements Welford's online algorithm: numerically stable
// single-pass mean/variance with O(1) state, suitable for long simulation
// runs where storing every sample would be wasteful.  Sampler stores the raw
// samples and supports exact order statistics (percentiles, median, min/max);
// use it when the sample count is bounded.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace mtds::util {

// Single-pass mean / variance / extrema accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;

  // Merges another accumulator into this one (parallel Welford merge).
  void merge(const RunningStats& other) noexcept;

  void reset() noexcept { *this = RunningStats{}; }

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  // Population variance; 0 for fewer than 2 samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

  std::string summary() const;  // "n=.. mean=.. sd=.. min=.. max=.."

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Stores all samples; exact quantiles.
class Sampler {
 public:
  // mtds:alloc-ok(telemetry store with amortized doubling; steady-state users pre-size it through reserve())
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  // Exact quantile with linear interpolation; q in [0,1].  Returns 0 when
  // empty.  Non-const because it sorts lazily.
  double quantile(double q);
  double median() { return quantile(0.5); }
  double min();
  double max();
  double mean() const;
  double stddev() const;

  std::string summary();  // "n=.. mean=.. p50=.. p90=.. p99=.. max=.."

 private:
  void sort_if_needed();
  std::vector<double> samples_;
  bool sorted_ = false;
};

// Least-squares fit of y = a + b*x.  Used to measure long-term error growth
// rates (the slope of E(t)) in the benches.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;  // coefficient of determination
};

LinearFit fit_line(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace mtds::util
