// Deterministic random number generation for the simulator.
//
// xoshiro256** seeded via splitmix64.  Every scenario takes an explicit
// seed; identical seeds reproduce identical runs bit-for-bit, which the
// determinism tests assert.  We avoid <random> engines because their
// distributions are not reproducible across standard library
// implementations.
#pragma once

#include <cstdint>

#include "core/time_types.h"

namespace mtds::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  std::uint64_t next_u64() noexcept;

  // Uniform in [0, 1).
  double next_double() noexcept;

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  // Uniform integer in [0, n); n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  // Exponential with the given mean (> 0).
  double exponential(double mean) noexcept;

  // Typed draws: built on Duration scaling, so sampled intervals never
  // round-trip through bare seconds (the seconds-escape analyzer rejects
  // such laundering elsewhere).
  core::Duration uniform(core::Duration lo, core::Duration hi) noexcept {
    return lo + (hi - lo) * next_double();
  }
  core::Duration exponential(core::Duration mean) noexcept {
    return mean * exponential(1.0);
  }

  bool bernoulli(double p) noexcept { return next_double() < p; }

  // Derives an independent stream (for per-node RNGs) deterministically.
  Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace mtds::sim
