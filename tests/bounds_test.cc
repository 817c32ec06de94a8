#include "core/bounds.h"

#include <gtest/gtest.h>

namespace mtds::core {
namespace {

TEST(Bounds, MMErrorBoundFormula) {
  // Theorem 2: E_i < E_M + xi + delta_i (tau + 2 xi).
  EXPECT_DOUBLE_EQ(mm_error_bound(0.5, 0.02, 1e-4, 10.0).seconds(),
                   0.5 + 0.02 + 1e-4 * (10.0 + 0.04));
}

TEST(Bounds, MMAsynchronismBoundFormula) {
  // Theorem 3: |C_i - C_j| < 2 E_M + 2 xi + (d_i + d_j)(tau + 2 xi).
  EXPECT_DOUBLE_EQ(mm_asynchronism_bound(0.5, 0.02, 1e-4, 2e-4, 10.0).seconds(),
                   1.0 + 0.04 + 3e-4 * 10.04);
}

TEST(Bounds, IMAsynchronismBoundFormula) {
  // Theorem 7: |C_i - C_j| <= xi + (d_i + d_j) tau.
  EXPECT_DOUBLE_EQ(im_asynchronism_bound(0.02, 1e-4, 2e-4, 10.0).seconds(),
                   0.02 + 3e-4 * 10.0);
}

TEST(Bounds, IMTighterThanMMUnderSameParameters) {
  // The IM asynchronism bound is strictly tighter whenever E_M > 0 or
  // xi > 0 - the quantitative version of Section 4's motivation.
  const double xi = 0.02, tau = 10.0, di = 1e-4, dj = 1e-4, em = 0.1;
  EXPECT_LT(im_asynchronism_bound(xi, di, dj, tau),
            mm_asynchronism_bound(em, xi, di, dj, tau));
}

TEST(Bounds, MonotoneInEachParameter) {
  const Duration base = mm_error_bound(0.1, 0.01, 1e-4, 10.0);
  EXPECT_GT(mm_error_bound(0.2, 0.01, 1e-4, 10.0), base);
  EXPECT_GT(mm_error_bound(0.1, 0.02, 1e-4, 10.0), base);
  EXPECT_GT(mm_error_bound(0.1, 0.01, 2e-4, 10.0), base);
  EXPECT_GT(mm_error_bound(0.1, 0.01, 1e-4, 20.0), base);
}

}  // namespace
}  // namespace mtds::core
