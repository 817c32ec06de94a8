// Closed-form bounds from the paper's theorems.
//
// The EXP-* benches measure a running service and check the measured values
// against these expressions; keeping them in one place makes the
// bench-vs-theorem comparison auditable.
#pragma once

#include "core/time_types.h"

namespace mtds::core {

// Theorem 2: in a fully-connected service running MM with valid drift
// bounds, every server's error satisfies
//     E_i(t) < E_M(t) + xi + delta_i (tau + 2 xi)
// where E_M is the smallest error in the service, xi the message-delay
// bound, and tau the poll period.
Duration mm_error_bound(Duration e_min, Duration xi, double delta_i,
                        Duration tau) noexcept;

// Theorem 3: MM asynchronism bound
//     |C_i - C_j| < 2 E_M + 2 xi + (delta_i + delta_j)(tau + 2 xi)
Duration mm_asynchronism_bound(Duration e_min, Duration xi, double delta_i,
                               double delta_j, Duration tau) noexcept;

// Theorem 7: IM asynchronism bound
//     |C_i - C_j| <= xi + (delta_i + delta_j) tau
Duration im_asynchronism_bound(Duration xi, double delta_i, double delta_j,
                               Duration tau) noexcept;

}  // namespace mtds::core
