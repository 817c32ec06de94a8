#include "core/bounds.h"

namespace mtds::core {

Duration mm_error_bound(Duration e_min, Duration xi, double delta_i,
                        Duration tau) noexcept {
  return e_min + xi + delta_i * (tau + 2.0 * xi);
}

Duration mm_asynchronism_bound(Duration e_min, Duration xi, double delta_i,
                               double delta_j, Duration tau) noexcept {
  return 2.0 * e_min + 2.0 * xi + (delta_i + delta_j) * (tau + 2.0 * xi);
}

Duration im_asynchronism_bound(Duration xi, double delta_i, double delta_j,
                               Duration tau) noexcept {
  return xi + (delta_i + delta_j) * tau;
}

}  // namespace mtds::core
