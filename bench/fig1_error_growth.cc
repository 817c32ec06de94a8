// FIG-1: Growth of maximum errors (paper Figure 1).
//
// Three correct time servers report intervals [C - E, C + E]; as the system
// runs, each interval grows (error accumulation at rate delta_i) and shifts
// (actual drift).  The figure shows the intervals at three instants with the
// correct time marked; we regenerate the same diagram from live clocks.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/clock.h"
#include "core/error_tracker.h"
#include "util/ascii_plot.h"

int main() {
  using namespace mtds;
  bench::heading("FIG-1  growth of maximum errors",
                 "intervals of three correct servers grow and shift over "
                 "time; all keep containing the correct time");

  struct Server {
    core::DriftingClock clock;
    core::ErrorTracker tracker;
  };
  // Distinct drifts and error rates, all with VALID claimed bounds.
  std::vector<Server> servers;
  servers.push_back({core::DriftingClock(+4e-3, 0.2, 0.0),
                     core::ErrorTracker(6e-3, 0.4, 0.2)});
  servers.push_back({core::DriftingClock(-2e-3, -0.1, 0.0),
                     core::ErrorTracker(3e-3, 0.3, -0.1)});
  servers.push_back({core::DriftingClock(+1e-3, 0.05, 0.0),
                     core::ErrorTracker(2e-3, 0.25, 0.05)});

  bool all_correct = true;
  bool growing = true;
  std::vector<double> last_lengths(servers.size(), 0.0);
  for (double t : {0.0, 40.0, 80.0}) {
    std::printf("\nat real time t = %.0f:\n", t);
    std::vector<util::IntervalRow> rows;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const double c = servers[i].clock.read(t).seconds();
      const double e = servers[i].tracker.error_at(c).seconds();
      std::string label = "S";
      label += std::to_string(i + 1);
      rows.push_back({label, c - e, c + e});
      if (!(c - e <= t && t <= c + e)) all_correct = false;
      const double len = 2 * e;
      if (t > 0.0 && len <= last_lengths[i]) growing = false;
      last_lengths[i] = len;
    }
    std::fputs(util::plot_intervals(rows, t, 60).c_str(), stdout);
  }

  std::printf("\n");
  bench::check(all_correct,
               "every interval contains the correct time at every instant");
  bench::check(growing, "every interval grows between the snapshots");
  return bench::finish();
}
