// Consistency explorer: paste server intervals, see the Figure-4 analysis.
//
// Reads one interval per argument as <center>:<error> or <lo>,<hi> and
// prints the interval diagram, the pairwise-consistency matrix, the
// consistency groups, the global intersection, and the fault-tolerant
// (Marzullo) selection.
//
//   $ ./consistency_explorer 10:2 11:1.5 18:1 19:2
//   $ ./consistency_explorer 8,12.5 9.4,10.8
//   $ ./consistency_explorer --demo        # the paper's Figure 4
#include <cstdio>
#include <cmath>
#include <string>
#include <vector>

#include "core/marzullo.h"
#include "util/ascii_plot.h"
#include "util/flags.h"

using namespace mtds;

namespace {

std::vector<core::TimeInterval> demo_figure4() {
  return {
      core::TimeInterval::from_edges(0.0, 3.0),
      core::TimeInterval::from_edges(1.5, 4.0),
      core::TimeInterval::from_edges(5.0, 8.0),
      core::TimeInterval::from_edges(6.0, 9.5),
      core::TimeInterval::from_edges(11.0, 13.0),
      core::TimeInterval::from_edges(12.0, 14.5),
  };
}

bool parse_interval(const std::string& arg, core::TimeInterval* out) {
  const auto colon = arg.find(':');
  const auto comma = arg.find(',');
  try {
    if (colon != std::string::npos) {
      const double c = std::stod(arg.substr(0, colon));
      const double e = std::stod(arg.substr(colon + 1));
      *out = core::TimeInterval::from_center_error(c, e);
      return true;
    }
    if (comma != std::string::npos) {
      const double lo = std::stod(arg.substr(0, comma));
      const double hi = std::stod(arg.substr(comma + 1));
      *out = core::TimeInterval::from_edges(lo, hi);
      return true;
    }
  } catch (const std::exception&) {
    return false;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.parse(argc, argv);

  std::vector<core::TimeInterval> intervals;
  if (flags.get_bool("demo", false)) {
    intervals = demo_figure4();
    std::printf("(using the paper's Figure 4 configuration)\n");
  } else {
    for (const auto& arg : flags.positional()) {
      core::TimeInterval iv;
      if (!parse_interval(arg, &iv)) {
        std::fprintf(stderr, "cannot parse '%s' (want c:e or lo,hi)\n",
                     arg.c_str());
        return 2;
      }
      intervals.push_back(iv);
    }
  }
  if (intervals.size() < 2) {
    std::fprintf(stderr,
                 "usage: consistency_explorer <c:e|lo,hi> <c:e|lo,hi> ... "
                 "| --demo\n");
    return 2;
  }

  std::vector<util::IntervalRow> rows;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    std::string label = "S";
    label += std::to_string(i + 1);
    rows.push_back({label, intervals[i].lo(), intervals[i].hi()});
  }
  std::fputs(util::plot_intervals(rows, std::nan(""), 64).c_str(), stdout);

  // Pairwise consistency matrix.
  std::printf("\npairwise consistency (x = inconsistent):\n    ");
  for (std::size_t j = 0; j < intervals.size(); ++j) std::printf(" S%-2zu", j + 1);
  std::printf("\n");
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    std::printf("S%-3zu", i + 1);
    for (std::size_t j = 0; j < intervals.size(); ++j) {
      std::printf("  %c ", i == j ? '-' : (intervals[i].intersects(intervals[j]) ? '.' : 'x'));
    }
    std::printf("\n");
  }

  // Groups.
  const auto groups = core::consistency_groups(intervals);
  std::printf("\nconsistency groups (%zu):\n", groups.size());
  for (const auto& g : groups) {
    std::string members;
    for (std::size_t m : g.members) {
      members += members.empty() ? "S" : ", S";
      members += std::to_string(m + 1);
    }
    std::printf("  {%s}  common region %s\n", members.c_str(),
                g.intersection.str().c_str());
  }

  // Global intersection and Marzullo selection.
  if (const auto all = core::intersect_all(intervals)) {
    std::printf("\nglobal intersection: %s  (the service is CONSISTENT)\n",
                all->str().c_str());
  } else {
    std::printf("\nglobal intersection: empty  (the service is INCONSISTENT)\n");
  }
  const auto best = core::best_intersection(intervals);
  std::printf("Marzullo selection: %s covered by %zu/%zu servers "
              "(tolerates %zu fault%s)\n",
              best->interval.str().c_str(), best->coverage, intervals.size(),
              intervals.size() - best->coverage,
              intervals.size() - best->coverage == 1 ? "" : "s");
  return 0;
}
