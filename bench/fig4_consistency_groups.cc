// FIG-4: An inconsistent six-server time service partitioned into
// consistency groups (paper Figure 4).
//
// "There are three sets of consistent servers whose intersections are shown
// by the shaded areas.  It is not apparent which set of servers (if any) is
// the correct one."
#include <cstdio>
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/marzullo.h"
#include "util/ascii_plot.h"

int main() {
  using namespace mtds;
  using core::TimeInterval;
  bench::heading("FIG-4  an inconsistent time service",
                 "six servers partition into three consistency groups; no "
                 "static information identifies the correct one");

  // Six intervals forming three overlap clusters, as in the figure.
  const std::vector<TimeInterval> in = {
      TimeInterval::from_edges(0.0, 3.0),    // S1 \ group A
      TimeInterval::from_edges(1.5, 4.0),    // S2 /
      TimeInterval::from_edges(5.0, 8.0),    // S3 \ group B
      TimeInterval::from_edges(6.0, 9.5),    // S4 /
      TimeInterval::from_edges(11.0, 13.0),  // S5 \ group C
      TimeInterval::from_edges(12.0, 14.5),  // S6 /
  };

  std::vector<util::IntervalRow> rows;
  for (std::size_t i = 0; i < in.size(); ++i) {
    std::string label = "S";
    label += std::to_string(i + 1);
    rows.push_back({label, in[i].lo(), in[i].hi()});
  }
  std::fputs(util::plot_intervals(rows, std::nan(""), 60).c_str(), stdout);

  bench::check(!core::intersect_all(in).has_value(),
               "the service as a whole is inconsistent");

  const auto groups = core::consistency_groups(in);
  std::printf("\nconsistency groups found: %zu\n", groups.size());
  for (const auto& g : groups) {
    std::string members;
    for (std::size_t m : g.members) {
      members += members.empty() ? "S" : ", S";
      members += std::to_string(m + 1);
    }
    std::printf("  {%s}  shared region %s\n", members.c_str(),
                g.intersection.str().c_str());
  }
  bench::check(groups.size() == 3, "three consistency groups (as in Figure 4)");
  bench::check(groups[0].members == std::vector<std::size_t>({0, 1}),
               "group A = {S1, S2}");
  bench::check(groups[1].members == std::vector<std::size_t>({2, 3}),
               "group B = {S3, S4}");
  bench::check(groups[2].members == std::vector<std::size_t>({4, 5}),
               "group C = {S5, S6}");

  // Marzullo's algorithm can still pick a best guess: any 2-coverage region
  // qualifies; the adaptive variant reports how many faults that assumes.
  const auto best = core::intersect_adaptive(in);
  std::printf("\nadaptive intersection: coverage %zu of %zu (tolerates %zu "
              "faults) -> %s\n",
              best->coverage, in.size(), in.size() - best->coverage,
              best->interval.str().c_str());
  bench::check(best->coverage == 2,
               "no region is covered by more than one group's servers");

  return bench::finish();
}
