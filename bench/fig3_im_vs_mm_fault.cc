// FIG-3: A consistent-but-incorrect state where MM recovers correctness and
// IM does not (paper Figure 3).
//
// Three servers are pairwise consistent, but only S1 and S3 are correct;
// S2's interval misses the correct time.  "Under MM, a server would choose
// S3, while under IM, a server would choose the incorrect interval
// S2 /\ S3."  We run both synchronization functions on exactly this state
// and verify the divergence, then confirm it end-to-end in a simulated
// service whose faulty server drifts slightly past its claimed bound.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/im_sync.h"
#include "core/mm_sync.h"
#include "service/invariants.h"
#include "service/time_service.h"
#include "util/ascii_plot.h"

namespace {

using namespace mtds;
using core::LocalState;
using core::TimeReading;

void static_state_comparison() {
  const double t = 100.0;  // the dashed "correct time"
  // S1 is the deciding server: wide, correct.
  LocalState s1{t - 0.5, 2.0, 0.0};
  // S2: consistent with both others but INCORRECT (interval right of t).
  TimeReading s2{2, t + 0.8, 0.5, 0.0, s1.clock};
  // S3: correct, smallest error.
  TimeReading s3{3, t + 0.1, 0.4, 0.0, s1.clock};

  std::printf("\nthe Figure-3 state (dashed line = correct time):\n");
  std::fputs(util::plot_intervals(
                 {{"S1 (self)", (s1.clock - s1.error).seconds(),
                   (s1.clock + s1.error).seconds()},
                  {"S2 (wrong)", (s2.c - s2.e).seconds(),
                   (s2.c + s2.e).seconds()},
                  {"S3", (s3.c - s3.e).seconds(), (s3.c + s3.e).seconds()}},
                 t, 60)
                 .c_str(),
             stdout);

  // MM examines replies in arrival order.
  core::MinMaxErrorSync mm;
  LocalState state = s1;
  for (const auto& reply : {s2, s3}) {
    if (const auto out = mm.on_reply(state, reply); out.reset) {
      state.clock = out.reset->clock;
      state.error = out.reset->error;
    }
  }
  std::printf("MM result: C=%.3f E=%.3f -> %s\n", state.clock.seconds(),
              state.error.seconds(),
              std::abs(state.clock.seconds() - t) <= state.error.seconds()
                  ? "CORRECT"
                  : "incorrect");
  bench::check(std::abs(state.clock.seconds() - t) <= state.error.seconds(),
               "MM ends on a correct interval (chose S3)");

  // IM intersects everything.
  core::IntersectionSync im;
  const std::vector<TimeReading> replies = {s2, s3};
  const auto out = im.on_round(s1, replies);
  if (out.reset) {
    std::printf("IM result: C=%.3f E=%.3f -> %s\n", out.reset->clock.seconds(),
                out.reset->error.seconds(),
                std::abs(out.reset->clock.seconds() - t) <=
                        out.reset->error.seconds()
                    ? "correct"
                    : "INCORRECT");
  }
  bench::check(out.reset.has_value() && !out.round_inconsistent,
               "IM sees the state as consistent");
  bench::check(out.reset.has_value() &&
                   std::abs(out.reset->clock.seconds() - t) >
                       out.reset->error.seconds(),
               "IM adopts the incorrect intersection S2 /\\ S3");
}

void end_to_end_comparison() {
  // "Algorithm IM is particularly susceptible to servers drifting slightly
  // slower or faster than their assumed maximum drift rates."  One server
  // drifts at 3x its claimed bound; the others are honest.  Compare how far
  // each algorithm's honest servers end up from true time relative to their
  // believed error.
  auto worst_ratio = [](core::SyncAlgorithm algo) {
    service::ServiceConfig cfg;
    cfg.seed = 77;
    cfg.delay_hi = 0.002;
    cfg.sample_interval = 5.0;
    for (int i = 0; i < 3; ++i) {
      cfg.servers.push_back(bench::basic_server(algo, 1e-5, 0.0, 0.01,
                                                (i - 1) * 0.002, 10.0));
    }
    cfg.servers[1].simulated_drift = 3e-5;  // slightly past its claimed 1e-5
    service::TimeService service(cfg);
    service.run_until(3000.0);
    return service::check_correctness(service.trace()).worst_ratio;
  };
  const double mm = worst_ratio(core::SyncAlgorithm::kMM);
  const double im = worst_ratio(core::SyncAlgorithm::kIM);
  std::printf("\nend-to-end with one server drifting 3x its claimed bound:\n");
  std::printf("  worst |offset|/E under MM: %.3f\n", mm);
  std::printf("  worst |offset|/E under IM: %.3f\n", im);
  bench::check(im > mm, "IM is more susceptible to the invalid bound than MM");
}

}  // namespace

int main() {
  bench::heading("FIG-3  MM recovers where IM does not",
                 "in the consistent-but-incorrect state, MM chooses S3 "
                 "(correct) while IM adopts S2 /\\ S3 (incorrect)");
  static_state_comparison();
  end_to_end_comparison();
  return bench::finish();
}
