// EXP-CONSONANCE: Section 5 - diagnosing inconsistency through rates.
//
// "There is not enough information in the static arrangement of the time
// server intervals to determine why the system is inconsistent.  Instead,
// the rates of the servers must be examined."  This bench shows the two
// halves of that claim:
//
//   part A: an observer cannot convict the Section-3 liar (claims 1 s/day,
//           runs 4% fast) from interval snapshots while everything is still
//           pairwise consistent - but its rate monitor convicts it within a
//           few polls, and reports how long each detector needed.
//   part B: applying the interval machinery to rates refines the observer's
//           own drift estimate below its claimed bound.
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "service/time_service.h"

namespace {

using namespace mtds;

}  // namespace

int main() {
  bench::heading("EXP-CONSONANCE  rate analysis (Section 5)",
                 "an invalid drift bound is detectable from rates while the "
                 "intervals are still consistent; consonant rates refine the "
                 "observer's own drift estimate");

  service::ServiceConfig cfg;
  cfg.seed = 31;
  cfg.delay_hi = 0.002;
  cfg.sample_interval = 1.0;

  // Observer: accurate, polls everyone, never resets (its error is far
  // below its neighbours', so MM rejects every reply).
  auto observer = bench::basic_server(core::SyncAlgorithm::kMM, 1e-5, 2e-6,
                                      0.001, 0.0, 5.0);
  observer.monitor_rates = true;
  cfg.servers.push_back(observer);

  // Two honest neighbours with wide errors.
  cfg.servers.push_back(bench::basic_server(core::SyncAlgorithm::kNone,
                                            1.2e-5, 5e-6, 20.0, 0.0, 5.0));
  cfg.servers.push_back(bench::basic_server(core::SyncAlgorithm::kNone,
                                            1.2e-5, -4e-6, 20.0, 0.0, 5.0));
  // The Section-3 liar: claims one second a day, runs 4% fast, and its
  // 20-second error keeps it interval-consistent for a long time.
  cfg.servers.push_back(bench::basic_server(core::SyncAlgorithm::kNone,
                                            1.2e-5, 0.04, 20.0, 0.0, 5.0));

  service::TimeService service(cfg);

  double convicted_at = -1.0;
  double intervals_inconsistent_at = -1.0;
  for (double t = 5.0; t <= 600.0; t += 5.0) {
    service.run_until(t);
    if (convicted_at < 0) {
      const auto bad = service.server(0).peers().dissonant();
      if (bad.size() == 1 && bad[0] == 3) convicted_at = t;
    }
    if (intervals_inconsistent_at < 0) {
      // Would any pairwise interval check have caught it yet?
      const core::RealTime now = service.now();
      for (std::size_t i = 0; i < service.size() && intervals_inconsistent_at < 0;
           ++i) {
        for (std::size_t j = i + 1; j < service.size(); ++j) {
          const double sep =
              std::abs((service.server(i).read_clock(now) -
                        service.server(j).read_clock(now))
                           .seconds());
          if (sep > (service.server(i).current_error(now) +
                     service.server(j).current_error(now))
                        .seconds()) {
            intervals_inconsistent_at = t;
            break;
          }
        }
      }
    }
    if (convicted_at > 0 && intervals_inconsistent_at > 0) break;
  }
  if (intervals_inconsistent_at < 0) {
    service.run_until(1200.0);
    // 4% drift against a 20 s budget: inconsistent around (20+20)/0.04 = 1000 s.
    const core::RealTime now = service.now();
    const double sep = std::abs((service.server(0).read_clock(now) -
                                 service.server(3).read_clock(now))
                                    .seconds());
    if (sep > (service.server(0).current_error(now) +
               service.server(3).current_error(now))
                  .seconds()) {
      intervals_inconsistent_at = now.seconds();
    }
  }

  std::printf("\npart A: time to convict the 4%%-fast liar\n");
  std::printf("  rate monitor (consonance):    %8.0f s\n", convicted_at);
  std::printf("  interval consistency check:   %8.0f s%s\n",
              intervals_inconsistent_at,
              intervals_inconsistent_at < 0 ? " (never within horizon)" : "");
  bench::check(convicted_at > 0, "rate monitor convicts the liar");
  bench::check(intervals_inconsistent_at < 0 ||
                   convicted_at < intervals_inconsistent_at / 5.0,
               "rates convict the liar far earlier than intervals can");

  std::printf("\npart B: refined own-rate estimate of the observer\n");
  const auto own = service.server(0).peers().refined_own_rate();
  if (own) {
    std::printf("  claimed |own rate| bound: %.2e\n", 1e-5);
    std::printf("  refined own-rate interval: [%.3e, %.3e] (width %.3e)\n",
                own->lo(), own->hi(), own->length());
    std::printf("  actual own drift: %.3e\n", 2e-6);
  }
  bench::check(own.has_value(), "consonant neighbours yield an estimate");
  bench::check(own && own->contains(2e-6),
               "refined interval contains the observer's actual drift");
  return bench::finish();
}
