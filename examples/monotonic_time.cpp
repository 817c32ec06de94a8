// Monotonic client clock (paper Section 1.1).
//
// The service freely sets clocks backward; a client that needs local
// monotonicity layers a MonotonicAdapter over the served time: when the raw
// clock steps back, the adapter "temporarily runs more slowly" until the raw
// clock catches up.  This example runs a server whose clock gets yanked
// backward by IM resets and shows the adapter absorbing every step.
//
//   $ ./monotonic_time [--horizon=200]
#include <cstdio>
#include <vector>

#include "service/monotonic.h"
#include "service/time_service.h"
#include "util/ascii_plot.h"
#include "util/flags.h"

using namespace mtds;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.parse(argc, argv);
  const double horizon = flags.get_double("horizon", 200.0);

  // A fast-drifting server that gets repeatedly reset backward by its
  // accurate neighbours.
  service::ServiceConfig cfg;
  cfg.seed = 7;
  cfg.delay_hi = 0.003;
  cfg.sample_interval = 0.5;
  service::ServerSpec fast;
  fast.algo = core::SyncAlgorithm::kIM;
  fast.claimed_delta = 6e-3;  // deliberately coarse: visible steps
  fast.simulated_drift = 5e-3;
  fast.initial_error = 0.02;
  fast.poll_period = 10.0;
  cfg.servers.push_back(fast);
  for (int i = 0; i < 2; ++i) {
    service::ServerSpec ref;
    ref.algo = core::SyncAlgorithm::kNone;
    ref.claimed_delta = 1e-6;
    ref.simulated_drift = 0.0;
    ref.initial_error = 0.005;
    cfg.servers.push_back(ref);
  }

  service::TimeService service(cfg);
  service::MonotonicAdapter adapter(/*slew_rate=*/0.5);

  std::vector<double> times, raw_offsets, mono_offsets;
  int backward_steps = 0;
  double prev_raw = -1.0, prev_mono = -1.0;
  bool monotone = true;
  // Read much faster than the ~50 ms reset steps (a reset drops the clock
  // by more than real time advances between reads, so the raw reading
  // actually goes backward).
  for (double t = 0.01; t <= horizon; t += 0.01) {
    service.run_until(t);
    const double raw = service.server(0).read_clock(t).seconds();
    const double mono = adapter.read(raw).seconds();
    if (prev_raw >= 0 && raw < prev_raw) ++backward_steps;
    if (prev_mono >= 0 && mono < prev_mono) monotone = false;
    prev_raw = raw;
    prev_mono = mono;
    times.push_back(t);
    raw_offsets.push_back((raw - t) * 1e3);
    mono_offsets.push_back((mono - t) * 1e3);
  }

  util::PlotOptions opts;
  opts.title = "clock offset from true time (ms): raw vs monotonic view";
  opts.x_label = "real time (s)";
  opts.y_label = "offset (ms)";
  std::fputs(util::plot({{"raw C(t) - t", times, raw_offsets},
                         {"monotonic - t", times, mono_offsets}},
                        opts)
                 .c_str(),
             stdout);

  std::printf("\nraw clock stepped backward %d times (IM resets of a "
              "fast-drifting clock)\n", backward_steps);
  std::printf("monotonic view never decreased: %s\n",
              monotone ? "true" : "FALSE");
  std::printf("final slew state: %s\n",
              adapter.slewing() ? "still catching up" : "tracking raw clock");
  return (backward_steps > 0 && monotone) ? 0 : 1;
}
