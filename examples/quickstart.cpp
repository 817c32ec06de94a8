// Quickstart: build a small simulated time service, run it, query it.
//
//   $ ./quickstart [--servers=5] [--horizon=300] [--algo=IM] [--seed=42]
//
// Walks through the library's three layers: configuring a service
// (service::TimeService), letting the synchronization algorithm run
// (MM or IM), and acting as a client (service::TimeClient).
#include <cstdio>
#include <string>

#include "service/client.h"
#include "service/invariants.h"
#include "service/time_service.h"
#include "util/flags.h"

using namespace mtds;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.parse(argc, argv);
  const auto n = static_cast<std::size_t>(flags.get_int("servers", 5));
  const double horizon = flags.get_double("horizon", 300.0);
  const std::string algo_name = flags.get("algo", "IM");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto algo = algo_name == "MM" ? core::SyncAlgorithm::kMM
                                      : core::SyncAlgorithm::kIM;

  // 1. Configure a service: n servers, full mesh, uniform delays up to 5 ms.
  service::ServiceConfig cfg;
  cfg.seed = seed;
  cfg.delay_lo = 0.0;
  cfg.delay_hi = 0.005;
  cfg.sample_interval = 1.0;
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    service::ServerSpec s;
    s.algo = algo;
    s.claimed_delta = 1e-5;                          // drift bound delta_i
    s.simulated_drift = rng.uniform(-8e-6, 8e-6);    // true oscillator drift
    s.initial_error = 0.01 + 0.01 * static_cast<double>(i);
    s.initial_offset = core::Offset{rng.uniform(-0.005, 0.005)};
    s.poll_period = 10.0;                            // tau
    cfg.servers.push_back(s);
  }

  // 2. Run the service.
  service::TimeService service(cfg);
  service.run_until(horizon);

  std::printf("ran %zu %s servers for %.0f simulated seconds\n", n,
              algo_name.c_str(), horizon);
  std::printf("resets: %zu, messages delivered: %llu\n",
              service.trace().count_events(sim::TraceEventKind::kReset),
              static_cast<unsigned long long>(
                  service.network().stats().delivered));
  std::printf("\n%-8s %14s %14s %10s\n", "server", "offset (s)", "error E (s)",
              "correct");
  for (std::size_t i = 0; i < service.size(); ++i) {
    std::printf("S%-7zu %14.6f %14.6f %10s\n", i,
                service.server(i).true_offset(service.now()).seconds(),
                service.server(i).current_error(service.now()).seconds(),
                service.server(i).correct(service.now()) ? "yes" : "NO");
  }
  std::printf("\nmax asynchronism: %.6f s\n",
              service.max_asynchronism().seconds());

  // 3. Verify the paper's invariants over the whole run.
  const auto correctness = service::check_correctness(service.trace());
  std::printf("correctness: %zu samples checked, %zu violations\n",
              correctness.samples_checked, correctness.violations.size());

  // 4. Act as a client: ask all servers and intersect the replies.
  service::TimeClient client(static_cast<core::ServerId>(n), service.queue(),
                             service.network());
  std::vector<core::ServerId> all;
  for (core::ServerId i = 0; i < n; ++i) all.push_back(i);
  const auto result = client.query_blocking(
      all, service::ClientStrategy::kIntersect, 0.1);
  std::printf("\nclient intersect query: estimate %.6f (true %.6f), "
              "error bound %.6f, %zu replies\n",
              result.estimate.seconds(), service.now().seconds(),
              result.error.seconds(), result.replies);
  return correctness.ok() ? 0 : 1;
}
