// A miniature "Xerox Research Internet" (paper Section 1.1): hundreds of
// heterogeneous time servers with churn - servers join and leave while the
// service runs - and a mix of clock qualities, demonstrating that the
// service absorbs membership changes and stays correct.
//
//   $ ./internet_service [--servers=150] [--horizon=2000] [--churn=20]
#include <cstdio>

#include "service/invariants.h"
#include "service/time_service.h"
#include "util/flags.h"
#include "util/stats.h"

using namespace mtds;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.parse(argc, argv);
  const auto n = static_cast<std::size_t>(flags.get_int("servers", 150));
  const double horizon = flags.get_double("horizon", 2000.0);
  const auto churn_events = static_cast<int>(flags.get_int("churn", 20));

  service::ServiceConfig cfg;
  cfg.seed = 2718;
  cfg.delay_lo = 0.0;
  cfg.delay_hi = 0.02;  // a continental internet: up to 20 ms one-way
  cfg.sample_interval = 10.0;
  // Public servers poll a ring + a few random long links rather than a full
  // mesh (thousands of servers cannot all poll each other).
  cfg.topology = service::Topology::kCustom;

  sim::Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    service::ServerSpec s;
    s.algo = core::SyncAlgorithm::kIM;
    // Three quality tiers: lab-grade, workstation, flaky office machine.
    const double tier = rng.next_double();
    s.claimed_delta = tier < 0.1 ? 1e-6 : tier < 0.8 ? 2e-5 : 2e-4;
    s.actual_drift = rng.uniform(-0.9, 0.9) * s.claimed_delta;
    s.initial_error = rng.uniform(0.005, 0.1);
    s.initial_offset = core::Offset{rng.uniform(-0.004, 0.004)};
    s.poll_period = 30.0;
    cfg.servers.push_back(s);
  }
  for (core::ServerId i = 0; i < n; ++i) {
    cfg.custom_edges.push_back({i, static_cast<core::ServerId>((i + 1) % n)});
    // Two random long-haul links per server.
    for (int k = 0; k < 2; ++k) {
      const auto j = static_cast<core::ServerId>(rng.uniform_index(n));
      if (j != i) cfg.custom_edges.push_back({i, j});
    }
  }

  service::TimeService service(cfg);
  std::printf("starting %zu-server internet time service (ring + random "
              "links, IM, tau=30)\n", n);

  // Run with churn: at random instants a random server leaves or a fresh
  // one joins with a poor initial error.
  double t = 0.0;
  const double step = horizon / (churn_events + 1);
  int joins = 0, leaves = 0;
  for (int e = 0; e < churn_events; ++e) {
    t += step;
    service.run_until(t);
    if (rng.bernoulli(0.5)) {
      // A workstation owner turns her machine into a time server (Section
      // 1.1): joins knowing every running server.
      service::ServerSpec s;
      s.algo = core::SyncAlgorithm::kIM;
      s.claimed_delta = 1e-4;
      s.actual_drift = rng.uniform(-0.9, 0.9) * s.claimed_delta;
      s.initial_error = 1.0;  // fresh, poorly-set clock
      s.initial_offset = core::Offset{rng.uniform(-0.5, 0.5)};
      s.poll_period = 30.0;
      service.add_server(s);
      ++joins;
    } else {
      const auto victim = static_cast<core::ServerId>(
          rng.uniform_index(service.size()));
      service.remove_server(victim);
      ++leaves;
    }
  }
  service.run_until(horizon);

  std::printf("churn: %d joins, %d leaves; %zu servers still running\n",
              joins, leaves, service.running_count());

  // Report the service's health.
  util::Sampler errors, offsets;
  const core::RealTime now = service.now();
  for (std::size_t i = 0; i < service.size(); ++i) {
    auto& server = service.server(i);
    if (!server.running()) continue;
    errors.add(server.current_error(now).seconds());
    offsets.add(std::abs(server.true_offset(now).seconds()));
  }
  std::printf("errors  : %s\n", errors.summary().c_str());
  std::printf("|offset|: %s\n", offsets.summary().c_str());
  std::printf("max asynchronism: %.4f s (precision target: tens of seconds)\n",
              service.max_asynchronism().seconds());

  const auto report = service::check_correctness(service.trace());
  std::printf("correctness: %zu samples, %zu violations\n",
              report.samples_checked, report.violations.size());
  return report.ok() ? 0 : 1;
}
