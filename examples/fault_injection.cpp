// Fault injection: the clock failure modes of Section 1.1 ("a clock may
// fail in many ways, such as by stopping, racing ahead, or refusing to
// change its value when reset") plus the invalid-drift-bound failure of
// Section 3, run against both recovery policies - and, via the chaos plane
// (runtime::FaultInjector), the *communication* failure modes of Section 1:
// message loss, duplication, delay spikes and a crash-stopped server, with
// the peer-health layer discovering the crash and degrading gracefully.
//
//   $ ./fault_injection [--horizon=800]
#include <cstdio>
#include <string>

#include "service/invariants.h"
#include "service/time_service.h"
#include "util/flags.h"

using namespace mtds;

namespace {

struct ScenarioResult {
  double healthy_worst_offset;  // worst |offset| among healthy servers
  double faulty_offset;         // |offset| of the injected-fault server
  std::size_t inconsistencies;
  std::size_t recoveries;
};

ScenarioResult run(const std::string& name, core::ClockFault fault,
                   double bad_actual_drift, service::RecoveryPolicy policy,
                   double horizon) {
  service::ServiceConfig cfg;
  cfg.seed = 4242;
  cfg.delay_hi = 0.005;
  cfg.sample_interval = 5.0;
  for (int i = 0; i < 5; ++i) {
    service::ServerSpec s;
    s.algo = core::SyncAlgorithm::kMM;
    s.claimed_delta = 2e-5;
    s.simulated_drift = (i - 2) * 8e-6;
    s.initial_error = 0.01;
    s.poll_period = 10.0;
    s.recovery = policy;
    cfg.servers.push_back(s);
  }
  // Server 4 carries the fault.
  cfg.servers[4].fault = fault;
  cfg.servers[4].simulated_drift = bad_actual_drift;

  service::TimeService service(cfg);
  service.run_until(horizon);

  ScenarioResult r{};
  const core::RealTime now = service.now();
  for (int i = 0; i < 4; ++i) {
    r.healthy_worst_offset = std::max(
        r.healthy_worst_offset,
        std::abs(service.server(i).true_offset(now).seconds()));
  }
  r.faulty_offset = std::abs(service.server(4).true_offset(now).seconds());
  r.inconsistencies =
      service.trace().count_events(sim::TraceEventKind::kInconsistent);
  r.recoveries = service.trace().count_events(sim::TraceEventKind::kRecovery);

  std::printf("%-28s healthy worst |offset| %10.4f  faulty |offset| %10.3f  "
              "inconsistencies %4zu  recoveries %4zu\n",
              name.c_str(), r.healthy_worst_offset, r.faulty_offset,
              r.inconsistencies, r.recoveries);
  return r;
}

// Chaos plane + peer health: every server's transport runs behind a
// FaultInjector (10% loss, 10% duplication, 10% delay spikes); at
// crash_at server 4's injector crash-stops the endpoint (silent, still
// "running") and at restart_at it comes back.  The peers must walk S4
// through healthy -> suspect -> dead, fall back to backoff probes, and
// heal it within a couple of rounds of the restart; S4 itself - all its
// polls unanswered - must enter and then leave degraded mode.
bool run_chaos(double horizon) {
  service::ServiceConfig cfg;
  cfg.seed = 4242;
  cfg.delay_hi = 0.005;
  cfg.sample_interval = 5.0;
  for (int i = 0; i < 5; ++i) {
    service::ServerSpec s;
    s.algo = core::SyncAlgorithm::kMM;
    s.claimed_delta = 2e-5;
    s.simulated_drift = (i - 2) * 8e-6;
    s.initial_error = 0.01;
    s.poll_period = 10.0;
    s.health.enabled = true;
    s.chaos.drop = 0.1;
    s.chaos.duplicate = 0.1;
    s.chaos.delay = 0.1;
    s.chaos.delay_hi = 0.05;
    s.chaos.seed = 0xC4A05 + static_cast<std::uint64_t>(i);
    cfg.servers.push_back(s);
  }

  service::TimeService service(cfg);
  const double crash_at = horizon * 0.25;
  const double restart_at = horizon * 0.6;
  service.run_until(crash_at);
  service.server(4).fault_injector()->set_crashed(true);
  service.run_until(restart_at);
  const bool degraded_while_crashed = service.server(4).degraded();
  service.server(4).fault_injector()->set_crashed(false);
  service.run_until(horizon);

  const core::RealTime now = service.now();
  std::uint64_t deaths = 0, heals = 0, probes = 0, suppressed = 0;
  std::uint64_t loss = 0, dup = 0, delayed = 0;
  bool correct = true, healed = true;
  for (int i = 0; i < 5; ++i) {
    const auto& c = service.server(i).counters();
    deaths += c.peer_deaths;
    heals += c.peer_recoveries;
    probes += c.probes_sent;
    suppressed += c.polls_suppressed;
    const auto fs = service.server(i).fault_injector()->stats();
    loss += fs.dropped_loss;
    dup += fs.duplicated;
    delayed += fs.delayed;
    correct = correct && service.server(i).correct(now);
    if (i != 4) {
      // Under sustained 10% chaos a peer is legitimately suspect at any
      // instant; "healed" means S4 is no longer written off as dead.
      healed = healed && service.server(i).peer_state(4) !=
                             service::PeerState::kDead;
    }
  }
  std::printf("chaos plane: loss %llu dup %llu delayed %llu | deaths %llu "
              "heals %llu probes %llu suppressed %llu | S4 degraded while "
              "crashed: %s\n",
              static_cast<unsigned long long>(loss),
              static_cast<unsigned long long>(dup),
              static_cast<unsigned long long>(delayed),
              static_cast<unsigned long long>(deaths),
              static_cast<unsigned long long>(heals),
              static_cast<unsigned long long>(probes),
              static_cast<unsigned long long>(suppressed),
              degraded_while_crashed ? "yes" : "no");
  std::printf("  survivors correct: %s | S4 healed: %s | S4 degraded at end: "
              "%s\n", correct ? "yes" : "no", healed ? "yes" : "no",
              service.server(4).degraded() ? "yes" : "no");

  return correct && healed && degraded_while_crashed &&
         !service.server(4).degraded() && loss > 0 && dup > 0 &&
         delayed > 0 && deaths > 0 && heals > 0 && probes > 0 &&
         probes < suppressed;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.parse(argc, argv);
  const double horizon = flags.get_double("horizon", 800.0);

  std::printf("5-server MM service, one faulty server (S4), horizon %.0f s\n\n",
              horizon);

  bool ok = true;

  std::printf("--- recovery policy: ignore inconsistent replies ---\n");
  const auto stopped = run("stopped clock",
                           {core::ClockFaultKind::kStopped, 100.0, 0.0}, 0.0,
                           service::RecoveryPolicy::kIgnore, horizon);
  const auto racing = run("racing clock (5x)",
                          {core::ClockFaultKind::kRacing, 100.0, 5.0}, 0.0,
                          service::RecoveryPolicy::kIgnore, horizon);
  const auto sticky = run("sticky reset",
                          {core::ClockFaultKind::kStickyReset, 100.0, 0.0},
                          1e-4, service::RecoveryPolicy::kIgnore, horizon);
  const auto liar = run("invalid drift bound (1000x)", {}, 2e-2,
                        service::RecoveryPolicy::kIgnore, horizon);

  // The healthy majority must stay close to true time in every scenario.
  for (const auto& r : {stopped, racing, sticky, liar}) {
    ok = ok && r.healthy_worst_offset < 0.5;
  }
  // Stopped/racing/liar clocks wander far off and get flagged.
  ok = ok && stopped.faulty_offset > 100.0 && racing.faulty_offset > 100.0 &&
       liar.faulty_offset > 1.0;
  ok = ok && (stopped.inconsistencies > 0 && racing.inconsistencies > 0 &&
              liar.inconsistencies > 0);

  std::printf("\n--- recovery policy: third-server reset ---\n");
  const auto liar_rec = run("invalid drift bound (1000x)", {}, 2e-2,
                            service::RecoveryPolicy::kThirdServer, horizon);
  ok = ok && liar_rec.recoveries > 0 &&
       liar_rec.faulty_offset < liar.faulty_offset;
  std::printf("\nwith recovery the liar's final offset shrinks from %.2f s "
              "to %.2f s\n", liar.faulty_offset, liar_rec.faulty_offset);

  std::printf("\n--- chaos plane: message faults + crash-stop (S4) ---\n");
  ok = ok && run_chaos(horizon);

  std::printf("\n%s\n", ok ? "all expectations held" : "UNEXPECTED BEHAVIOUR");
  return ok ? 0 : 1;
}
