#include "service/report.h"

#include <cstdio>

namespace mtds::service {

ServiceReport build_report(TimeService& service) {
  ServiceReport report;
  report.at = service.now();

  for (std::size_t i = 0; i < service.size(); ++i) {
    auto& server = service.server(i);
    ServerReport sr;
    sr.id = server.id();
    sr.algo = std::string(core::to_string(server.spec().algo));
    sr.running = server.running();
    sr.claimed_delta = server.spec().claimed_delta;
    sr.offset = server.true_offset(report.at);
    sr.error = server.current_error(report.at);
    sr.correct = server.correct(report.at);
    sr.counters = server.counters();
    sr.dissonant = server.peers().dissonant();
    report.servers.push_back(std::move(sr));
  }

  report.network = service.network().stats();
  const auto& trace = service.trace();
  report.resets = trace.count_events(sim::TraceEventKind::kReset);
  report.inconsistencies =
      trace.count_events(sim::TraceEventKind::kInconsistent);
  report.recoveries = trace.count_events(sim::TraceEventKind::kRecovery);
  report.joins = trace.count_events(sim::TraceEventKind::kJoin);
  report.leaves = trace.count_events(sim::TraceEventKind::kLeave);

  report.correctness = check_correctness(trace);
  report.consistency = check_pairwise_consistency(trace);
  report.asynchronism = measure_asynchronism(trace);
  report.growth = measure_error_growth(trace);
  return report;
}

std::string format_report(const ServiceReport& report) {
  std::string out;
  char buf[256];
  auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };

  add("service report at t = %.3f\n", report.at.seconds());
  add("%-4s %-6s %-8s %10s %12s %12s %8s %7s %7s %6s %5s\n", "id", "algo",
      "state", "delta", "offset", "error", "correct", "rounds", "resets",
      "incons", "recov");
  for (const auto& s : report.servers) {
    add("S%-3u %-6s %-8s %10.2e %12.6f %12.6f %8s %7llu %7llu %6llu %5llu",
        s.id, s.algo.c_str(), s.running ? "running" : "left", s.claimed_delta,
        s.offset.seconds(), s.error.seconds(), s.correct ? "yes" : "NO",
        static_cast<unsigned long long>(s.counters.rounds),
        static_cast<unsigned long long>(s.counters.resets),
        static_cast<unsigned long long>(s.counters.inconsistencies),
        static_cast<unsigned long long>(s.counters.recoveries));
    if (!s.dissonant.empty()) {
      out += "  dissonant:";
      for (auto id : s.dissonant) add(" S%u", id);
    }
    out += '\n';
  }

  add("network: sent %llu delivered %llu lost %llu partitioned %llu "
      "unroutable %llu\n",
      static_cast<unsigned long long>(report.network.sent),
      static_cast<unsigned long long>(report.network.delivered),
      static_cast<unsigned long long>(report.network.dropped_loss),
      static_cast<unsigned long long>(report.network.dropped_partition),
      static_cast<unsigned long long>(report.network.dropped_no_handler));
  add("events: resets %zu inconsistencies %zu recoveries %zu joins %zu "
      "leaves %zu\n",
      report.resets, report.inconsistencies, report.recoveries, report.joins,
      report.leaves);
  add("correctness: %zu samples, %zu violations (worst |offset|/E %.3f)\n",
      report.correctness.samples_checked, report.correctness.violations.size(),
      report.correctness.worst_ratio);
  add("consistency: %zu pairs, %zu violations\n",
      report.consistency.pairs_checked, report.consistency.violations.size());
  if (report.asynchronism.worst_i == core::kInvalidServer) {
    out += "asynchronism: no sampled pair\n";
  } else {
    add("asynchronism: max %.6f s at t=%.3f (S%u vs S%u)\n",
        report.asynchronism.max_observed.seconds(),
        report.asynchronism.worst_time.seconds(),
        report.asynchronism.worst_i, report.asynchronism.worst_j);
  }
  add("error growth: min slope %.3e (r2 %.3f), max slope %.3e (r2 %.3f)%s\n",
      report.growth.min_fit.slope, report.growth.min_fit.r2,
      report.growth.max_fit.slope, report.growth.max_fit.r2,
      report.growth.min_monotonic ? "" : " [minimum decreased]");
  add("verdict: %s\n", report.healthy() ? "HEALTHY" : "UNHEALTHY");
  return out;
}

}  // namespace mtds::service
