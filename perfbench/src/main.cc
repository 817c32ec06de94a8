// mtds_perfbench: runs one benchmark workload and prints its result.
//
//   mtds_perfbench --workload <fleet-sharded|byz-gossip|serve-udp>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Standard output: one diagnostics line ({"diagnostics": {...}}: host,
// fingerprint, set-up samples) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}.  Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones.  Exit status 0 means
// the workload ran to the end (correct may still be false); 2 means bad
// arguments; 1 means the workload could not run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

using namespace perfbench;

const std::set<std::string> kEndToEnd = {
    "throughput_per_s",  "latency_p50_us", "error_p50_us",
    "asynchrony_p50_us", "peak_rss_mb",    "setup_s"};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet-sharded|byz-gossip|serve-udp "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

void print_result(const RunArgs& args, const Result& res) {
  std::printf("{\"diagnostics\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"nproc\": %u, \"cpu_model\": \"%s\"",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              online_cpus(), json_escape(cpu_model()).c_str());
  for (const auto& [k, v] : res.diag) {
    std::printf(", \"%s\": \"%s\"", json_escape(k).c_str(),
                json_escape(v).c_str());
  }
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    std::printf(", \"error%zu\": \"%s\"", i,
                json_escape(res.errors[i]).c_str());
  }
  std::printf("}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  bool first = true;
  for (const Metric& m : res.metrics) {
    if ((kEndToEnd.count(m.name) > 0) == args.trace) continue;
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(),
                format_double(m.value).c_str(), m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage(argv[0]);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 600)) {
        return usage(argv[0]);
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage(argv[0]);
      }
      args.trace = value[0] == '1';
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload ||
      !(is_sim_workload(args.workload) || args.workload == "serve-udp")) {
    return usage(argv[0]);
  }

  try {
    const Result res = is_sim_workload(args.workload) ? run_sim_workload(args)
                                                      : run_serve_udp(args);
    if (res.metrics.empty()) {
      for (const auto& e : res.errors) {
        std::fprintf(stderr, "mtds_perfbench: %s\n", e.c_str());
      }
      return 1;
    }
    print_result(args, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mtds_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
