// Simulated-fleet workloads.
//
//   fleet-sharded  512 servers, full mesh, MM/IM/IMFT in rotation, on the
//                  sharded engine (8 shards, 1 worker thread).  The event queue,
//                  Network::send, the mailbox flush and the barrier carry
//                  most of the cost.
//   byz-gossip     64 BYZ servers, full mesh, gossip cross-notes, peer
//                  health with quarantine and probation, the sample filter,
//                  1% message loss on the chaos plane, one two-faced and
//                  two colluding adversaries and one crash/restart, on the
//                  default engine.  Per-reply engine and core work carry
//                  most of the cost.
//
// One measured "round" is one TimeService::run_until(t + tau).  Timing is
// robust by construction: latency is the median round, throughput is
// server-rounds over the summed round wall time, and every round's wall time
// is scaled to the reference host speed measured by SimReference passes run
// right before and right after it (host_reference.h).  Accuracy (E and the
// clock spread) is taken over a fixed prefix of rounds, so it is a pure
// function of the seed and repeats exactly; correctness is checked on every
// measured round.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "host_reference.h"
#include "layers.h"
#include "service/scenario.h"
#include "service/time_service.h"
#include "sim/sharded_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mtds;

struct SimWorkload {
  std::string scenario;  // DSL text generated from the seed
  double tau = 10;
  double warmup_end = 0;  // real time at which set-up stops
  std::size_t fingerprint_rounds = 0;
  // Runs on the sharded engine, and so takes the hand-off SimReference.
  bool sharded = false;
  std::size_t min_rounds = 0;  // measured whatever the time budget
  std::size_t max_rounds = 0;
  std::vector<core::ServerId> adversaries;
  // Per-copy loss on every server's chaos plane (0 = chaos plane off).
  double chaos_drop = 0;
  bool sample_filter = false;
  // One crash/restart of an honest server, by measured round index.
  core::ServerId crash_id = core::kInvalidServer;
  std::size_t crash_round = 0;
  std::size_t restart_round = 0;
  std::uint64_t chaos_seed = 0;
};

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// `n` evenly spaced values in [lo, hi] in a seeded order.  Drawing a
// fleet's parameters this way keeps the set of values the same for every
// seed and lets the seed decide only which server gets which; iid draws let
// the extremes, which set the clock spread, move from seed to seed.
std::vector<double> permuted_grid(InputRng& rng, std::size_t n, double lo,
                                  double hi) {
  std::vector<double> v(n);
  for (std::size_t k = 0; k < n; ++k) {
    v[k] = lo + (hi - lo) * (static_cast<double>(k) + 0.5) /
                    static_cast<double>(n);
  }
  for (std::size_t k = n; k > 1; --k) {
    std::swap(v[k - 1], v[rng.below(k)]);
  }
  return v;
}

SimWorkload make_fleet_sharded(std::uint64_t seed) {
  InputRng rng(seed);
  SimWorkload w;
  w.tau = 10;
  // Every server's first round starts in [0, tau) and finishes within a
  // few milliseconds; set-up ends once all of them have completed.
  w.warmup_end = 1.05 * w.tau;
  w.sharded = true;
  w.fingerprint_rounds = 16;
  w.min_rounds = w.fingerprint_rounds;
  w.max_rounds = 160;
  std::string s = "seed " + std::to_string(rng.next() % 1'000'000'007) + "\n";
  s += "delay 0.0005 0.002\n";
  // One worker thread: every window is still handed from the coordinator to
  // a worker and back, and every barrier still flushes the mailboxes, but no
  // barrier waits on a second vCPU.  On a 4-vCPU KVM guest 4 workers ran no
  // faster than one, and their rounds swung with the host's other tenants
  // far more than the host reference could follow (README.md, "Noise").
  s += "sample 10\nshards 8\nthreads 1\ntopology full\n";
  constexpr std::size_t kServers = 512;
  const char* algos[] = {"MM", "IM", "IMFT"};
  const auto drift = permuted_grid(rng, kServers, -8e-6, 8e-6);
  const auto error = permuted_grid(rng, kServers, 0.018, 0.022);
  const auto offset = permuted_grid(rng, kServers, -0.5, 0.5);
  for (std::size_t i = 0; i < kServers; ++i) {
    s += std::string("server algo=") + algos[i % 3] + " delta=1e-5" +
         " drift=" + fmt("%.6g", drift[i]) + " error=" + fmt("%.6g", error[i]) +
         " offset=" + fmt("%.6g", offset[i] * error[i]) + " tau=10\n";
  }
  w.scenario = s;
  return w;
}

SimWorkload make_byz_gossip(std::uint64_t seed) {
  InputRng rng(seed);
  constexpr core::ServerId kServers = 64;
  SimWorkload w;
  w.tau = 5;
  // Gossip and reading memory only reach steady state from the second
  // round on; set-up covers two full rounds past the first.
  w.warmup_end = 3.05 * w.tau;
  w.fingerprint_rounds = 24;
  w.max_rounds = 4000;
  w.chaos_drop = 0.005;  // per copy, both ends: ~1% per message
  w.sample_filter = true;
  w.chaos_seed = rng.next();
  std::string s = "seed " + std::to_string(rng.next() % 1'000'000'007) + "\n";
  s += "delay 0.001 0.003\nsample 5\ntopology full\nsync BYZ\ngossip on\n";
  const auto drift = permuted_grid(rng, kServers, -1.5e-5, 1.5e-5);
  const auto error = permuted_grid(rng, kServers, 0.018, 0.022);
  const auto offset = permuted_grid(rng, kServers, -0.5, 0.5);
  for (core::ServerId i = 0; i < kServers; ++i) {
    s += "server delta=2e-5 drift=" + fmt("%.6g", drift[i]) +
         " error=" + fmt("%.6g", error[i]) +
         " offset=" + fmt("%.6g", offset[i] * error[i]) +
         " tau=5 health=1 quarantine=3 release=4 probation=2\n";
  }
  // f = 3 distinct adversaries (n = 64 >= 3f + 1) and one honest victim.
  while (w.adversaries.size() < 4) {
    const auto id = static_cast<core::ServerId>(rng.below(kServers));
    bool dup = false;
    for (auto a : w.adversaries) dup = dup || a == id;
    if (!dup) w.adversaries.push_back(id);
  }
  w.crash_id = w.adversaries.back();
  w.adversaries.pop_back();
  // After the accuracy prefix: the victim's clock drifts freely while it is
  // down, and with the crash inside the prefix the clock spread depended on
  // which drift the seed gave the victim.  Every round after the restart is
  // still checked for correctness.
  w.crash_round = 30;
  w.restart_round = 36;
  w.min_rounds = w.restart_round + 6;
  s += "adversary twofaced " + std::to_string(w.adversaries[0]) +
       " magnitude=0.02 error=0.005\n";
  s += "adversary collusion " + std::to_string(w.adversaries[1]) + " " +
       std::to_string(w.adversaries[2]) + " rate=0.002 error=0.005\n";
  w.scenario = s;
  return w;
}

// Installs the default barrier hook (flush only) or one that times every
// flush as a child span of the current round.
void set_flush_probe(service::TimeService& svc, SpanRecorder* spans,
                     const std::int32_t* round_span, std::int64_t* flush_ns,
                     const std::int64_t* round) {
  sim::ShardedEngine* engine = svc.sharded_engine();
  if (engine == nullptr) return;
  if (spans == nullptr) {
    engine->set_barrier_hook([&svc] { svc.network().flush_mailboxes(); });
    return;
  }
  engine->set_barrier_hook([&svc, spans, round_span, flush_ns, round] {
    const std::int64_t t0 = wall_ns();
    svc.network().flush_mailboxes();
    const std::int64_t t1 = wall_ns();
    spans->close(spans->open("sharded_engine.flush", *round_span, *round, t0),
                 t1);
    *flush_ns += t1 - t0;
  });
}

std::unique_ptr<service::TimeService> build_service(const SimWorkload& w) {
  service::Scenario sc = service::parse_scenario(w.scenario);
  for (auto& spec : sc.config.servers) {
    spec.use_sample_filter = w.sample_filter;
    if (w.chaos_drop > 0) {
      spec.chaos.drop = w.chaos_drop;
      spec.chaos.seed = w.chaos_seed;
    }
  }
  const std::size_t n = sc.config.servers.size();
  auto svc = std::make_unique<service::TimeService>(std::move(sc.config));
  const std::size_t rounds = w.max_rounds + 4;
  svc->reserve_trace(n * rounds, 8 * n * rounds);
  svc->run_until(w.warmup_end);
  return svc;
}

struct Totals {
  std::uint64_t msgs = 0, replies = 0, gossip = 0, resets = 0;
  std::uint64_t convictions = 0, quarantines = 0, drops = 0, forged = 0;
};

Totals totals(service::TimeService& svc) {
  Totals t;
  t.msgs = svc.network().stats().sent;
  for (std::size_t i = 0; i < svc.size(); ++i) {
    const auto& c = svc.server(i).counters();
    t.replies += c.replies_received;
    t.gossip += c.gossip_sent;
    t.resets += c.resets;
    t.convictions += c.gossip_convictions;
    t.quarantines += c.quarantines;
    if (const auto* fi = svc.server(i).fault_injector()) {
      const auto& fs = fi->stats();
      t.drops += fs.dropped_loss + fs.dropped_partition + fs.dropped_crash;
      t.forged += fs.forged;
    }
  }
  return t;
}

struct RoundRecord {
  double wall_ns = 0;
  double flush_ns = 0;
  double cpu_ns = 0;  // process CPU time (all threads) during the round
  double windows = 0;
  double replies = 0;
  double servers = 0;  // running servers (server-rounds this round)
  double scale = 0;    // host-speed scale around this round
  bool traced = false;
  bool stolen = false;  // the hypervisor took CPU time during the round
  // Round wall time at the reference host speed.
  double scaled_ns() const { return wall_ns * scale; }
};

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "fleet-sharded" || name == "byz-gossip";
}

Result run_sim_workload(const RunArgs& args) {
  Result res;
  const SimWorkload w = args.workload == "fleet-sharded"
                            ? make_fleet_sharded(args.seed)
                            : make_byz_gossip(args.seed);

  SimReference ref(/*hand_off=*/w.sharded);
  const auto scale_between = [](double before_ns, double after_ns) {
    return host_scale(0.5 * (before_ns + after_ns),
                      SimReference::kNominalPassNs);
  };

  // ---- set-up: median of several full constructions ----------------------
  // Each set-up is scaled by the median of kSetupPasses reference passes
  // taken right before it and as many right after: one set-up is a single
  // round's work, so it cannot average out a noisy pass the way the median
  // over many rounds does.  The first set-up builds the service the run
  // measures; the others follow the measured phase, so the memory they
  // churn does not reach peak_rss_mb.
  constexpr int kSetups = 21;
  constexpr int kSetupPasses = 3;
  std::vector<double> setup_s, setup_raw_s, setup_faults;
  const auto timed_setup = [&] {
    std::vector<double> passes;
    for (int i = 0; i < kSetupPasses; ++i) {
      passes.push_back(static_cast<double>(ref.pass_ns()));
    }
    const std::uint64_t faults0 = minor_faults();
    const std::int64_t t0 = wall_ns();
    auto built = build_service(w);
    const double raw = static_cast<double>(wall_ns() - t0) * 1e-9;
    setup_faults.push_back(static_cast<double>(minor_faults() - faults0));
    for (int i = 0; i < kSetupPasses; ++i) {
      passes.push_back(static_cast<double>(ref.pass_ns()));
    }
    setup_raw_s.push_back(raw);
    setup_s.push_back(
        raw * host_scale(median(passes), SimReference::kNominalPassNs));
    return built;
  };
  std::unique_ptr<service::TimeService> svc = timed_setup();
  const bool sharded = w.sharded;
  if (sharded && svc->sharded_engine() == nullptr) {
    res.fail("the scenario asks for shards but the service built no "
             "sharded engine");
  }

  std::vector<bool> honest(svc->size(), true);
  for (auto a : w.adversaries) honest[a] = false;

  // ---- measured phase -----------------------------------------------------
  SpanRecorder spans(args.trace ? 1 << 20 : 0);
  std::int32_t round_span = -1;
  std::int64_t flush_ns = 0;
  std::int64_t round_id = 0;
  const std::int64_t budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);

  std::vector<RoundRecord> rounds;
  rounds.reserve(w.max_rounds);
  std::vector<double> errors_us, spreads_us;
  errors_us.reserve(w.fingerprint_rounds * svc->size());
  spreads_us.reserve(w.fingerprint_rounds);
  Totals fp_start = totals(*svc), fp_end;
  std::size_t fp_windows = 0;
  double rss_mb = 0;

  std::vector<double> ref_ns;  // reference pass before each round, and after
  ref_ns.reserve(w.max_rounds + 1);
  std::int64_t ref_total_ns = 0;

  PhaseProbe probe;
  probe.begin();
  const std::int64_t start = wall_ns();
  ref_ns.push_back(static_cast<double>(ref.pass_ns()));
  for (std::size_t r = 0; r < w.max_rounds; ++r) {
    if (r >= w.min_rounds && wall_ns() - start >= budget_ns) break;
    if (w.crash_id != core::kInvalidServer) {
      if (r == w.crash_round) svc->crash_server(w.crash_id);
      if (r == w.restart_round) svc->restart_server(w.crash_id);
    }
    // Traced runs alternate untraced and traced rounds, so the tracing
    // overhead is measured inside one run, under the same host conditions.
    const bool traced = args.trace && (r % 2 == 1);
    round_id = static_cast<std::int64_t>(r);
    flush_ns = 0;
    if (args.trace) {
      set_flush_probe(*svc, traced ? &spans : nullptr, &round_span, &flush_ns,
                      &round_id);
    }
    const Totals before = totals(*svc);
    const std::size_t running = svc->running_count();
    const core::RealTime target =
        w.warmup_end + static_cast<double>(r + 1) * w.tau;

    const CpuTicks ticks0 = read_cpu_ticks();
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t t0 = wall_ns();
    if (traced) round_span = spans.open("sim.round", -1, round_id, t0);
    svc->run_until(target);
    const std::int64_t t1 = wall_ns();
    const std::int64_t cpu1 = process_cpu_ns();
    if (traced) spans.close(round_span, t1);
    const CpuTicks ticks1 = read_cpu_ticks();
    const std::int64_t ref_t0 = wall_ns();
    ref_ns.push_back(static_cast<double>(ref.pass_ns()));
    ref_total_ns += wall_ns() - ref_t0;

    const Totals after = totals(*svc);
    RoundRecord rec;
    rec.wall_ns = static_cast<double>(t1 - t0);
    rec.flush_ns = static_cast<double>(flush_ns);
    rec.cpu_ns = static_cast<double>(cpu1 - cpu0);
    if (sim::ShardedEngine* engine = svc->sharded_engine()) {
      rec.windows = static_cast<double>(engine->last_windows());
    }
    rec.replies = static_cast<double>(after.replies - before.replies);
    rec.servers = static_cast<double>(running);
    rec.scale = scale_between(ref_ns[r], ref_ns[r + 1]);
    rec.traced = traced;
    rec.stolen = ticks1.steal > ticks0.steal;
    rounds.push_back(rec);

    // Check every honest running server's interval against true time.
    const core::RealTime now = svc->now();
    double cmin = 0, cmax = 0;
    bool first = true;
    for (std::size_t i = 0; i < svc->size(); ++i) {
      auto& server = svc->server(i);
      if (!honest[i] || !server.running()) continue;
      ++res.attempted;
      if (!server.correct(now)) ++res.failed;
      if (r < w.fingerprint_rounds) {
        const double c = server.read_clock(now).seconds();
        errors_us.push_back(server.current_error(now).seconds() * 1e6);
        cmin = first || c < cmin ? c : cmin;
        cmax = first || c > cmax ? c : cmax;
        first = false;
      }
    }
    if (r < w.fingerprint_rounds) {
      spreads_us.push_back((cmax - cmin) * 1e6);
      fp_windows += static_cast<std::size_t>(rec.windows);
      if (r + 1 == w.fingerprint_rounds) {
        fp_end = after;
        // The service keeps its whole trace, so memory grows with simulated
        // time; taking the peak at a fixed round keeps it independent of
        // how many rounds the host managed in the time budget.
        // The host reference's tables are resident all along and are not
        // the program's.
        rss_mb = peak_rss_mb() - ref.resident_mb();
      }
    }
  }
  probe.end();
  if (args.trace) set_flush_probe(*svc, nullptr, nullptr, nullptr, nullptr);

  if (res.failed > 0) {
    res.fail(std::to_string(res.failed) +
             " honest-server samples missed true time");
  }

  // ---- end-to-end metrics (untraced rounds) -------------------------------
  // Every round counts, at the host speed the reference passes around it
  // measured.  Rounds the hypervisor stole from are counted as a diagnostic
  // only.
  std::vector<double> wall_untraced, wall_traced, raw_untraced;
  double server_rounds = 0, untraced_wall_s = 0, raw_wall_s = 0;
  std::size_t stolen = 0;
  for (const auto& rec : rounds) {
    (rec.traced ? wall_traced : wall_untraced).push_back(rec.scaled_ns());
    if (rec.traced) continue;
    raw_untraced.push_back(rec.wall_ns);
    server_rounds += rec.servers;
    untraced_wall_s += rec.scaled_ns() * 1e-9;
    raw_wall_s += rec.wall_ns * 1e-9;
    if (rec.stolen) ++stolen;
  }
  res.note("rounds_with_steal", static_cast<double>(stolen));
  const double round_p50_us = median(wall_untraced) * 1e-3;
  std::vector<double> round_ms_q;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    round_ms_q.push_back(quantile(raw_untraced, q) * 1e-6);
  }
  res.note("raw_round_ms_q10_q25_q50_q75_q90", join(round_ms_q));
  std::vector<double> ref_ms_q;
  for (double q : {0.1, 0.5, 0.9}) ref_ms_q.push_back(quantile(ref_ns, q) * 1e-6);
  res.note("reference_pass_ms_q10_q50_q90", join(ref_ms_q));
  res.note("raw_throughput_per_s",
           raw_wall_s > 0 ? server_rounds / raw_wall_s : 0);
  res.note("raw_latency_p50_us", median(raw_untraced) * 1e-3);
  res.note("reference_share_of_phase",
           static_cast<double>(ref_total_ns) * 1e-9 / probe.wall_s());
  res.add("throughput_per_s",
          untraced_wall_s > 0 ? server_rounds / untraced_wall_s : 0, "1/s");
  res.add("latency_p50_us", round_p50_us, "us");
  const double error_p50_us = median(errors_us);
  const double spread_p50_us = median(spreads_us);
  res.add("error_p50_us", error_p50_us, "us");
  res.add("asynchrony_p50_us", spread_p50_us, "us");
  res.add("peak_rss_mb", rss_mb, "MB");

  // ---- fingerprint: exact accuracy and message counts over the prefix ----
  const double k = static_cast<double>(w.fingerprint_rounds);
  char fp[256];
  std::snprintf(fp, sizeof fp,
                "rounds=%zu error_p50_us=%.9g asynchrony_p50_us=%.9g "
                "msgs=%" PRIu64 " replies=%" PRIu64 " resets=%" PRIu64
                " windows=%zu",
                w.fingerprint_rounds, error_p50_us, spread_p50_us,
                fp_end.msgs - fp_start.msgs, fp_end.replies - fp_start.replies,
                fp_end.resets - fp_start.resets, fp_windows);
  res.note("fingerprint", fp);
  res.note("rounds_measured", static_cast<double>(rounds.size()));
  res.note("servers", static_cast<double>(svc->size()));

  // ---- per-layer metrics --------------------------------------------------
  // Exact counts over the fingerprint prefix (identical for a seed).
  res.add("sim.msgs_per_round",
          static_cast<double>(fp_end.msgs - fp_start.msgs) / k, "count");
  res.add("sharded_engine.windows_per_round",
          static_cast<double>(fp_windows) / k, "count");
  res.add("service.replies_per_round",
          static_cast<double>(fp_end.replies - fp_start.replies) / k, "count");
  res.add("service.gossip_per_round",
          static_cast<double>(fp_end.gossip - fp_start.gossip) / k, "count");
  res.add("service.resets_per_round",
          static_cast<double>(fp_end.resets - fp_start.resets) / k, "count");
  res.add("service.convictions",
          static_cast<double>(fp_end.convictions - fp_start.convictions),
          "count");
  res.add("service.quarantines",
          static_cast<double>(fp_end.quarantines - fp_start.quarantines),
          "count");
  res.add("runtime.fault_drops_per_round",
          static_cast<double>(fp_end.drops - fp_start.drops) / k, "count");
  res.add("runtime.forged_per_round",
          static_cast<double>(fp_end.forged - fp_start.forged) / k, "count");

  // Timings over traced rounds, as measured (per-layer metrics are not
  // scaled to the reference host speed; host.speed_scale says how far off
  // it the run was).
  std::vector<double> flush_ms, window_ms, us_per_window, ns_per_reply;
  double flush_total = 0, round_total = 0;
  for (const auto& rec : rounds) {
    if (!rec.traced) continue;
    const double window_ns = rec.wall_ns - rec.flush_ns;
    flush_ms.push_back(rec.flush_ns * 1e-6);
    window_ms.push_back(window_ns * 1e-6);
    if (rec.windows > 0) us_per_window.push_back(window_ns * 1e-3 / rec.windows);
    if (rec.replies > 0) ns_per_reply.push_back(rec.wall_ns / rec.replies);
    flush_total += rec.flush_ns;
    round_total += rec.wall_ns;
    // A sharded round runs windows and flushes mailboxes at every barrier;
    // a zero here means the seam stopped reporting, not that it got free.
    if (sharded && (rec.windows == 0 || rec.flush_ns == 0)) {
      res.fail("a traced sharded round reported no windows or no flush");
      break;
    }
  }
  res.add("sharded_engine.us_per_window", median(us_per_window), "us");
  res.add("sharded_engine.flush_ms_per_round", median(flush_ms), "ms");
  res.add("sharded_engine.flush_share",
          round_total > 0 ? flush_total / round_total : 0, "ratio");
  res.add("sharded_engine.window_ms_per_round", median(window_ms), "ms");
  res.add("service.ns_per_reply", median(ns_per_reply), "ns");
  res.add("service.sync_rounds_per_s",
          round_p50_us > 0 ? 1e6 / round_p50_us : 0, "1/s");
  double round_cpu_ns = 0, round_wall_ns = 0;
  for (const auto& rec : rounds) {
    round_cpu_ns += rec.cpu_ns;
    round_wall_ns += rec.wall_ns;
  }
  res.add("proc.cpu_per_wall",
          round_wall_ns > 0 ? round_cpu_ns / round_wall_ns : 0, "ratio");
  double all_server_rounds = 0;
  for (const auto& rec : rounds) all_server_rounds += rec.servers;
  res.add("proc.allocs_per_op",
          all_server_rounds > 0
              ? static_cast<double>(probe.allocs()) / all_server_rounds
              : 0,
          "count");
  res.add("host.steal_share", probe.steal_share(), "ratio");
  std::vector<double> scales;
  for (const auto& rec : rounds) scales.push_back(rec.scale);
  res.add("host.speed_scale", median(scales), "ratio");
  const double traced_p50 = median(wall_traced);
  res.add("trace.overhead_share",
          traced_p50 > 0 && round_p50_us > 0
              ? traced_p50 * 1e-3 / round_p50_us - 1.0
              : 0,
          "ratio");

  // Serving-plane quantities that a simulated fleet does not exercise.
  for (const char* name : {"net.server_cpu_us_per_reply", "net.send_batch_us",
                           "net.recv_batch_us", "net.rtt_p99_us",
                           "net.rtt_p999_us"}) {
    res.add(name, 0, "us");
  }
  res.add("net.replies_per_recv_call", 0, "count");

  // Layer replays on the live fleet's state: the first honest running
  // server and readings from every other running server.
  if (args.trace) {
    LayerInputs in;
    in.seed = args.seed;
    in.publish_hz = round_p50_us > 0 ? 1e6 / round_p50_us : 1;
    const core::RealTime now = svc->now();
    std::size_t local = svc->size();
    for (std::size_t i = 0; i < svc->size() && local == svc->size(); ++i) {
      if (honest[i] && svc->server(i).running()) local = i;
    }
    auto& self = svc->server(local);
    in.local.clock = self.read_clock(now);
    in.local.error = self.current_error(now);
    in.local.delta = self.spec().claimed_delta;
    const core::Duration rtt = svc->xi() * 0.5;
    for (std::size_t j = 0; j < svc->size(); ++j) {
      auto& peer = svc->server(j);
      if (j == local || !peer.running()) continue;
      core::TimeReading rd;
      rd.from = static_cast<core::ServerId>(j);
      rd.c = peer.read_clock(now);
      rd.e = peer.current_error(now);
      rd.rtt_own = rtt;
      rd.local_receive = in.local.clock;
      in.readings.push_back(rd);
    }
    in.snapshot.base = in.local.clock;
    in.snapshot.error = in.local.error;
    in.snapshot.published_at = now;
    in.snapshot.delta = in.local.delta;
    in.snapshot.server_id = static_cast<std::uint32_t>(local);
    add_layer_replays(in, spans, res);

    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!write_spans(path, {&spans})) res.note("spans_file", "write failed");
    else res.note("spans_file", path);
    res.note("spans_dropped", static_cast<double>(spans.dropped()));
    const auto flush = summarize({&spans}, "sharded_engine.flush");
    const auto round = summarize({&spans}, "sim.round");
    res.note("span.sim.round.self_ms", round.self_total_ms);
    res.note("span.sharded_engine.flush.count",
             static_cast<double>(flush.count));
    res.note("span.sharded_engine.flush.total_ms", flush.total_ms);
  }
  res.note("host.cpu_per_wall", probe.cpu_per_wall());
  res.note("host.steal_share", probe.steal_share());

  svc.reset();
  for (int i = 1; i < kSetups; ++i) timed_setup();
  res.add("setup_s", median(setup_s), "s");
  res.note("setup_samples_s", join(setup_s));
  res.note("raw_setup_s", median(setup_raw_s));
  res.note("setup_minor_faults", join(setup_faults));
  return res;
}

}  // namespace perfbench
