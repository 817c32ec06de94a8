// timeserverd: a standalone UDP time server daemon.
//
// Serves rule MM-1 replies on a UDP port and optionally synchronizes to
// peer servers with MM or IM - the shape of a real deployment of the
// paper's service.  The local clock is virtualized over CLOCK_MONOTONIC so
// drift and offset can be injected for experiments.
//
//   $ ./timeserverd --port=9001 --id=1 --delta=1e-4 --error=0.005
//   $ ./timeserverd --port=9002 --id=2 --peers=9001 --algo=MM
//                   --poll=0.5 --offset=0.05 --seconds=10   (one line)
//
// Runs for --seconds (0 = until SIGINT/SIGTERM), printing a status line per
// --status-every seconds.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/udp_server.h"
#include "util/flags.h"

using namespace mtds;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.parse(argc, argv);
  if (flags.has("help")) {
    std::printf(
        "usage: timeserverd [options]\n"
        "  --port=N          UDP port (default: ephemeral)\n"
        "  --id=N            server id reported in replies (default 0)\n"
        "  --delta=X         claimed drift bound (default 1e-4)\n"
        "  --error=X         initial maximum error, seconds (default 1e-3)\n"
        "  --offset=X        injected initial clock offset (default 0)\n"
        "  --drift=X         injected clock drift (default 0)\n"
        "  --peers=P1,P2     peer ports to synchronize against\n"
        "  --recovery=P1,P2  third-server recovery ports (Section 3)\n"
        "  --algo=MM|IM|IMFT sync algorithm (default MM)\n"
        "  --poll=X          sync period, seconds (default 0.5)\n"
        "  --adaptive=X      adaptive polling: halve/double the period around\n"
        "                    error target X seconds (default: off)\n"
        "  --filter          ntpd-style min-RTT sample filter per neighbour\n"
        "  --broadcast       collect each round with one broadcast tag\n"
        "  --monitor-rates   Section 5 per-neighbour rate monitor\n"
        "  --health          peer-health layer: suspect/dead tracking,\n"
        "                    backoff probing, degraded mode\n"
        "  --quarantine=N    quarantine a peer after N consecutive\n"
        "                    inconsistencies (implies --health)\n"
        "  --chaos-drop=P    chaos plane: drop each message w.p. P\n"
        "  --chaos-dup=P     ... duplicate w.p. P\n"
        "  --chaos-delay=P   ... delay w.p. P (spike up to --chaos-delay-max)\n"
        "  --chaos-delay-max=X  delay spike upper bound, seconds (default 0.1)\n"
        "  --chaos-corrupt=P ... corrupt fields w.p. P\n"
        "  --chaos-seed=N    chaos RNG seed (default 0x5EED)\n"
        "  --client-threads=N serving plane: N SO_REUSEPORT shard threads\n"
        "                    answering client time queries from the latest\n"
        "                    seqlock snapshot (default 0 = off)\n"
        "  --client-port=N   serving-plane UDP port (default: ephemeral)\n"
        "  --client-batch=N  datagrams per recvmmsg/sendmmsg batch "
        "(default 64)\n"
        "  --seconds=X       run time; 0 = until signal (default 0)\n"
        "  --status-every=X  status print period (default 1)\n");
    return 0;
  }

  net::UdpServerConfig cfg;
  cfg.port = static_cast<std::uint16_t>(flags.get_int("port", 0));
  cfg.id = static_cast<std::uint32_t>(flags.get_int("id", 0));
  cfg.claimed_delta = flags.get_double("delta", 1e-4);
  cfg.initial_error = flags.get_double("error", 1e-3);
  cfg.initial_offset = core::Offset{flags.get_double("offset", 0.0)};
  cfg.simulated_drift = flags.get_double("drift", 0.0);
  cfg.poll_period = flags.get_double("poll", 0.5);
  cfg.reply_timeout = std::min<core::Duration>(0.2, cfg.poll_period / 2.0);
  const std::string algo = flags.get("algo", "MM");
  cfg.algo = algo == "IM"     ? core::SyncAlgorithm::kIM
             : algo == "IMFT" ? core::SyncAlgorithm::kIMFT
             : algo == "NONE" ? core::SyncAlgorithm::kNone
                              : core::SyncAlgorithm::kMM;
  const auto peers = flags.get_ports("peers");
  cfg.recovery_ports = flags.get_ports("recovery");
  if (peers.empty()) cfg.poll_period = 0;  // respond-only

  // Engine extensions, now available over UDP through the shared engine.
  if (flags.has("adaptive")) {
    cfg.adaptive.enabled = true;
    cfg.adaptive.error_target = flags.get_double("adaptive", 0.05);
    cfg.adaptive.min_period = cfg.poll_period / 8;
    cfg.adaptive.max_period = cfg.poll_period * 8;
  }
  cfg.use_sample_filter = flags.get_bool("filter", false);
  cfg.use_broadcast = flags.get_bool("broadcast", false);
  cfg.monitor_rates = flags.get_bool("monitor-rates", false);

  // Peer-health layer and chaos plane.
  cfg.health.enabled = flags.get_bool("health", false);
  cfg.health.quarantine_after =
      static_cast<std::uint32_t>(flags.get_int("quarantine", 0));
  if (cfg.health.quarantine_after > 0) cfg.health.enabled = true;
  cfg.chaos.drop = flags.get_double("chaos-drop", 0.0);
  cfg.chaos.duplicate = flags.get_double("chaos-dup", 0.0);
  cfg.chaos.delay = flags.get_double("chaos-delay", 0.0);
  cfg.chaos.delay_hi = flags.get_double("chaos-delay-max", 0.1);
  cfg.chaos.corrupt = flags.get_double("chaos-corrupt", 0.0);
  cfg.chaos.seed =
      static_cast<std::uint64_t>(flags.get_int("chaos-seed", 0x5EED));

  // Serving plane: lock-free client-query shards fed by engine snapshots.
  cfg.client_threads =
      static_cast<std::uint32_t>(flags.get_int("client-threads", 0));
  cfg.client_port =
      static_cast<std::uint16_t>(flags.get_int("client-port", 0));
  cfg.client_batch =
      static_cast<std::size_t>(flags.get_int("client-batch", 64));

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    net::UdpTimeServer server(cfg);
    server.set_peers(peers);
    server.start();
    std::printf("timeserverd: id=%u port=%u algo=%s peers=%zu\n", cfg.id,
                server.port(), algo.c_str(), peers.size());
    if (cfg.client_threads > 0) {
      std::printf("  serving plane: port=%u threads=%u\n",
                  server.client_port(), cfg.client_threads);
    }

    const double run_seconds = flags.get_double("seconds", 0.0);
    const double status_every = flags.get_double("status-every", 1.0);
    const double t_start = net::host_seconds();
    double next_status = t_start + status_every;
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const double now = net::host_seconds();
      if (run_seconds > 0 && now - t_start >= run_seconds) break;
      if (now >= next_status) {
        next_status += status_every;
        std::printf("  t=%6.1f C=%12.6f E=%9.6f offset=%+9.6f tau=%6.3f "
                    "served=%llu resets=%llu%s\n",
                    now - t_start, server.read_clock().seconds(),
                    server.current_error().seconds(),
                    server.true_offset().seconds(),
                    server.poll_period().seconds(),
                    static_cast<unsigned long long>(server.requests_served()),
                    static_cast<unsigned long long>(server.resets()),
                    server.degraded() ? " DEGRADED" : "");
      }
    }
    server.stop();
    std::printf("timeserverd: stopped (served %llu requests, %llu resets)\n",
                static_cast<unsigned long long>(server.requests_served()),
                static_cast<unsigned long long>(server.resets()));
    if (cfg.client_threads > 0) {
      std::printf(
          "  serving plane: %llu client queries answered\n",
          static_cast<unsigned long long>(server.client_queries_served()));
    }
    if (cfg.chaos.active()) {
      const auto fs = server.fault_stats();
      std::printf("  chaos ledger: out=%llu in=%llu fwd=%llu loss=%llu "
                  "dup=%llu delay=%llu corrupt=%llu\n",
                  static_cast<unsigned long long>(fs.outbound),
                  static_cast<unsigned long long>(fs.inbound),
                  static_cast<unsigned long long>(fs.forwarded),
                  static_cast<unsigned long long>(fs.dropped_loss),
                  static_cast<unsigned long long>(fs.duplicated),
                  static_cast<unsigned long long>(fs.delayed),
                  static_cast<unsigned long long>(fs.corrupted));
    }
    if (cfg.health.enabled) {
      const auto c = server.counters();
      std::printf("  peer health: deaths=%llu heals=%llu probes=%llu "
                  "suppressed=%llu quarantines=%llu degraded=%llu\n",
                  static_cast<unsigned long long>(c.peer_deaths),
                  static_cast<unsigned long long>(c.peer_recoveries),
                  static_cast<unsigned long long>(c.probes_sent),
                  static_cast<unsigned long long>(c.polls_suppressed),
                  static_cast<unsigned long long>(c.quarantines),
                  static_cast<unsigned long long>(c.degraded_entries));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "timeserverd: %s\n", e.what());
    return 1;
  }
}
