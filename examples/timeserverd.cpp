// timeserverd: a standalone UDP time server daemon.
//
// Serves rule MM-1 replies on a UDP port and optionally synchronizes to
// peer servers with MM or IM - the shape of a real deployment of the
// paper's service.  The server is described by one --spec string, read by
// the scenario DSL's server parser (service/scenario.h lists its keys), so
// a daemon and a simulated server are written the same way.  The local
// clock is virtualized over CLOCK_MONOTONIC so drift and offset can be
// injected for experiments.
//
//   $ ./timeserverd --port=9001 --id=1 --spec="delta=1e-4 error=0.005"
//   $ ./timeserverd --port=9002 --id=2 --peers=9001 --seconds=10
//                   --spec="algo=MM tau=0.5 offset=0.05"   (one line)
//
// Runs for --seconds (0 = until SIGINT/SIGTERM), printing a status line per
// --status-every seconds.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/udp_server.h"
#include "service/scenario.h"
#include "util/flags.h"

using namespace mtds;

namespace {

std::atomic<bool> g_stop{false};

// Serving-plane limits: one thread per shard, and recvmmsg/sendmmsg take at
// most UIO_MAXIOV (1024) datagrams per call.
constexpr long kMaxClientThreads = 256;
constexpr long kMaxClientBatch = 1024;

void handle_signal(int) { g_stop.store(true); }

// An integer flag in [lo, hi]; throws std::invalid_argument naming the
// flag otherwise.
long int_flag(const util::Flags& flags, const char* name, long def, long lo,
              long hi) {
  const long v = flags.get_int(name, def);
  if (v < lo || v > hi) {
    throw std::invalid_argument("--" + std::string(name) + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.parse(argc, argv);
  if (flags.has("help")) {
    std::printf(
        "usage: timeserverd [options]\n"
        "  --spec=\"K=V ...\"  the server as a scenario-DSL server spec (keys:\n"
        "                    src/service/scenario.h), e.g. \"algo=IM tau=0.5\n"
        "                    filter=1 health=1\"; defaults: algo=MM delta=1e-4\n"
        "                    error=1e-3 tau=0.5 chaos-delay-max=0.1\n"
        "  --port=N          UDP port (default: ephemeral)\n"
        "  --id=N            server id reported in replies (default 0)\n"
        "  --peers=P1,P2     peer ports to synchronize against\n"
        "  --recovery=P1,P2  third-server recovery ports (Section 3)\n"
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

  // The daemon's defaults, under whatever --spec sets.
  service::ServerSpec defaults;
  defaults.claimed_delta = 1e-4;
  defaults.initial_error = 1e-3;
  defaults.poll_period = 0.5;
  defaults.chaos.delay_hi = 0.1;
  net::UdpServerConfig cfg;
  try {
    static_cast<service::ServerSpec&>(cfg) =
        service::parse_server_spec(flags.get("spec"), defaults);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "timeserverd: --spec: %s\n", e.what());
    return 2;
  }
  if (cfg.recovery != defaults.recovery || !cfg.recovery_pool.empty()) {
    std::fprintf(stderr, "timeserverd: --spec: use --recovery=PORTS, not "
                         "recovery=/pool=\n");
    return 2;
  }
  // Every numeric flag is read and range-checked here, before any thread
  // starts, so a typo exits 2 instead of running with a garbage value.
  double run_seconds = 0.0;
  double status_every = 1.0;
  try {
    cfg.port = static_cast<std::uint16_t>(int_flag(flags, "port", 0, 0, 65535));
    cfg.client_port =
        static_cast<std::uint16_t>(int_flag(flags, "client-port", 0, 0, 65535));
    cfg.id = static_cast<std::uint32_t>(
        int_flag(flags, "id", 0, 0, std::numeric_limits<std::uint32_t>::max()));
    // Serving plane: lock-free client-query shards fed by engine snapshots.
    cfg.client_threads = static_cast<std::uint32_t>(
        int_flag(flags, "client-threads", 0, 0, kMaxClientThreads));
    cfg.client_batch = static_cast<std::size_t>(
        int_flag(flags, "client-batch", 64, 1, kMaxClientBatch));
    run_seconds = flags.get_double("seconds", 0.0);
    status_every = flags.get_double("status-every", 1.0);
    if (!(run_seconds >= 0.0) || !(status_every > 0.0)) {
      throw std::invalid_argument(
          "--seconds must be >= 0 and --status-every > 0");
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "timeserverd: %s\n", e.what());
    return 2;
  }
  cfg.reply_timeout = std::min<core::Duration>(0.2, cfg.poll_period / 2.0);
  const auto peers = flags.get_ports("peers");
  cfg.recovery_ports = flags.get_ports("recovery");
  if (peers.empty()) cfg.poll_period = 0;  // respond-only

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    net::UdpTimeServer server(cfg);
    server.set_peers(peers);
    server.start();
    std::printf("timeserverd: id=%u port=%u algo=%s peers=%zu\n", cfg.id,
                server.port(), std::string(core::to_string(cfg.algo)).c_str(),
                peers.size());
    if (cfg.client_threads > 0) {
      std::printf("  serving plane: port=%u threads=%u\n",
                  server.client_port(), cfg.client_threads);
    }

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
