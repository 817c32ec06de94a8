// serve-udp: three in-process UdpTimeServers (IM, tau = 50 ms) synchronize
// over loopback while server 0's one-shard mmsg serving plane answers a
// closed-loop client.
//
// Two generator threads in this process each own one socket (one flow) and
// keep a fixed number of requests in flight: a new request goes out only
// when a reply has come back, so a slower server receives less load and no
// queue grows.  One shard, because two SO_REUSEPORT shards hash two flows
// onto the same shard in about half of all runs, which makes throughput
// bimodal.  Every reply is checked: it decodes, echoes an outstanding tag
// and send stamp of its own flow, names server 0, and its interval
// [C-E, C+E] lies within the reply's round trip of the receive time on the
// host axis, which is the daemons' true time.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "host_reference.h"
#include "layers.h"
#include "net/protocol.h"
#include "net/udp_server.h"
#include "net/udp_socket.h"
#include "runtime/udp_runtime.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mtds;

constexpr std::size_t kGenerators = 2;
constexpr std::size_t kDepth = 64;  // requests in flight per generator
constexpr std::size_t kBatch = 32;  // datagrams per send/recv syscall
constexpr std::size_t kRing = 4096; // outstanding-request slots (> kDepth)
constexpr int kSetups = 5;
constexpr double kWarmupS = 0.5;
// The measured phase is cut into slices of load.  Between slices the
// generators drain their requests and NetReference passes measure the host
// speed; traced runs alternate untraced and traced slices.
constexpr double kSliceS = 1.0;
constexpr int kReferencePasses = 5;  // per pause; their median is kept
// Traced slices record the syscall spans of one generator loop in this
// many, which keeps a 30 s run's span file to a few MB.
constexpr std::int64_t kSpanEvery = 64;

enum Phase : int { kWarmup = 0, kMeasure = 1, kPause = 2, kStop = 3 };

// Each daemon stops itself when destroyed.
using Fleet = std::vector<std::unique_ptr<net::UdpTimeServer>>;

Fleet start_fleet(std::uint64_t seed) {
  InputRng rng(seed);
  const double common_drift = rng.uniform(-1e-5, 1e-5);  // |drift| <= 2e-5
  Fleet fleet;
  for (std::uint32_t i = 0; i < 3; ++i) {
    net::UdpServerConfig cfg;
    cfg.id = i;
    cfg.algo = core::SyncAlgorithm::kIM;
    cfg.poll_period = 0.05;
    cfg.claimed_delta = 1e-4;
    // Only a common drift comes from the seed: daemon i always runs
    // (i - 1) * 1e-5 from it, so the clock spread measures the code, not how
    // far apart, or onto which daemon, a seed happened to draw the drifts.
    // Start offsets are zero for the same reason: IM keeps the intersection
    // its first round finds, so seeded offsets would set E's level.
    cfg.simulated_drift = common_drift + (static_cast<double>(i) - 1.0) * 1e-5;
    cfg.initial_error = 1e-3;
    if (i == 0) {
      cfg.client_threads = 1;
      cfg.client_batch = 64;
    }
    fleet.push_back(std::make_unique<net::UdpTimeServer>(cfg));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<std::uint16_t> peers;
    for (std::size_t j = 0; j < 3; ++j) {
      if (j != i) peers.push_back(fleet[j]->port());
    }
    fleet[i]->set_peers(peers);
  }
  for (auto& s : fleet) s->start();
  return fleet;
}

// Blocks until server 0 has completed a sync round and then answered one
// client query validly.  Returns false on a 5 s timeout.
bool wait_ready(Fleet& fleet) {
  auto& s0 = *fleet[0];
  const double deadline = runtime::host_seconds() + 5.0;
  while (true) {
    const auto c = s0.counters();
    if (c.resets >= 1 || c.rounds >= 2) break;
    if (runtime::host_seconds() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  net::UdpSocket sock;
  std::uint8_t buf[512];
  for (std::uint64_t tag = 1; runtime::host_seconds() < deadline; ++tag) {
    net::ClientTimeRequest req;
    req.tag = tag;
    const auto bytes = net::encode(req);
    sock.send_to(s0.client_port(), {bytes.data(), bytes.size()});
    const auto n = sock.receive_into(buf, nullptr, 50);
    if (!n) continue;
    const auto reply = net::decode_client_reply(buf, *n);
    if (reply && reply->tag == tag && reply->server_id == 0) return true;
  }
  return false;
}

struct GenStats {
  std::uint64_t valid = 0;           // measured phase, untraced slices
  std::uint64_t valid_traced = 0;    // measured phase, traced slices
  std::uint64_t recv_calls = 0;      // measured phase
  std::uint64_t recv_replies = 0;    // measured phase
  std::uint64_t attempted = 0;       // whole run
  std::uint64_t invalid = 0;         // whole run
  std::uint64_t unanswered = 0;      // whole run
  std::int64_t cpu_ns = 0;           // thread CPU in the measured phase
  LatencyHistogram rtt;              // untraced slices
  LatencyHistogram rtt_traced;       // traced slices
  LatencyHistogram slice_rtt;        // current slice; the main thread
                                     // empties it while the flow is drained
  LatencyHistogram error;            // E carried in replies
  SpanRecorder spans;
  std::string first_error;
  // The reply whose interval missed true time by the most: the distance
  // from [C-E, C+E] to [send, receive], with that reply's E and round trip.
  double worst_miss_s = 0;
  double worst_miss_e_s = 0;
  double worst_miss_rtt_s = 0;
};

struct Shared {
  std::atomic<int> phase{kWarmup};
  std::atomic<bool> tracing{false};
  // Generators that have drained every request since the pause began.  A
  // generator's counters are final for the slice once it has counted in.
  std::atomic<std::size_t> drained{0};
  std::uint16_t port = 0;
};

void generator(std::size_t idx, Shared& shared, GenStats& st) {
  net::UdpSocket sock;
  const sockaddr_in server = net::UdpSocket::loopback(shared.port);
  net::SendBatch send(kBatch, 128);
  net::RecvBatch recv(kBatch, 128);
  std::vector<std::uint64_t> slot_tag(kRing, 0);
  std::vector<std::int64_t> slot_sent(kRing, 0);
  const std::uint64_t tag_base = static_cast<std::uint64_t>(idx + 1) << 48;
  std::uint64_t seq = 0;
  std::size_t in_flight = 0;
  double last_progress = runtime::host_seconds();
  double stop_at = 0;
  std::int64_t cpu0 = 0;
  bool measuring = false;
  bool counted_in = false;  // drained for the current pause
  std::int64_t batch_id = 0;

  auto bad = [&](const char* why) {
    ++st.invalid;
    if (st.first_error.empty()) st.first_error = why;
  };

  while (true) {
    const int phase = shared.phase.load(std::memory_order_acquire);
    if (phase == kMeasure) counted_in = false;
    if (phase == kPause && in_flight == 0 && !counted_in) {
      counted_in = true;
      shared.drained.fetch_add(1, std::memory_order_release);
    }
    if (phase == kMeasure && !measuring) {
      measuring = true;
      cpu0 = thread_cpu_ns();
    }
    if (phase == kStop) {
      if (measuring) {
        st.cpu_ns = thread_cpu_ns() - cpu0;
        measuring = false;
      }
      if (stop_at == 0) stop_at = runtime::host_seconds() + 0.5;
      if (in_flight == 0 || runtime::host_seconds() > stop_at) break;
    }
    const bool traced =
        measuring && shared.tracing.load(std::memory_order_relaxed);
    const bool span_this = traced && batch_id % kSpanEvery == 0;

    // Top the window up (not while pausing or stopping).
    while (phase <= kMeasure && in_flight < kDepth) {
      send.clear();
      const double now = runtime::host_seconds();
      const std::int64_t now_ns = net::seconds_to_ns(now);
      while (send.size() < kBatch && in_flight + send.size() < kDepth) {
        net::ClientTimeRequest req;
        req.tag = tag_base | (seq & 0xFFFF'FFFF'FFFFull);
        req.client_send_ns = now_ns;
        std::uint8_t* slot = send.append(server, net::kClientRequestSize);
        if (slot == nullptr) break;
        const auto bytes = net::encode(req);
        std::memcpy(slot, bytes.data(), bytes.size());
        slot_tag[seq % kRing] = req.tag;
        slot_sent[seq % kRing] = now_ns;
        ++seq;
      }
      const std::int32_t span =
          span_this ? st.spans.open("net.send_batch", -1, batch_id) : -1;
      const std::size_t sent = sock.send_batch(send);
      if (span_this) st.spans.close(span);
      st.attempted += send.size();
      in_flight += send.size();
      // Datagrams the kernel refused will never be answered; the idle
      // check below accounts them as unanswered.
      if (sent < send.size()) break;
    }

    const std::int32_t span =
        span_this ? st.spans.open("net.recv_batch", -1, batch_id) : -1;
    const std::size_t got = sock.receive_batch(recv, 5);
    if (span_this) st.spans.close(span);
    ++batch_id;
    const double recv_s = runtime::host_seconds();
    if (measuring) {
      ++st.recv_calls;
      st.recv_replies += got;
    }
    for (std::size_t i = 0; i < got; ++i) {
      const auto view = recv.payload(i);
      const auto reply = net::decode_client_reply(view.data(), view.size());
      if (!reply) {
        bad("reply failed to decode");
        continue;
      }
      const std::uint64_t s = reply->tag & 0xFFFF'FFFF'FFFFull;
      const std::size_t slot = static_cast<std::size_t>(s % kRing);
      if ((reply->tag & ~0xFFFF'FFFF'FFFFull) != tag_base ||
          slot_tag[slot] != reply->tag) {
        bad("reply echoed no outstanding tag of this flow");
        continue;
      }
      slot_tag[slot] = 0;
      if (in_flight > 0) --in_flight;
      if (reply->client_send_ns != slot_sent[slot]) {
        bad("reply echoed a wrong send stamp");
        continue;
      }
      if (reply->server_id != 0) {
        bad("reply names another server");
        continue;
      }
      const double rtt = recv_s - net::ns_to_seconds(slot_sent[slot]);
      const double c = net::ns_to_seconds(reply->clock_ns);
      const double e = net::ns_to_seconds(reply->error_ns);
      if (!(e >= 0 && c - e <= recv_s + rtt && c + e >= recv_s - rtt)) {
        bad("reply interval does not contain true time");
        // How far the interval missed [send, receive], for the report.
        const double miss = std::max(c - e - recv_s, recv_s - rtt - c - e);
        if (miss > st.worst_miss_s) {
          st.worst_miss_s = miss;
          st.worst_miss_e_s = e;
          st.worst_miss_rtt_s = rtt;
        }
        continue;
      }
      if (!measuring) continue;
      const auto rtt_ns = static_cast<std::int64_t>(rtt * 1e9);
      st.slice_rtt.record_ns(rtt_ns);
      if (traced) {
        st.rtt_traced.record_ns(rtt_ns);
        ++st.valid_traced;
      } else {
        st.rtt.record_ns(rtt_ns);
        ++st.valid;
      }
      st.error.record_ns(reply->error_ns);
    }
    if (got > 0) {
      last_progress = recv_s;
    } else if (in_flight > 0 && recv_s - last_progress > 0.2) {
      // Nothing came back for 200 ms: the outstanding requests are lost.
      st.unanswered += in_flight;
      if (st.first_error.empty()) st.first_error = "requests left unanswered";
      std::fill(slot_tag.begin(), slot_tag.end(), 0);
      in_flight = 0;
      last_progress = recv_s;
    }
  }
  st.unanswered += in_flight;
  if (in_flight > 0 && st.first_error.empty()) {
    st.first_error = "requests left unanswered";
  }
}

}  // namespace

Result run_serve_udp(const RunArgs& args) {
  Result res;

  // ---- set-up: median of several daemon-fleet start-ups -------------------
  // The first start-up brings up the fleet the run measures; the others
  // follow the measured phase, so they do not reach peak_rss_mb.
  std::vector<double> setup_s;
  const auto timed_setup = [&](Fleet& fleet) {
    const std::int64_t t0 = wall_ns();
    fleet = start_fleet(args.seed);
    if (!wait_ready(fleet)) return false;
    setup_s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
    return true;
  };
  Fleet fleet;
  if (!timed_setup(fleet)) {
    res.fail("serving plane never answered after a sync round");
    res.metrics.clear();  // no result: the workload could not run
    return res;
  }

  // Built before any generator runs: its constructor throws if it cannot
  // get its sockets.
  NetReference ref;

  // ---- load ---------------------------------------------------------------
  Shared shared;
  shared.port = fleet[0]->client_port();
  std::vector<std::unique_ptr<GenStats>> stats;
  for (std::size_t g = 0; g < kGenerators; ++g) {
    stats.push_back(std::make_unique<GenStats>());
    if (args.trace) stats.back()->spans = SpanRecorder(1 << 18);
  }
  std::vector<std::thread> gens;
  for (std::size_t g = 0; g < kGenerators; ++g) {
    gens.emplace_back(generator, g, std::ref(shared), std::ref(*stats[g]));
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));

  // ---- measured phase -----------------------------------------------------
  auto& s0 = *fleet[0];
  std::vector<double> spreads_us;
  spreads_us.reserve(static_cast<std::size_t>(args.seconds * 200) + 16);
  // Sized up front, so the pauses' bookkeeping barely touches
  // proc.allocs_per_op.
  const std::size_t max_slices =
      static_cast<std::size_t>(args.seconds / kSliceS) + 2;
  std::vector<double> ref_ns;  // per pause: median of kReferencePasses
  ref_ns.reserve(max_slices + 1);
  std::vector<double> passes(kReferencePasses);
  const auto reference_pass = [&] {
    for (auto& p : passes) p = static_cast<double>(ref.pass_ns());
    if (*std::min_element(passes.begin(), passes.end()) < 0) {
      res.fail("host reference: datagrams lost on loopback");
      return false;
    }
    ref_ns.push_back(median(passes));
    return true;
  };
  struct Slice {
    double wall_s = 0;
    double replies = 0;
    double rtt_p50_us = 0;
    bool traced = false;
  };
  std::vector<Slice> slices;
  slices.reserve(max_slices);
  LatencyHistogram slice_rtt;
  const auto replies_so_far = [&] {
    double n = 0;
    for (const auto& st : stats) {
      n += static_cast<double>(st->valid + st->valid_traced);
    }
    return n;
  };

  const auto c0 = s0.counters();
  PhaseProbe probe;
  const std::int64_t main_cpu0 = thread_cpu_ns();
  probe.begin();
  // Drain the warm-up load, then measure the host once before the first
  // slice.
  shared.phase.store(kPause, std::memory_order_release);
  // A generator drains within 200 ms even when requests are lost (it then
  // writes them off as unanswered), so a longer wait means it is stuck.
  const auto wait_drained = [&] {
    const double deadline = runtime::host_seconds() + 2.0;
    while (shared.drained.load(std::memory_order_acquire) < kGenerators) {
      if (runtime::host_seconds() > deadline) {
        res.fail("a generator did not drain within 2 s");
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
  };
  bool ok = wait_drained();
  double replies_before = replies_so_far();
  ok = ok && reference_pass();
  const double start = runtime::host_seconds();
  while (ok && runtime::host_seconds() - start < args.seconds) {
    Slice slice;
    slice.traced = args.trace && slices.size() % 2 == 1;
    shared.tracing.store(slice.traced, std::memory_order_relaxed);
    shared.drained.store(0, std::memory_order_relaxed);
    const double t0 = runtime::host_seconds();
    shared.phase.store(kMeasure, std::memory_order_release);
    while (runtime::host_seconds() - t0 < kSliceS) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      double lo = 0, hi = 0;
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        const double off = fleet[i]->true_offset().seconds();
        lo = i == 0 || off < lo ? off : lo;
        hi = i == 0 || off > hi ? off : hi;
      }
      spreads_us.push_back((hi - lo) * 1e6);
    }
    shared.phase.store(kPause, std::memory_order_release);
    if (!wait_drained()) break;
    slice.wall_s = runtime::host_seconds() - t0;
    const double replies_now = replies_so_far();
    slice.replies = replies_now - replies_before;
    replies_before = replies_now;
    slice_rtt.clear();
    for (auto& st : stats) {
      slice_rtt.merge(st->slice_rtt);
      st->slice_rtt.clear();
    }
    slice.rtt_p50_us = slice_rtt.quantile_us(0.5);
    ok = reference_pass();
    slices.push_back(slice);
  }
  shared.phase.store(kStop, std::memory_order_relaxed);
  probe.end();
  const std::int64_t main_cpu = thread_cpu_ns() - main_cpu0;
  const auto c1 = s0.counters();
  for (auto& t : gens) t.join();

  // ---- results --------------------------------------------------------------
  LatencyHistogram rtt, rtt_traced, error;
  std::uint64_t valid = 0, valid_traced = 0, recv_calls = 0, recv_replies = 0;
  std::int64_t gen_cpu = 0;
  for (const auto& st : stats) {
    rtt.merge(st->rtt);
    rtt_traced.merge(st->rtt_traced);
    error.merge(st->error);
    valid += st->valid;
    valid_traced += st->valid_traced;
    recv_calls += st->recv_calls;
    recv_replies += st->recv_replies;
    gen_cpu += st->cpu_ns;
    res.attempted += st->attempted;
    res.failed += st->invalid + st->unanswered;
    if (!st->first_error.empty()) res.fail(st->first_error);
    if (st->worst_miss_s > 0) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "worst interval miss %.1f us (E %.1f us, rtt %.1f us)",
                    st->worst_miss_s * 1e6, st->worst_miss_e_s * 1e6,
                    st->worst_miss_rtt_s * 1e6);
      res.fail(buf);
    }
  }
  // Timings at the reference host speed: the median over untraced slices of
  // replies per second and of the median round trip, scaled by the run's
  // median pass.  One pause's passes are noisier than the host's drift from
  // one 1 s slice to the next, so pairing each slice with its own passes
  // (as the fleets pair rounds) added spread here instead of removing it.
  std::vector<double> slice_rate, slice_rtt_us;
  for (const Slice& sl : slices) {
    if (sl.traced || sl.wall_s <= 0) continue;
    slice_rate.push_back(sl.replies / sl.wall_s);
    slice_rtt_us.push_back(sl.rtt_p50_us);
  }
  const double scale = host_scale(median(ref_ns), NetReference::kNominalPassNs);
  const double wall = probe.wall_s();
  res.add("throughput_per_s", scale > 0 ? median(slice_rate) / scale : 0,
          "1/s");
  res.add("latency_p50_us", median(slice_rtt_us) * scale, "us");
  res.note("raw_throughput_per_s", median(slice_rate));
  res.note("raw_latency_p50_us", median(slice_rtt_us));
  std::vector<double> ref_ms_q;
  for (double q : {0.1, 0.5, 0.9}) ref_ms_q.push_back(quantile(ref_ns, q) * 1e-6);
  res.note("reference_pass_ms_q10_q50_q90", join(ref_ms_q));
  res.note("slices", static_cast<double>(slices.size()));
  res.add("error_p50_us", error.quantile_us(0.5), "us");
  res.add("asynchrony_p50_us", median(spreads_us), "us");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");

  const double replies = static_cast<double>(valid + valid_traced);
  const double rounds = static_cast<double>(c1.rounds - c0.rounds);
  res.add("net.server_cpu_us_per_reply",
          replies > 0 ? static_cast<double>(probe.cpu_s() * 1e9 - gen_cpu -
                                            main_cpu) *
                            1e-3 / replies
                      : 0,
          "us");
  res.add("net.replies_per_recv_call",
          recv_calls > 0 ? static_cast<double>(recv_replies) /
                               static_cast<double>(recv_calls)
                         : 0,
          "count");
  std::vector<const SpanRecorder*> recs;
  for (const auto& st : stats) recs.push_back(&st->spans);
  res.add("net.send_batch_us", summarize(recs, "net.send_batch").median_us,
          "us");
  res.add("net.recv_batch_us", summarize(recs, "net.recv_batch").median_us,
          "us");
  res.add("net.rtt_p99_us", rtt.quantile_us(0.99), "us");
  res.add("net.rtt_p999_us", rtt.quantile_us(0.999), "us");
  res.add("service.sync_rounds_per_s", wall > 0 ? rounds / wall : 0, "1/s");
  res.add("service.replies_per_round",
          rounds > 0 ? static_cast<double>(c1.replies_received -
                                           c0.replies_received) /
                           rounds
                     : 0,
          "count");
  res.add("service.resets_per_round",
          rounds > 0 ? static_cast<double>(c1.resets - c0.resets) / rounds : 0,
          "count");
  res.add("service.gossip_per_round",
          rounds > 0 ? static_cast<double>(c1.gossip_sent - c0.gossip_sent) /
                           rounds
                     : 0,
          "count");
  res.add("service.convictions",
          static_cast<double>(c1.gossip_convictions - c0.gossip_convictions),
          "count");
  res.add("service.quarantines",
          static_cast<double>(c1.quarantines - c0.quarantines), "count");
  res.add("proc.cpu_per_wall", probe.cpu_per_wall(), "ratio");
  res.add("proc.allocs_per_op",
          replies > 0 ? static_cast<double>(probe.allocs()) / replies : 0,
          "count");
  res.add("host.steal_share", probe.steal_share(), "ratio");
  res.add("host.speed_scale", scale, "ratio");
  const double traced_p50 = rtt_traced.quantile_us(0.5);
  const double untraced_p50 = rtt.quantile_us(0.5);
  res.add("trace.overhead_share",
          args.trace && untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0,
          "ratio");
  // Simulator-only quantities.
  for (const char* name :
       {"sim.msgs_per_round", "sharded_engine.windows_per_round",
        "runtime.fault_drops_per_round", "runtime.forged_per_round"}) {
    res.add(name, 0, "count");
  }
  res.add("sharded_engine.us_per_window", 0, "us");
  res.add("sharded_engine.flush_ms_per_round", 0, "ms");
  res.add("sharded_engine.flush_share", 0, "ratio");
  res.add("sharded_engine.window_ms_per_round", 0, "ms");
  res.add("service.ns_per_reply", 0, "ns");

  if (args.trace) {
    LayerInputs in;
    in.seed = args.seed;
    in.publish_hz = wall > 0 ? rounds / wall : 1;
    in.local.clock = s0.read_clock();
    in.local.error = s0.current_error();
    in.local.delta = 1e-4;
    for (std::size_t j = 1; j < fleet.size(); ++j) {
      core::TimeReading rd;
      rd.from = static_cast<core::ServerId>(j);
      rd.c = fleet[j]->read_clock();
      rd.e = fleet[j]->current_error();
      // The client round trip stands in for the daemons' sync round trip.
      rd.rtt_own = core::Duration{untraced_p50 * 1e-6};
      rd.local_receive = in.local.clock;
      in.readings.push_back(rd);
    }
    in.snapshot.base = in.local.clock;
    in.snapshot.error = in.local.error;
    in.snapshot.published_at = core::RealTime{runtime::host_seconds()};
    in.snapshot.delta = 1e-4;
    SpanRecorder replay_spans(1 << 16);
    add_layer_replays(in, replay_spans, res);
    recs.push_back(&replay_spans);
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    res.note("spans_file", write_spans(path, recs) ? path : "write failed");
  }
  res.note("replies_measured", replies);
  res.note("rtt_samples", static_cast<double>(rtt.count()));
  res.note("host.cpu_per_wall", probe.cpu_per_wall());
  res.note("host.steal_share", probe.steal_share());

  fleet.clear();
  for (int i = 1; i < kSetups; ++i) {
    Fleet again;
    if (!timed_setup(again)) {
      res.fail("serving plane never answered after a sync round");
      break;
    }
  }
  res.add("setup_s", median(setup_s), "s");
  res.note("setup_samples_s", join(setup_s));
  return res;
}

}  // namespace perfbench
