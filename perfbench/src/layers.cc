#include "layers.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "net/protocol.h"
#include "net/serving_plane.h"
#include "net/udp_socket.h"
#include "util/seqlock.h"

namespace perfbench {

namespace {

using namespace mtds;

// Each replay runs batches for this much wall time and reports the median
// batch; the budget keeps a traced run's replays well under a second.
constexpr std::int64_t kReplayBudgetNs = 40'000'000;

// Times `fn` (which performs `ops` operations) in batches until the budget
// is spent; returns the median nanoseconds per operation.  A batch repeats
// `fn` often enough to last about 20 us, so clock reads do not dominate
// operations that take nanoseconds.
template <typename Fn>
double replay_ns_per_op(const char* span_name, std::size_t ops,
                        SpanRecorder& spans, Fn&& fn) {
  fn();  // warm caches and any lazily sized scratch
  std::size_t reps = 1;
  for (;;) {
    const std::int64_t t0 = wall_ns();
    for (std::size_t i = 0; i < reps; ++i) fn();
    if (wall_ns() - t0 >= 20'000 || reps >= (1u << 20)) break;
    reps *= 2;
  }
  std::vector<double> per_op;
  per_op.reserve(4096);
  const std::int64_t deadline = wall_ns() + kReplayBudgetNs;
  std::int64_t batch = 0;
  while (wall_ns() < deadline || per_op.size() < 5) {
    const std::int32_t span = spans.open(span_name, -1, batch++);
    const std::int64_t t0 = wall_ns();
    for (std::size_t i = 0; i < reps; ++i) fn();
    const std::int64_t t1 = wall_ns();
    spans.close(span, t1);
    per_op.push_back(static_cast<double>(t1 - t0) /
                     static_cast<double>(ops * reps));
  }
  return median(per_op);
}

double sync_round_us(core::SyncAlgorithm algo, const LayerInputs& in,
                     SpanRecorder& spans) {
  const auto fn = core::make_sync_function(algo);
  const std::span<const core::TimeReading> readings(in.readings);
  // kPerReply functions (MM) see a round as one on_reply per reading.
  const bool per_reply = fn->mode() == core::SyncMode::kPerReply;
  std::size_t sink = 0;
  const double ns = replay_ns_per_op("core.sync_round", 1, spans, [&] {
    if (per_reply) {
      for (const auto& r : readings) {
        sink += fn->on_reply(in.local, r).reset.has_value();
      }
    } else {
      sink += fn->on_round(in.local, readings).reset.has_value();
    }
  });
  if (sink == ~std::size_t{0}) std::abort();  // keeps the calls observable
  return ns * 1e-3;
}

// Fails `out` (and returns 0) if the replay cannot run or serves short.
double serve_batch_ns(const LayerInputs& in, SpanRecorder& spans,
                      Result& out) {
  // Real datagrams through a loopback socket pair, so the RecvBatch the
  // serving function reads is exactly what a shard would hold.
  constexpr std::size_t kBatch = 64;
  net::UdpSocket client;
  net::UdpSocket server;
  net::SendBatch requests(kBatch, 512);
  InputRng rng(in.seed ^ 0x5E4Eull);
  const sockaddr_in to = net::UdpSocket::loopback(server.port());
  for (std::size_t i = 0; i < kBatch; ++i) {
    net::ClientTimeRequest req;
    req.tag = rng.next();
    req.client_send_ns = static_cast<std::int64_t>(rng.below(1ull << 40));
    const auto bytes = net::encode(req);
    requests.push(to, {bytes.data(), bytes.size()});
  }
  client.send_batch(requests);
  net::RecvBatch batch(kBatch, 512);
  std::size_t got = 0;
  for (int tries = 0; tries < 100 && got == 0; ++tries) {
    got = server.receive_batch(batch, 10);
  }
  if (got == 0) {
    out.fail("serve_client_batch replay: no request came back over loopback");
    return 0;
  }
  net::SendBatch replies(kBatch, 512);
  const core::RealTime now = in.snapshot.published_at;
  std::size_t served = 0;
  const double ns = replay_ns_per_op(
      "net.serve_client_batch", got, spans, [&] {
        replies.clear();
        served = net::serve_client_batch(batch, in.snapshot, now, replies);
      });
  if (served != got) {
    out.fail("serve_client_batch replay served " + std::to_string(served) +
             " of " + std::to_string(got) + " requests");
    return 0;
  }
  return ns;
}

double seqlock_read_ns(const LayerInputs& in, SpanRecorder& spans) {
  util::Seqlock<service::ClockSnapshot> cell;
  cell.publish(in.snapshot);
  std::atomic<bool> stop{false};
  const auto period = std::chrono::nanoseconds(static_cast<std::int64_t>(
      1e9 / (in.publish_hz > 1e-3 ? in.publish_hz : 1e-3)));
  // The sync plane's single writer, publishing at the workload's measured
  // round rate.
  std::thread publisher([&] {
    service::ClockSnapshot snap = in.snapshot;
    auto next = std::chrono::steady_clock::now();
    while (!stop.load(std::memory_order_relaxed)) {
      if (std::chrono::steady_clock::now() >= next) {
        snap.base = snap.base + core::Duration{1e-6};
        cell.publish(snap);
        next += period;
      }
      // Short naps keep the join below prompt at slow publication rates.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  constexpr std::size_t kReads = 1000;
  service::ClockSnapshot out;
  std::uint64_t sink = 0;
  const double ns = replay_ns_per_op("util.seqlock_read", kReads, spans, [&] {
    for (std::size_t i = 0; i < kReads; ++i) {
      cell.read(out);
      sink += out.server_id;
    }
  });
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  if (sink == ~std::uint64_t{0}) std::abort();
  return ns;
}

}  // namespace

void add_layer_replays(const LayerInputs& in, SpanRecorder& spans,
                       Result& out) {
  const struct {
    core::SyncAlgorithm algo;
    const char* metric;
  } algos[] = {
      {core::SyncAlgorithm::kMM, "core.sync_round_us.MM"},
      {core::SyncAlgorithm::kIM, "core.sync_round_us.IM"},
      {core::SyncAlgorithm::kIMFT, "core.sync_round_us.IMFT"},
      {core::SyncAlgorithm::kBYZ, "core.sync_round_us.BYZ"},
  };
  for (const auto& a : algos) {
    out.add(a.metric, sync_round_us(a.algo, in, spans), "us");
  }
  out.note("core.replay_readings", static_cast<double>(in.readings.size()));
  out.add("net.serve_batch_ns_per_datagram", serve_batch_ns(in, spans, out), "ns");
  out.add("util.seqlock_read_ns", seqlock_read_ns(in, spans), "ns");
}

}  // namespace perfbench
