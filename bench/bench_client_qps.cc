// MICRO: closed-loop client-query throughput against a live ServingPlane
// over loopback - the serving plane's end-to-end qps figure tracked in
// BENCH_core.json (tools/bench_report.py --binary bench_client_qps).
//
// Each iteration keeps `batch` requests in flight against a plane running
// `threads` SO_REUSEPORT shards and counts the replies actually received;
// items/sec is therefore answered queries per second, not attempts.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/time_types.h"
#include "net/protocol.h"
#include "net/serving_plane.h"
#include "net/udp_socket.h"
#include "service/snapshot.h"

namespace {

using namespace mtds;

service::ClockSnapshot bench_snapshot() {
  service::ClockSnapshot snap;
  snap.base = core::ClockTime{1000.0};
  snap.error = core::ErrorBound{5e-3};
  snap.published_at = core::RealTime{0.0};
  snap.rate = 1.0;
  snap.delta = 1e-4;
  snap.server_id = 1;
  return snap;
}

void BM_ClientQps(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));

  net::ServingPlaneConfig cfg;
  cfg.threads = threads;
  cfg.batch = batch;
  net::ServingPlane plane(cfg);
  plane.publish_snapshot(bench_snapshot());
  plane.start();

  net::UdpSocket client;
  net::SendBatch out(batch, 512);
  net::RecvBatch in(batch, 512);
  const sockaddr_in server = net::UdpSocket::loopback(plane.port());

  net::ClientTimeRequest req;
  req.client_send_ns = 1;
  std::uint64_t received = 0;
  std::uint64_t tag = 0;
  for (auto _ : state) {
    out.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      req.tag = tag++;
      const auto bytes = net::encode(req);
      out.push(server, {bytes.data(), bytes.size()});
    }
    client.send_batch(out);
    // Closed loop: reap until the window drains or the kernel stops
    // delivering (UDP may drop under pressure; count what actually lands).
    std::size_t got = 0;
    while (got < batch) {
      const std::size_t n = client.receive_batch(in, 100);
      if (n == 0) break;
      got += n;
    }
    received += got;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
  plane.stop();
}
// One shard, two batch sizes.  The benchmark drives the plane from one
// client socket, and SO_REUSEPORT hashes a flow to one shard, so every
// request lands on the same shard whatever `threads` is: a multi-shard row
// could only measure idle extra shards, never scaling.  Shard scaling needs
// several flows (tools/loadgen --threads N against timeserverd).
BENCHMARK(BM_ClientQps)
    ->Args({1, 16})
    ->Args({1, 64})
    ->UseRealTime();

}  // namespace
