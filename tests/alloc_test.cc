// Steady-state allocation test: once the service is warmed up, running more
// rounds must not touch the heap at all.
//
// The whole simulator stack is built for this: EventQueue stores timers as
// std::function closures small enough for its inline buffer in a reused
// slab, and message deliveries as keys into the network's reused parcel
// pools; the protocol engine's per-round lists (pending requests, replies)
// are capacity-retaining vectors, sync outcomes carry their source ids in
// InlineVec inline storage, and the sharded engine's mailboxes are plain
// vectors that keep their capacity across flushes.  This test pins that
// property with a counting global operator new: a regression that
// reintroduces a per-round malloc (a std::map node, a closure too big for
// std::function's buffer, a moved-from vector) fails here immediately, with
// the allocation count as the diagnostic.
//
// Warm-up matters: the first rounds legitimately allocate (vector
// capacities, timer slots, filter windows all grow to their steady-state
// sizes).  The measured window starts well after every such one-time cost.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "net/protocol.h"
#include "net/serving_plane.h"
#include "net/udp_socket.h"
#include "service/snapshot.h"
#include "service/time_service.h"
#include "util/seqlock.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Counting overrides for every replaceable allocation form.  Deallocation
// is intentionally not counted: the test asserts on news, and frees without
// matching news in the window would already imply a bug elsewhere.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mtds::service {
namespace {

ServerSpec spec(core::SyncAlgorithm algo) {
  ServerSpec s;
  s.algo = algo;
  s.claimed_delta = 1e-5;
  s.simulated_drift = 2e-6;
  s.initial_error = 0.01;
  s.poll_period = 1.0;
  return s;
}

ServiceConfig config(core::SyncAlgorithm algo, std::size_t n) {
  ServiceConfig cfg;
  cfg.seed = 7;
  cfg.delay_lo = 0.001;
  cfg.delay_hi = 0.003;
  cfg.sample_interval = 0.0;  // trace *events* still record (resets)
  for (std::size_t i = 0; i < n; ++i) cfg.servers.push_back(spec(algo));
  return cfg;
}

// Warm the service up, then assert an extended steady-state window (tens of
// rounds across every server) performs zero heap allocations.
// `samples` pre-sizes the sample buffers for runs with the sampler on.
void expect_steady_state_alloc_free(ServiceConfig cfg, const char* label,
                                    std::size_t samples = 0) {
  TimeService service(std::move(cfg));
  // Trace buffers grow by doubling; pre-size them so a reset event landing
  // on a growth boundary inside the window cannot masquerade as a leak.
  service.reserve_trace(samples, 1 << 14);
  service.run_until(40.0);  // warm-up: ~40 rounds per server

  const std::uint64_t before = allocation_count();
  service.run_until(80.0);
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << label << ": steady-state window performed " << (after - before)
      << " heap allocations";

  // The service stayed functional through the measured window.
  EXPECT_TRUE(service.all_correct());
}

TEST(AllocTest, MMPerReplySteadyStateIsAllocationFree) {
  expect_steady_state_alloc_free(config(core::SyncAlgorithm::kMM, 4),
                                 "MM/one-shard");
}

TEST(AllocTest, IMPerRoundSteadyStateIsAllocationFree) {
  expect_steady_state_alloc_free(config(core::SyncAlgorithm::kIM, 4),
                                 "IM/one-shard");
}

TEST(AllocTest, ShardedEngineSteadyStateIsAllocationFree) {
  ServiceConfig cfg = config(core::SyncAlgorithm::kMM, 8);
  cfg.sim_shards = 4;
  expect_steady_state_alloc_free(std::move(cfg), "MM/sharded");
}

TEST(AllocTest, SampleFilterSteadyStateIsAllocationFree) {
  ServiceConfig cfg = config(core::SyncAlgorithm::kIM, 4);
  for (auto& s : cfg.servers) s.use_sample_filter = true;
  expect_steady_state_alloc_free(std::move(cfg), "IM/filter");
}

// The trace sampler: each shard's `[this, shard]` timer records its
// servers and re-arms itself every sample_interval.  Two shards, so the
// closure runs with a non-zero shard too.  Samples go into buffers that
// reserve_trace pre-sized: 8 servers x 80 s x 4 samples/s fits 4096.
TEST(AllocTest, TraceSamplerSteadyStateIsAllocationFree) {
  ServiceConfig cfg = config(core::SyncAlgorithm::kMM, 8);
  cfg.sample_interval = 0.25;
  cfg.sim_shards = 2;
  expect_steady_state_alloc_free(std::move(cfg), "MM/sampler", 1 << 12);
}

// BYZ with gossip cross-notes: the trim-f round path, the per-round gossip
// fan-out (one ServiceMessage per fresh note, a record in a parcel pool),
// the cross-check against first-hand memory and the second-hand merge must
// all run out of retained capacity once warm.  n = 5 keeps f = 1, so the
// trim path is exercised, not short-circuited.  Health, filter and rate
// monitor are on too, so every column of the peer table is live.
TEST(AllocTest, ByzGossipSteadyStateIsAllocationFree) {
  ServiceConfig cfg = config(core::SyncAlgorithm::kBYZ, 5);
  cfg.gossip = true;
  for (auto& s : cfg.servers) {
    s.health.enabled = true;
    s.health.quarantine_after = 3;
    s.use_sample_filter = true;
    s.monitor_rates = true;
  }
  expect_steady_state_alloc_free(std::move(cfg), "BYZ/gossip");
}

// The serving plane's client reply path: seqlock publish + read, request
// decode, snapshot extrapolation, reply encode into SendBatch storage.
// Every step carries the mtds:no-alloc contract (tools/analyze.py proves
// reachability statically); this pins it dynamically.  No warm-up beyond
// constructing the batches: the serve path must be allocation-free from
// the very first datagram.
TEST(AllocTest, ClientReplyPathIsAllocationFree) {
  util::Seqlock<ClockSnapshot> cell;
  ClockSnapshot snap;
  snap.base = core::ClockTime{500.0};
  snap.error = core::ErrorBound{1e-3};
  snap.published_at = core::RealTime{10.0};
  snap.rate = 1.0 + 5e-5;
  snap.delta = 1e-4;
  snap.server_id = 1;

  // Pre-encode a window of requests the loop replays (a RecvBatch can only
  // be filled by a socket; the pure serve path takes the payload spans).
  constexpr std::size_t kWindow = 32;
  std::vector<net::ClientRequestBuffer> requests(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i) {
    net::ClientTimeRequest req;
    req.tag = i;
    req.client_send_ns = static_cast<std::int64_t>(i) * 1000;
    requests[i] = net::encode(req);
  }
  net::SendBatch out(kWindow, 512);
  const sockaddr_in from = net::UdpSocket::loopback(9);

  const std::uint64_t before = allocation_count();
  std::size_t served = 0;
  for (int round = 0; round < 1000; ++round) {
    snap.published_at = core::RealTime{10.0 + round * 0.01};
    cell.publish(snap);
    ClockSnapshot view;
    ASSERT_TRUE(cell.read(view));
    out.clear();
    const core::RealTime now{view.published_at + core::Duration{0.005}};
    for (const auto& buf : requests) {
      if (net::serve_client_datagram({buf.data(), buf.size()}, from, view,
                                     now, out)) {
        ++served;
      }
    }
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "client reply path performed " << (after - before)
      << " heap allocations over " << served << " replies";
  EXPECT_EQ(served, 1000 * kWindow);
}

}  // namespace
}  // namespace mtds::service
