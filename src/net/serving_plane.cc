#include "net/serving_plane.h"

#include <cstddef>
#include <stdexcept>
#include <utility>

#include "net/protocol.h"
#include "runtime/udp_runtime.h"

namespace mtds::net {

namespace {

// Datagram slots sized for the fixed client messages with headroom for the
// oversized/garbage frames the decoder rejects.
constexpr std::size_t kSlotBytes = 512;

}  // namespace

// mtds:no-alloc
bool serve_client_datagram(std::span<const std::uint8_t> payload,
                           const sockaddr_in& from,
                           const service::ClockSnapshot& snap,
                           core::RealTime now, SendBatch& out) noexcept {
  const auto req = decode_client_request(payload.data(), payload.size());
  if (!req.has_value()) return false;
  std::uint8_t* slot = out.append(from, kClientReplySize);
  if (slot == nullptr) return false;  // batch full: drop (UDP semantics)
  core::ClockTime c{0.0};
  core::ErrorBound e{0.0};
  service::extrapolate(snap, now, c, e);
  ClientTimeReply reply;
  reply.tag = req->tag;
  reply.client_send_ns = req->client_send_ns;
  reply.server_id = snap.server_id;
  reply.clock_ns = seconds_to_ns(c.seconds());
  reply.error_ns = seconds_to_ns(e.seconds());
  encode_into(reply, slot);
  return true;
}

// mtds:no-alloc
std::size_t serve_client_batch(const RecvBatch& batch,
                               const service::ClockSnapshot& snap,
                               core::RealTime now, SendBatch& out) noexcept {
  std::size_t served = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (serve_client_datagram(batch.payload(i), batch.from(i), snap, now,
                              out)) {
      ++served;
    }
  }
  return served;
}

struct ServingPlane::Shard {
  Shard(std::uint16_t port, std::size_t batch)
      : socket(port, /*reuse_port=*/true),
        recv(batch, kSlotBytes),
        send(batch, kSlotBytes) {}

  UdpSocket socket;
  RecvBatch recv;
  SendBatch send;
  // mtds:lock-free(statistics counter: owning shard thread writes, queries_served() reads, a momentarily stale sum is fine)
  std::atomic<std::uint64_t> served{0};
  std::thread thread;
};

ServingPlane::ServingPlane(ServingPlaneConfig config)
    : config_(std::move(config)) {
  const std::uint32_t threads = config_.threads == 0 ? 1 : config_.threads;
  shards_.reserve(threads);
  // The first shard may bind an ephemeral port; the rest join it.  Every
  // shard sets SO_REUSEPORT (UdpSocket does so before bind), which is what
  // lets the kernel hash inbound client datagrams across the group.
  auto first = std::make_unique<Shard>(config_.port, config_.batch);
  port_ = first->socket.port();
  shards_.push_back(std::move(first));
  for (std::uint32_t i = 1; i < threads; ++i) {
    shards_.push_back(std::make_unique<Shard>(port_, config_.batch));
  }
}

ServingPlane::~ServingPlane() { stop(); }

void ServingPlane::publish_snapshot(const service::ClockSnapshot& snap) {
  snapshot_.publish(snap);
}

void ServingPlane::start() {
  if (started_) return;
  started_ = true;
  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, raw = shard.get()] { shard_loop(*raw); });
  }
}

void ServingPlane::stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  // Shard loops wait with a bounded poll timeout, so each observes
  // running_ within one period; join BEFORE closing the sockets - closing
  // an fd another thread is mid-recvmmsg on is a race, not a wakeup.
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (auto& shard : shards_) shard->socket.close();
  started_ = false;
}

std::uint64_t ServingPlane::queries_served() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->served.load(std::memory_order_relaxed);
  }
  return total;
}

// Shard hot loop.  Per wakeup: one batched receive, one seqlock snapshot
// read shared by the whole batch, pure decode/extrapolate/encode into the
// SendBatch, one batched send.  The serve step never takes a lock or
// allocates (the serve_client_* free functions carry the no-alloc contract
// and alloc_test pins it).
void ServingPlane::shard_loop(Shard& shard) {
  constexpr int kPollMs = 20;  // also the stop-flag latency bound
  service::ClockSnapshot snap;
  while (running_.load(std::memory_order_acquire)) {
    const std::size_t got = shard.socket.receive_batch(shard.recv, kPollMs);
    if (got == 0) continue;
    if (!snapshot_.read(snap)) continue;  // nothing published yet: drop
    const core::RealTime now{config_.freeze_wall ? config_.frozen_wall_seconds
                                                 : runtime::host_seconds()};
    shard.send.clear();
    const std::size_t served =
        serve_client_batch(shard.recv, snap, now, shard.send);
    if (served != 0) {
      // Counted before the send, as the engine counts responses_sent: a
      // client that has its reply must never read a total without it.
      shard.served.fetch_add(served, std::memory_order_relaxed);
      shard.socket.send_batch(shard.send);
    }
  }
}

}  // namespace mtds::net
