// The client serving plane: lock-free, allocation-free time queries at
// million-client scale.
//
// net::UdpTimeServer is split in two.  The sync plane is the existing
// engine-under-mutex path: peer protocol messages, rounds, resets.  After
// every round/reset the engine publishes an immutable ClockSnapshot (see
// service/snapshot.h) into this plane's util::Seqlock.  The serving plane
// is N reader threads, each owning its own SO_REUSEPORT socket on one
// shared client port - the kernel spreads inbound ClientTimeRequest
// datagrams across the shards - and each answers from the snapshot alone:
//
//   receive batch -> one seqlock read -> decode / extrapolate / encode per
//   datagram -> send batch
//
// No shard ever touches the engine, its mutex, or the allocator on this
// path (alloc_test pins the serve step; the seqlock stress runs under
// TSan).  The transport is one recvmmsg/sendmmsg batch per wakeup, so a
// wakeup costs two syscalls however many datagrams it carries;
// runtime_parity_test holds its replies byte-identical to the
// single-datagram syscalls.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "net/udp_socket.h"
#include "service/snapshot.h"
#include "util/seqlock.h"

namespace mtds::net {

struct ServingPlaneConfig {
  std::uint16_t port = 0;     // client port; 0 = ephemeral (shared by shards)
  std::uint32_t threads = 1;  // reader shards (one SO_REUSEPORT socket each)
  std::size_t batch = 64;     // datagrams per recv/send batch
  // Test seam: with freeze_wall set, shards evaluate every request at this
  // fixed instant instead of live host_seconds().  A frozen wall plus a
  // fixed snapshot makes each reply an exact function of the snapshot -
  // how serving_plane_test spots a torn seqlock read under query load.
  double frozen_wall_seconds = 0.0;  // lint-allow: bare-double
  bool freeze_wall = false;
};

// Serves every valid ClientTimeRequest in a received batch from one
// snapshot: decodes, extrapolates (C_i, E_i) at `now`, and appends the
// encoded ClientTimeReply to `out`.  Returns the number served.  Pure -
// no locks, no allocation, no I/O - so tests and the alloc gate drive it
// directly.
// mtds:no-alloc
std::size_t serve_client_batch(const RecvBatch& batch,
                               const service::ClockSnapshot& snap,
                               core::RealTime now, SendBatch& out) noexcept;

// Serves one request datagram: the per-datagram step serve_client_batch
// loops over.  Tests and the alloc gate also drive it directly.
// mtds:no-alloc
bool serve_client_datagram(std::span<const std::uint8_t> payload,
                           const sockaddr_in& from,
                           const service::ClockSnapshot& snap,
                           core::RealTime now, SendBatch& out) noexcept;

class ServingPlane final : public service::SnapshotSink {
 public:
  // Binds all shard sockets (throws std::runtime_error on bind failure)
  // but starts no threads until start().
  explicit ServingPlane(ServingPlaneConfig config);
  ~ServingPlane() override;

  ServingPlane(const ServingPlane&) = delete;
  ServingPlane& operator=(const ServingPlane&) = delete;

  // SnapshotSink: called by the engine inside the runtime's serialization
  // domain (single writer); readers pick the snapshot up lock-free.
  void publish_snapshot(const service::ClockSnapshot& snap) override;

  void start();
  void stop();

  std::uint16_t port() const noexcept { return port_; }
  std::uint64_t queries_served() const noexcept;
  // mtds:test-api(serving_plane_test checks each publication bumps the seqlock version)
  std::uint64_t snapshot_version() const noexcept {
    return snapshot_.version();
  }

 private:
  struct Shard;
  void shard_loop(Shard& shard);

  ServingPlaneConfig config_;
  std::uint16_t port_ = 0;
  util::Seqlock<service::ClockSnapshot> snapshot_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // mtds:lock-free(run flag: start()/stop() handshake with the shard loops, polled between batches, closing the sockets is what actually unblocks them)
  std::atomic<bool> running_{false};
  bool started_ = false;
};

}  // namespace mtds::net
