// net/serving_plane.h end to end: real SO_REUSEPORT sockets, real shard
// threads, client queries answered from a published snapshot - plus the
// pure serve_client_* helpers the hot loop is built from.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "net/serving_plane.h"
#include "net/udp_server.h"
#include "net/udp_socket.h"
#include "service/snapshot.h"

namespace mtds {
namespace {

service::ClockSnapshot test_snapshot() {
  service::ClockSnapshot snap;
  snap.base = core::ClockTime{1000.0};
  snap.error = core::ErrorBound{5e-3};
  snap.published_at = core::RealTime{0.0};
  snap.rate = 1.0;
  snap.delta = 1e-4;
  snap.server_id = 42;
  return snap;
}

net::ClientRequestBuffer encode_request(std::uint64_t tag) {
  net::ClientTimeRequest req;
  req.tag = tag;
  req.client_send_ns = 123456789;
  return net::encode(req);
}

TEST(ServeClientDatagram, RepliesToValidRequest) {
  const auto bytes = encode_request(7);
  net::SendBatch out(4, 512);
  const sockaddr_in from = net::UdpSocket::loopback(1234);
  ASSERT_TRUE(net::serve_client_datagram({bytes.data(), bytes.size()}, from,
                                         test_snapshot(), core::RealTime{2.0},
                                         out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.to(0).sin_port, from.sin_port);

  const auto view = out.payload(0);
  const auto reply = net::decode_client_reply(view.data(), view.size());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->tag, 7u);
  EXPECT_EQ(reply->client_send_ns, 123456789);
  EXPECT_EQ(reply->server_id, 42u);
  // Two seconds after publication at rate 1: C = 1002, E = 5e-3 + 2*1e-4.
  EXPECT_EQ(reply->clock_ns, net::seconds_to_ns(1002.0));
  EXPECT_EQ(reply->error_ns, net::seconds_to_ns(5e-3 + 2e-4));
}

TEST(ServeClientDatagram, RejectsGarbageAndPeerPackets) {
  net::SendBatch out(4, 512);
  const sockaddr_in from = net::UdpSocket::loopback(1234);
  const auto snap = test_snapshot();

  const std::uint8_t garbage[24] = {1, 2, 3};
  EXPECT_FALSE(net::serve_client_datagram({garbage, sizeof(garbage)}, from,
                                          snap, core::RealTime{0.0}, out));

  // A peer sync request (kRequest) at the client port must be rejected:
  // same size, wrong type byte.
  net::TimeRequestPacket peer;
  peer.tag = 9;
  const auto peer_bytes = net::encode(peer);
  EXPECT_FALSE(net::serve_client_datagram(
      {peer_bytes.data(), peer_bytes.size()}, from, snap, core::RealTime{0.0},
      out));

  // Truncated client request.
  const auto good = encode_request(1);
  EXPECT_FALSE(net::serve_client_datagram({good.data(), good.size() - 1}, from,
                                          snap, core::RealTime{0.0}, out));
  EXPECT_EQ(out.size(), 0u);
}

TEST(ServeClientBatch, FillsOneReplyPerValidRequest) {
  net::RecvBatch recv(8, 512);
  // RecvBatch is fill-by-socket only; go through a real socket pair.
  net::UdpSocket rx;
  net::UdpSocket tx;
  const auto snap = test_snapshot();
  for (std::uint64_t tag = 0; tag < 5; ++tag) {
    const auto bytes = encode_request(tag);
    ASSERT_TRUE(tx.send_to(rx.port(), {bytes.data(), bytes.size()}));
  }
  // All five are queued before the first drain; one recvmmsg gets them all
  // (retry in case the kernel staged them across wakeups).
  for (int tries = 0; tries < 50; ++tries) {
    if (rx.receive_batch(recv, 100) == 5) break;
  }
  ASSERT_EQ(recv.size(), 5u);

  net::SendBatch out(8, 512);
  EXPECT_EQ(net::serve_client_batch(recv, snap, core::RealTime{1.0}, out), 5u);
  EXPECT_EQ(out.size(), 5u);
}

// One round trip against a running plane.
TEST(ServingPlane, AnswersQueriesOverTheWire) {
  net::ServingPlaneConfig cfg;
  cfg.threads = 2;
  cfg.batch = 16;
  net::ServingPlane plane(cfg);
  ASSERT_NE(plane.port(), 0);

  plane.publish_snapshot(test_snapshot());
  EXPECT_EQ(plane.snapshot_version(), 1u);
  plane.start();

  net::UdpSocket client;
  std::uint64_t answered = 0;
  std::uint8_t buf[512];
  for (std::uint64_t tag = 0; tag < 32; ++tag) {
    const auto bytes = encode_request(tag);
    ASSERT_TRUE(client.send_to(plane.port(), {bytes.data(), bytes.size()}));
    const auto n = client.receive_into(buf, nullptr, 2000);
    ASSERT_TRUE(n.has_value()) << "no reply for tag " << tag;
    const auto reply = net::decode_client_reply(buf, *n);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->tag, tag);
    EXPECT_EQ(reply->server_id, 42u);
    ++answered;
  }
  plane.stop();
  EXPECT_EQ(answered, 32u);
  EXPECT_EQ(plane.queries_served(), 32u);
}

// Queries arriving before the first publication are dropped, not answered
// from a zero snapshot.
TEST(ServingPlane, DropsQueriesBeforeFirstSnapshot) {
  net::ServingPlaneConfig cfg;
  cfg.threads = 1;
  net::ServingPlane plane(cfg);
  plane.start();

  net::UdpSocket client;
  const auto bytes = encode_request(1);
  ASSERT_TRUE(client.send_to(plane.port(), {bytes.data(), bytes.size()}));
  std::uint8_t buf[512];
  EXPECT_FALSE(client.receive_into(buf, nullptr, 200).has_value());

  // After publication the same client gets served.
  plane.publish_snapshot(test_snapshot());
  ASSERT_TRUE(client.send_to(plane.port(), {bytes.data(), bytes.size()}));
  EXPECT_TRUE(client.receive_into(buf, nullptr, 2000).has_value());
  plane.stop();
}

// Full stack: UdpTimeServer with client_threads wires the engine's snapshot
// publications into the plane; a client sees the server's actual clock.
TEST(ServingPlane, ThroughUdpTimeServer) {
  net::UdpServerConfig cfg;
  cfg.id = 3;
  cfg.poll_period = 0;  // respond-only: no peers needed
  cfg.client_threads = 2;
  net::UdpTimeServer server(cfg);
  server.start();
  ASSERT_NE(server.client_port(), 0);

  net::UdpSocket client;
  const auto bytes = encode_request(55);
  std::uint8_t buf[512];
  ASSERT_TRUE(
      client.send_to(server.client_port(), {bytes.data(), bytes.size()}));
  const auto n = client.receive_into(buf, nullptr, 2000);
  ASSERT_TRUE(n.has_value());
  const auto reply = net::decode_client_reply(buf, *n);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->tag, 55u);
  EXPECT_EQ(reply->server_id, 3u);
  // The served clock tracks the engine's: within the error bound plus a
  // generous scheduling slop of the introspected value.
  const double served = net::ns_to_seconds(reply->clock_ns);
  const double engine_now = server.read_clock().seconds();
  EXPECT_NEAR(served, engine_now, 0.5);
  EXPECT_EQ(server.client_queries_served(), 1u);
  server.stop();
}

// Snapshot republication is atomic under concurrent query load: a writer
// hammers publish_snapshot with two alternating snapshots whose fields all
// differ while a client drains replies.  With a frozen wall every reply is
// an exact function of one snapshot, so a torn seqlock read (base from one
// publication, error or rate from the other) produces a tuple matching
// neither and fails the exact comparison below.
TEST(ServingPlane, RepublicationIsAtomicUnderQueryLoad) {
  net::ServingPlaneConfig cfg;
  cfg.threads = 2;
  cfg.batch = 16;
  cfg.freeze_wall = true;
  cfg.frozen_wall_seconds = 2.0;
  net::ServingPlane plane(cfg);

  service::ClockSnapshot a = test_snapshot();  // base 1000, err 5e-3, id 42
  service::ClockSnapshot b;
  b.base = core::ClockTime{9000.0};
  b.error = core::ErrorBound{2e-3};
  b.published_at = core::RealTime{1.0};
  b.rate = 1.0;
  b.delta = 1e-4;
  b.server_id = 43;
  plane.publish_snapshot(a);
  plane.start();

  // Expected (clock, error) at the frozen wall T = 2 for each snapshot.
  const std::int64_t clock_a = net::seconds_to_ns(1000.0 + 2.0);
  const std::int64_t error_a = net::seconds_to_ns(5e-3 + 2.0 * 1e-4);
  const std::int64_t clock_b = net::seconds_to_ns(9000.0 + 1.0);
  const std::int64_t error_b = net::seconds_to_ns(2e-3 + 1.0 * 1e-4);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    bool flip = false;
    while (!stop.load(std::memory_order_relaxed)) {
      plane.publish_snapshot(flip ? b : a);
      flip = !flip;
      std::this_thread::yield();
    }
  });

  net::UdpSocket client;
  std::uint8_t buf[512];
  std::uint64_t answered = 0;
  for (std::uint64_t tag = 0; tag < 512; ++tag) {
    const auto bytes = encode_request(tag);
    ASSERT_TRUE(client.send_to(plane.port(), {bytes.data(), bytes.size()}));
    const auto n = client.receive_into(buf, nullptr, 2000);
    ASSERT_TRUE(n.has_value()) << "no reply for tag " << tag;
    const auto reply = net::decode_client_reply(buf, *n);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->tag, tag);
    if (reply->server_id == 42u) {
      EXPECT_EQ(reply->clock_ns, clock_a) << "torn read: A's id, mixed clock";
      EXPECT_EQ(reply->error_ns, error_a) << "torn read: A's id, mixed error";
    } else {
      ASSERT_EQ(reply->server_id, 43u);
      EXPECT_EQ(reply->clock_ns, clock_b) << "torn read: B's id, mixed clock";
      EXPECT_EQ(reply->error_ns, error_b) << "torn read: B's id, mixed error";
    }
    ++answered;
  }
  stop.store(true);
  writer.join();
  plane.stop();
  EXPECT_EQ(answered, 512u);
  EXPECT_GT(plane.snapshot_version(), 2u);
}

// Engine reset mid-query-load re-seeds the served snapshot.  Server 7 boots
// with a wildly wrong state (+0.5 s offset, 1 s error bound) and syncs
// against an accurate peer while a load thread hammers its client port.
// Every MM reset republishes through the SnapshotSink seam; once resets
// have landed, replies must reflect the corrected clock and collapsed error
// bound - a stale (or never re-seeded) seqlock cell would keep serving the
// ~1 s startup error and the +0.5 s offset forever.
TEST(ServingPlane, EngineResetReseedsSnapshotMidQueryLoad) {
  net::UdpServerConfig peer_cfg;
  peer_cfg.id = 1;
  peer_cfg.poll_period = 0;  // respond-only reference with a good clock
  peer_cfg.initial_error = 1e-3;
  net::UdpTimeServer peer(peer_cfg);
  peer.start();

  net::UdpServerConfig cfg;
  cfg.id = 7;
  cfg.algo = core::SyncAlgorithm::kMM;
  cfg.poll_period = 0.05;
  cfg.reply_timeout = 0.02;
  cfg.initial_offset = core::Offset{0.5};
  cfg.initial_error = core::ErrorBound{1.0};
  cfg.claimed_delta = 1e-4;
  cfg.client_threads = 2;
  net::UdpTimeServer server(cfg);
  server.set_peers({peer.port()});
  server.start();
  ASSERT_NE(server.client_port(), 0);

  // Continuous query load across the reset window.  Replies are sanity-
  // checked inline; any malformed or impossible reply flags `broken`.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> broken{false};
  std::thread load([&] {
    net::UdpSocket sock;
    std::uint8_t buf[512];
    std::uint64_t tag = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto bytes = encode_request(++tag);
      if (!sock.send_to(server.client_port(), {bytes.data(), bytes.size()})) {
        continue;
      }
      const auto n = sock.receive_into(buf, nullptr, 200);
      if (!n.has_value()) continue;  // load thread tolerates drops
      const auto reply = net::decode_client_reply(buf, *n);
      if (!reply.has_value() || reply->server_id != 7u ||
          reply->error_ns <= 0 ||
          reply->error_ns > net::seconds_to_ns(2.0)) {
        broken.store(true);
      }
      answered.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Wait (under load) for sync resets to land.
  for (int i = 0; i < 500 && server.resets() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Let at least one post-reset publication settle, then stop the load.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  load.join();
  ASSERT_GE(server.resets(), 1u) << "no sync reset landed within 5 s";
  EXPECT_FALSE(broken.load());
  EXPECT_GT(answered.load(), 0u);

  // A fresh query now sees the re-seeded snapshot: error collapsed from
  // the 1 s startup bound to milliseconds, clock pulled onto the peer's
  // (the +0.5 s startup offset is gone).
  net::UdpSocket client;
  std::uint8_t buf[512];
  const auto bytes = encode_request(424242);
  ASSERT_TRUE(
      client.send_to(server.client_port(), {bytes.data(), bytes.size()}));
  const auto n = client.receive_into(buf, nullptr, 2000);
  ASSERT_TRUE(n.has_value());
  const auto reply = net::decode_client_reply(buf, *n);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->server_id, 7u);
  EXPECT_LT(reply->error_ns, net::seconds_to_ns(0.2));
  EXPECT_NEAR(net::ns_to_seconds(reply->clock_ns), net::host_seconds(), 0.25);

  server.stop();
  peer.stop();
}

}  // namespace
}  // namespace mtds
