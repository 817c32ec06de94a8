// Loopback integration tests for the real UDP time service.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "net/udp_client.h"
#include "net/udp_server.h"
#include "net/udp_socket.h"
#include "service/scenario.h"

namespace mtds::net {
namespace {

TEST(UdpSocket, BindsEphemeralPort) {
  UdpSocket sock;
  EXPECT_GT(sock.port(), 0);
  EXPECT_FALSE(sock.closed());
}

// Receives one datagram's payload, or nullopt on timeout.
std::optional<std::vector<std::uint8_t>> receive_payload(UdpSocket& sock,
                                                         int timeout_ms) {
  std::array<std::uint8_t, 2048> buf{};
  const auto n = sock.receive_into(buf, nullptr, timeout_ms);
  if (!n) return std::nullopt;
  return std::vector<std::uint8_t>(buf.begin(), buf.begin() + *n);
}

TEST(UdpSocket, SendReceiveLoopback) {
  UdpSocket a, b;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(a.send_to(b.port(), payload));
  const auto got = receive_payload(b, /*timeout_ms=*/500);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(UdpSocket, ReceiveTimesOut) {
  UdpSocket sock;
  EXPECT_FALSE(receive_payload(sock, /*timeout_ms=*/10).has_value());
}

TEST(UdpSocket, MoveTransfersOwnership) {
  UdpSocket a;
  const auto port = a.port();
  UdpSocket b(std::move(a));
  EXPECT_EQ(b.port(), port);
  EXPECT_TRUE(a.closed());
}

TEST(UdpSocket, ClosedSocketRefusesIo) {
  UdpSocket sock;
  sock.close();
  EXPECT_TRUE(sock.closed());
  EXPECT_FALSE(sock.send_to(1234, std::vector<std::uint8_t>{1}));
  EXPECT_FALSE(receive_payload(sock, 1).has_value());
}

TEST(UdpSocket, ReceiveIntoFillsCallerBuffer) {
  UdpSocket a, b;
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  ASSERT_TRUE(a.send_to(b.port(), payload));
  std::array<std::uint8_t, 64> buf{};
  sockaddr_in from{};
  const auto n = b.receive_into(buf, &from, /*timeout_ms=*/500);
  ASSERT_TRUE(n.has_value());
  ASSERT_EQ(*n, payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), buf.begin()));
  EXPECT_EQ(ntohs(from.sin_port), a.port());
}

void drain_ten_datagrams(UdpSocket& from_sock, UdpSocket& to_sock) {
  for (std::uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(from_sock.send_to(to_sock.port(), std::vector<std::uint8_t>{i}));
  }
  RecvBatch batch(/*capacity=*/4);
  std::vector<std::uint8_t> seen;
  for (int spins = 0; seen.size() < 10 && spins < 50; ++spins) {
    const std::size_t n = to_sock.receive_batch(batch, /*timeout_ms=*/500);
    EXPECT_EQ(n, batch.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch.payload(i).size(), 1u);
      seen.push_back(batch.payload(i)[0]);
      EXPECT_EQ(ntohs(batch.from(i).sin_port), from_sock.port());
    }
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
}

TEST(UdpSocket, ReceiveBatchDrainsQueuedDatagrams) {
  UdpSocket a, b;
  drain_ten_datagrams(a, b);
}

TEST(UdpSocket, ReceiveBatchTimesOutEmpty) {
  UdpSocket sock;
  RecvBatch batch;
  EXPECT_EQ(sock.receive_batch(batch, /*timeout_ms=*/10), 0u);
  EXPECT_EQ(batch.size(), 0u);
}

TEST(UdpServer, AnswersQueries) {
  UdpServerConfig cfg;
  cfg.id = 9;
  cfg.claimed_delta = 1e-4;
  cfg.initial_error = 0.002;
  cfg.algo = core::SyncAlgorithm::kNone;
  UdpTimeServer server(cfg);
  server.start();

  UdpTimeClient client;
  const auto readings = client.collect({server.port()}, 0.5);
  ASSERT_EQ(readings.size(), 1u);
  EXPECT_EQ(readings[0].from, 9u);
  EXPECT_NEAR(readings[0].e.seconds(), 0.002, 1e-3);
  EXPECT_GE(readings[0].rtt_own, 0.0);
  EXPECT_LT(readings[0].rtt_own, 0.5);
  EXPECT_GT(server.requests_served(), 0u);
  server.stop();
}

TEST(UdpServer, ClientStrategiesAgainstThreeServers) {
  std::vector<std::unique_ptr<UdpTimeServer>> servers;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 3; ++i) {
    UdpServerConfig cfg;
    cfg.id = static_cast<std::uint32_t>(i);
    cfg.claimed_delta = 1e-4;
    cfg.initial_error = 0.002 + 0.002 * i;
    cfg.initial_offset = core::Offset{(i - 1) * 0.001};
    cfg.algo = core::SyncAlgorithm::kNone;
    servers.push_back(std::make_unique<UdpTimeServer>(cfg));
    servers.back()->start();
    ports.push_back(servers.back()->port());
  }

  UdpTimeClient client;
  const auto first = client.query(ports, service::ClientStrategy::kFirstReply, 0.5);
  EXPECT_EQ(first.replies, 1u);
  // Theorem 6 compares strategies over the SAME replies: collect once.
  const auto readings = client.collect(ports, 0.5);
  ASSERT_EQ(readings.size(), 3u);
  const auto smallest =
      service::combine_replies(readings, service::ClientStrategy::kSmallestError);
  const auto intersect =
      service::combine_replies(readings, service::ClientStrategy::kIntersect);
  EXPECT_EQ(intersect.replies, 3u);
  EXPECT_TRUE(intersect.consistent);
  EXPECT_LE(intersect.error, smallest.error + 1e-9);
  // The estimate approximates host time within its own error bound.
  EXPECT_LE(std::abs(intersect.estimate.seconds() - host_seconds()),
            intersect.error.seconds() + 0.01);
  for (auto& s : servers) s->stop();
}

TEST(UdpServer, MMSyncPullsOffsetServerIn) {
  // Reference server: correct, tight error.  Learner: 50 ms off with a
  // large error; after a few MM rounds it must have adopted the reference.
  UdpServerConfig ref;
  ref.id = 0;
  ref.claimed_delta = 1e-5;
  ref.initial_error = 0.0005;
  ref.algo = core::SyncAlgorithm::kNone;
  UdpTimeServer reference(ref);
  reference.start();

  UdpServerConfig learn;
  learn.id = 1;
  learn.claimed_delta = 1e-4;
  learn.initial_error = 0.5;
  learn.initial_offset = core::Offset{0.05};
  learn.algo = core::SyncAlgorithm::kMM;
  learn.poll_period = 0.02;
  learn.reply_timeout = 0.01;
  UdpTimeServer learner(learn);
  learner.set_peers({reference.port()});
  learner.start();

  // Wait for a few sync rounds.
  for (int i = 0; i < 100 && learner.resets() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(learner.resets(), 0u);
  EXPECT_LT(std::abs(learner.true_offset().seconds()), 0.01);
  EXPECT_LT(learner.current_error().seconds(), 0.1);
  learner.stop();
  reference.stop();
}

TEST(UdpServer, RepliesFromUnlistedAddressesAreDropped) {
  // A forger on an ephemeral socket sends replies that claim, by wire id,
  // to come from the learner's only configured peer (which stays silent),
  // for every tag the learner may have outstanding, with a confident clock
  // 0.4 s fast.  Replies are attributed by source address, so none of them
  // may pair, and the learner must not reset to the lie.
  UdpSocket silent_peer;
  UdpServerConfig learn;
  learn.id = 1;
  learn.claimed_delta = 1e-4;
  learn.initial_error = 0.5;
  learn.algo = core::SyncAlgorithm::kMM;
  learn.poll_period = 0.02;
  learn.reply_timeout = 0.01;
  UdpTimeServer learner(learn);
  learner.set_peers({silent_peer.port()});
  learner.start();

  UdpSocket forger;
  TimeResponsePacket lie;
  lie.server_id = UdpTimeServer::peer_engine_id(0);
  lie.error_ns = 1000;
  for (int burst = 0; burst < 50; ++burst) {
    for (std::uint64_t tag = 1; tag <= 200; ++tag) {
      lie.tag = tag;
      lie.clock_ns = seconds_to_ns(host_seconds() + 0.4);
      forger.send_to(learner.port(), encode(lie));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto counters = learner.counters();
  EXPECT_GT(counters.requests_sent, 0u);
  EXPECT_EQ(counters.replies_received, 0u);
  EXPECT_EQ(counters.resets, 0u);
  EXPECT_LT(std::abs(learner.true_offset().seconds()), 0.1);
  learner.stop();
}

TEST(UdpServer, AnswersFreshSourcesWithoutRememberingThem) {
  // Every request from an unlisted address is answered, and the address is
  // forgotten with the reply: a stream of clients on fresh ephemeral
  // sockets must not grow the runtime's address book, which holds the
  // configured peers and nothing else.
  UdpSocket silent_peer;
  UdpServerConfig cfg;
  cfg.id = 9;
  cfg.claimed_delta = 1e-4;
  cfg.initial_error = 0.002;
  cfg.algo = core::SyncAlgorithm::kNone;
  UdpTimeServer server(cfg);
  server.set_peers({silent_peer.port()});
  server.start();
  const std::size_t known = server.known_addresses();
  EXPECT_EQ(known, 1u);

  constexpr int kClients = 300;
  int answered = 0;
  for (int i = 0; i < kClients; ++i) {
    UdpTimeClient client;  // a fresh socket, so a fresh source port
    const auto readings = client.collect({server.port()}, 0.5);
    if (readings.size() == 1 && readings[0].from == 9u) ++answered;
  }
  EXPECT_EQ(answered, kClients);
  EXPECT_EQ(server.known_addresses(), known);
  server.stop();
}

TEST(UdpServer, IMSyncShrinksError) {
  UdpServerConfig a;
  a.id = 0;
  a.claimed_delta = 1e-5;
  a.initial_error = 0.003;
  a.initial_offset = core::Offset{0.002};
  a.algo = core::SyncAlgorithm::kNone;
  UdpTimeServer sa(a);
  sa.start();

  UdpServerConfig b = a;
  b.id = 1;
  b.initial_offset = core::Offset{-0.002};
  UdpTimeServer sb(b);
  sb.start();

  UdpServerConfig im;
  im.id = 2;
  im.claimed_delta = 1e-4;
  im.initial_error = 0.25;
  im.algo = core::SyncAlgorithm::kIM;
  im.poll_period = 0.02;
  im.reply_timeout = 0.01;
  UdpTimeServer learner(im);
  learner.set_peers({sa.port(), sb.port()});
  learner.start();

  for (int i = 0; i < 100 && learner.resets() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(learner.resets(), 0u);
  EXPECT_LT(learner.current_error().seconds(), 0.05);
  EXPECT_LT(std::abs(learner.true_offset().seconds()), 0.05);
  learner.stop();
  sa.stop();
  sb.stop();
}

// The daemon's path: a UdpServerConfig whose ServerSpec part is read by the
// scenario DSL's server parser, with the engine extensions switched on.
TEST(UdpServer, ServerFromParsedSpecKeepsSyncing) {
  const auto config = [](std::uint32_t id, const std::string& spec) {
    UdpServerConfig cfg;
    static_cast<service::ServerSpec&>(cfg) =
        service::parse_server_spec(spec, cfg);
    cfg.id = id;
    cfg.reply_timeout = 0.01;
    return cfg;
  };
  UdpTimeServer sa(config(0, "algo=NONE delta=1e-5 error=0.003 offset=0.002"));
  UdpTimeServer sb(config(1, "algo=NONE delta=1e-5 error=0.003 offset=-0.002"));
  sa.start();
  sb.start();
  UdpTimeServer learner(config(
      2, "algo=IM delta=1e-4 error=0.25 tau=0.02 filter=1 health=1"));
  learner.set_peers({sa.port(), sb.port()});
  learner.start();

  const auto wait_past = [&](const service::ServerCounters& c) {
    for (int i = 0; i < 200; ++i) {
      const auto now = learner.counters();
      if (now.rounds > c.rounds && now.resets > c.resets) return now;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return learner.counters();
  };
  const auto first = wait_past({});
  EXPECT_GT(first.resets, 0u);
  const auto later = wait_past(first);
  EXPECT_GT(later.rounds, first.rounds);
  EXPECT_GT(later.resets, first.resets);
  EXPECT_LT(learner.current_error().seconds(), 0.05);
  learner.stop();
  sa.stop();
  sb.stop();
}

TEST(UdpServer, ThirdServerRecoveryOverUdp) {
  // An honest remote server (the "other network") plus a confidently wrong
  // peer: the learner's MM rounds see only inconsistency, so the recovery
  // path must reset it from the remote.
  UdpServerConfig remote;
  remote.id = 9;
  remote.claimed_delta = 1e-6;
  remote.initial_error = 0.0005;
  remote.algo = core::SyncAlgorithm::kNone;
  UdpTimeServer third(remote);
  third.start();

  UdpServerConfig liar;
  liar.id = 1;
  liar.claimed_delta = 1e-6;
  liar.initial_error = 0.0005;
  liar.initial_offset = core::Offset{-5.0};  // wildly wrong, tiny claimed error
  liar.algo = core::SyncAlgorithm::kNone;
  UdpTimeServer bad(liar);
  bad.start();

  UdpServerConfig cfg;
  cfg.id = 0;
  cfg.claimed_delta = 1e-4;
  cfg.initial_error = 0.01;
  cfg.initial_offset = core::Offset{0.05};
  cfg.algo = core::SyncAlgorithm::kMM;
  cfg.poll_period = 0.02;
  cfg.reply_timeout = 0.01;
  cfg.recovery_ports = {third.port()};
  UdpTimeServer learner(cfg);
  learner.set_peers({bad.port()});
  learner.start();

  for (int i = 0; i < 150 && learner.counters().recoveries == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(learner.counters().recoveries, 0u);
  EXPECT_LT(std::abs(learner.true_offset().seconds()), 0.02);
  learner.stop();
  bad.stop();
  third.stop();
}

TEST(UdpServer, StopIsIdempotentAndRestartSafe) {
  UdpServerConfig cfg;
  cfg.algo = core::SyncAlgorithm::kNone;
  UdpTimeServer server(cfg);
  server.start();
  server.start();  // double start is a no-op
  server.stop();
  server.stop();  // double stop is a no-op
  EXPECT_FALSE(server.running());
}

// Shutdown is one-way: a start after stop must not report a server whose
// socket is already closed as running.
TEST(UdpServer, StartAfterStopStaysStopped) {
  UdpServerConfig cfg;
  cfg.algo = core::SyncAlgorithm::kNone;
  UdpTimeServer server(cfg);
  server.start();
  server.stop();
  server.start();
  EXPECT_FALSE(server.running());
}

TEST(UdpServer, VirtualDriftMovesClock) {
  UdpServerConfig cfg;
  cfg.simulated_drift = 0.5;  // extreme drift for a fast test
  cfg.algo = core::SyncAlgorithm::kNone;
  UdpTimeServer server(cfg);
  const double o1 = server.true_offset().seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double o2 = server.true_offset().seconds();
  EXPECT_GT(o2 - o1, 0.02);  // ~0.05 expected
}

}  // namespace
}  // namespace mtds::net
