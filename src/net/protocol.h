// Wire protocol for the UDP time service.
//
// Fixed-size packets, network byte order, explicit versioning.  Times are
// int64 nanoseconds so the wire format is exact; the in-memory model stays
// in double seconds.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

namespace mtds::net {

inline constexpr std::uint32_t kMagic = 0x4D544453;  // "MTDS"
inline constexpr std::uint8_t kVersion = 1;

enum class PacketType : std::uint8_t {
  kRequest = 1,   // peer sync plane (rule MM-1 poll)
  kResponse = 2,  // peer sync plane reply
  // Client serving plane (net/serving_plane.h): same sizes and layout as the
  // peer packets but distinct types, so a client datagram misdirected at the
  // sync port (or vice versa) is rejected instead of half-understood.
  kClientRequest = 3,
  kClientReply = 4,
  // Peer sync plane cross-note: a second-hand reading the sender collected
  // from `source_id`, forwarded so victims can cross-check an equivocator's
  // per-victim stories against each other.
  kReadingGossip = 5,
};

struct TimeRequestPacket {
  std::uint64_t tag = 0;            // echoed by the server
  std::int64_t client_send_ns = 0;  // opaque to the server, not echoed
};

struct TimeResponsePacket {
  std::uint64_t tag = 0;
  std::int64_t client_send_ns = 0;  // always 0: kept for the wire layout
  std::uint32_t server_id = 0;
  std::int64_t clock_ns = 0;  // C_j at response time
  std::int64_t error_ns = 0;  // E_j at response time
};

// Second-hand cross-note (gossip).  One note per packet: "`source_id` told
// `sender_id` <clock_ns, error_ns> `age_ns` ago over a link with round trip
// `rtt_ns`", stamped with the sender's round.  Durations are bounded at
// decode: a tuple claiming an hour-scale error, age or rtt is adversarial
// or corrupt, never a real reading, and is rejected rather than trusted.
struct ReadingGossipPacket {
  std::uint64_t round = 0;  // gossiper's round number (header tag slot)
  std::uint32_t sender_id = 0;
  std::uint32_t source_id = 0;
  std::int64_t clock_ns = 0;  // C_source as reported to the sender
  std::int64_t error_ns = 0;  // E_source as reported to the sender
  std::int64_t age_ns = 0;    // sender-clock seconds since collection
  std::int64_t rtt_ns = 0;    // sender's measured round trip to the source
};

// Client time query (serving plane).  Field-for-field the shape of the peer
// packets: the fixed sizes are what make the serving plane's zero-allocation
// batch decode/encode possible.
struct ClientTimeRequest {
  std::uint64_t tag = 0;            // echoed by the server
  std::int64_t client_send_ns = 0;  // opaque to the server, echoed back
};

struct ClientTimeReply {
  std::uint64_t tag = 0;
  std::int64_t client_send_ns = 0;
  std::uint32_t server_id = 0;
  std::int64_t clock_ns = 0;  // C_i extrapolated from the published snapshot
  std::int64_t error_ns = 0;  // E_i at the same instant
};

inline constexpr std::size_t kRequestSize = 4 + 1 + 1 + 2 + 8 + 8;       // 24
inline constexpr std::size_t kResponseSize = kRequestSize + 4 + 8 + 8 + 4; // 48
inline constexpr std::size_t kClientRequestSize = kRequestSize;    // 24
inline constexpr std::size_t kClientReplySize = kResponseSize;     // 48
inline constexpr std::size_t kGossipSize = kRequestSize + 4 + 4 + 8 * 4;  // 64

// Upper bound accepted for gossip durations (error/age/rtt): one hour in
// nanoseconds.  Honest values are milliseconds-to-seconds scale.
inline constexpr std::int64_t kMaxGossipFieldNs = 3'600'000'000'000;

using RequestBuffer = std::array<std::uint8_t, kRequestSize>;
using ResponseBuffer = std::array<std::uint8_t, kResponseSize>;
using ClientRequestBuffer = std::array<std::uint8_t, kClientRequestSize>;
using ClientReplyBuffer = std::array<std::uint8_t, kClientReplySize>;
using GossipBuffer = std::array<std::uint8_t, kGossipSize>;

RequestBuffer encode(const TimeRequestPacket& packet);
ResponseBuffer encode(const TimeResponsePacket& packet);
ClientRequestBuffer encode(const ClientTimeRequest& packet);
ClientReplyBuffer encode(const ClientTimeReply& packet);
GossipBuffer encode(const ReadingGossipPacket& packet);

// Hot-path variant: encodes straight into a caller-provided slot of
// kClientReplySize bytes (the serving plane writes into its SendBatch
// storage with no intermediate array).
// mtds:no-alloc
void encode_into(const ClientTimeReply& packet, std::uint8_t* out) noexcept;

// Decoding validates magic, version, type and size; nullopt on any mismatch.
std::optional<TimeRequestPacket> decode_request(const std::uint8_t* data,
                                                std::size_t size);
std::optional<TimeResponsePacket> decode_response(const std::uint8_t* data,
                                                  std::size_t size);
std::optional<ClientTimeRequest> decode_client_request(
    const std::uint8_t* data, std::size_t size);
std::optional<ClientTimeReply> decode_client_reply(const std::uint8_t* data,
                                                   std::size_t size);
// Additionally rejects out-of-range tuples: negative or >1h durations and
// invalid sender/source ids never reach the engine.
std::optional<ReadingGossipPacket> decode_gossip(const std::uint8_t* data,
                                                 std::size_t size);

// Seconds <-> nanoseconds helpers (saturating on overflow).
std::int64_t seconds_to_ns(double seconds) noexcept;
double ns_to_seconds(std::int64_t ns) noexcept;

}  // namespace mtds::net
