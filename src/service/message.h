// Wire messages exchanged by simulated time servers and clients.
#pragma once

#include <cstdint>

#include "core/time_types.h"

namespace mtds::service {

using core::ClockTime;
using core::Duration;
using core::ServerId;

struct ServiceMessage {
  enum class Type : std::uint8_t {
    kTimeRequest,
    kTimeResponse,
    // Second-hand cross-note: "peer `source` told me <c, e> `age` of my
    // clock-seconds ago over a link with round trip `rtt`".  One note per
    // message keeps a message in flight inside one 64-byte record of
    // sim::Network's delivery pool (sim/network.h).
    kReadingGossip,
  };

  Type type = Type::kTimeRequest;
  ServerId from = core::kInvalidServer;
  ServerId to = core::kInvalidServer;

  // kReadingGossip only: whose reading this note relays.
  ServerId source = core::kInvalidServer;

  // Pairing tag chosen by the requester and echoed by the responder; lets
  // the requester measure its own-clock round trip xi^i_j and discard
  // replies from stale rounds.  Gossip reuses it as the gossiper's round.
  std::uint64_t tag = 0;

  // Response payload: the pair <C_j, E_j> of rule MM-1.  For gossip, the
  // pair the source claimed when the gossiper polled it.
  ClockTime c = 0.0;
  Duration e = 0.0;

  // kReadingGossip only: how long ago (by the gossiper's clock) the note
  // was collected, and the round trip the gossiper measured collecting it.
  Duration age = 0.0;
  Duration rtt = 0.0;
};

}  // namespace mtds::service
