// Time-service client (Section 1's interaction model).
//
// "A client simply requests the time from any subset of the time servers,
// and uses the first reply" - or, with an error-aware strategy, the reply
// with the smallest maximum error (Section 3's motivation), or the
// intersection of all replies (Section 4's).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/interval.h"
#include "core/reading.h"
#include "service/message.h"
#include "sim/event_queue.h"
#include "sim/network.h"

namespace mtds::service {

enum class ClientStrategy : std::uint8_t {
  kFirstReply,     // the paper's default client
  kSmallestError,  // min E_j + xi over replies
  kIntersect       // midpoint of the intersection of reply intervals
};

struct ClientResult {
  core::ClockTime estimate = 0.0;   // best estimate of the current time
  core::Duration error = 0.0;       // bound on |estimate - true time|
  std::size_t replies = 0;          // replies used
  core::ServerId source = core::kInvalidServer;  // defining server (if one)
  bool consistent = true;           // false: reply intervals did not intersect
};

// A client node on the simulated network.  One query at a time.
class TimeClient {
 public:
  using Callback = std::function<void(const ClientResult&)>;

  // `id` must not collide with any server id; the service's servers are
  // numbered 0..n-1, so pick n or above.
  TimeClient(core::ServerId id, sim::EventQueue& queue,
             sim::Network<ServiceMessage>& network);
  ~TimeClient();

  TimeClient(const TimeClient&) = delete;
  TimeClient& operator=(const TimeClient&) = delete;

  // Queries `servers`, waits `wait` (real time - clients are passive and
  // assumed driftless here; a drifting client adds delta_c * wait to the
  // error), then invokes cb.  kFirstReply invokes cb at the first reply
  // instead of waiting.
  void query(const std::vector<core::ServerId>& servers,
             ClientStrategy strategy, core::Duration wait, Callback cb);

  // Convenience: runs the queue until the query resolves.
  ClientResult query_blocking(const std::vector<core::ServerId>& servers,
                              ClientStrategy strategy, core::Duration wait);

  // Replies collected by the most recent completed query (aged to its
  // finish time).  Useful for re-combining under a different strategy or
  // for diagnostics.
  // mtds:test-api(client_test compares strategies over the same replies, Theorem 6)
  const core::Readings& last_replies() const noexcept { return replies_; }

 private:
  void handle(core::RealTime t, const ServiceMessage& msg);
  void finish();

  core::ServerId id_;
  sim::EventQueue* queue_;
  sim::Network<ServiceMessage>* network_;

  Callback callback_;
  ClientStrategy strategy_ = ClientStrategy::kFirstReply;
  std::map<std::uint64_t, core::RealTime> pending_;  // tag -> send time
  core::Readings replies_;
  std::uint64_t next_tag_ = 1;
  std::uint64_t deadline_event_ = 0;
};

// Pure combination logic, shared with tests: derives a ClientResult from
// collected readings under the given strategy.  `first` is the reading that
// arrived first (used by kFirstReply).
ClientResult combine_replies(const core::Readings& replies,
                             ClientStrategy strategy);

}  // namespace mtds::service
