// Runtime abstraction: the one interface a ProtocolEngine needs from its
// host environment.
//
// The paper's synchronization rules (MM-1/MM-2, IM-1/IM-2) are pure protocol
// logic: send a request, pair the reply by tag, evaluate a synchronization
// function, maybe reset the clock, schedule the next round.  Nothing in
// them cares whether "send" is a simulated event or a UDP datagram, or
// whether "in 10 seconds" is an event-queue entry or a timer thread.  This
// interface captures exactly that seam - messages, timers and the
// real-time axis - so one engine runs unchanged over
//
//   SimRuntime    - sim::EventQueue + sim::Network (discrete-event, single
//                   threaded, deterministic; see sim_runtime.h), and
//   UdpRuntime    - net::UdpSocket + a timer thread over CLOCK_MONOTONIC
//                   (real sockets, real elapsed time; see udp_runtime.h),
//
// and a decorator can wrap either once: FaultInjector (fault_injector.h)
// runs the message plane through its chaos gauntlet and forwards the rest.
//
// Threading contract: the runtime serializes every callback it delivers
// (inbound messages and timer fires) with respect to each other.  The sim
// gets this for free from the event loop; the UDP runtime provides a state
// mutex that its delivery threads hold around callbacks and that embedders
// lock for introspection.  Engine code therefore never locks.
#pragma once

#include <cstdint>
#include <functional>

#include "core/time_types.h"
#include "service/message.h"

namespace mtds::runtime {

using core::Duration;
using core::RealTime;
using core::ServerId;
using service::ServiceMessage;

using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = ~TimerId{0};

class Runtime {
 public:
  using Handler = std::function<void(RealTime, const ServiceMessage&)>;

  virtual ~Runtime() = default;

  // --- Messages: ServiceMessages to peers addressed by ServerId. ---

  // Attaches the engine: messages addressed to `self` flow into `handler`
  // until close().  A UDP runtime starts its delivery threads here.
  virtual void open(ServerId self, Handler handler) = 0;

  // Detaches the handler; further inbound messages are dropped.  Idempotent.
  virtual void close() = 0;

  // Sends one message to `to`.  Best effort: loss, partitions and unknown
  // destinations are silent (the protocol tolerates lost replies by design).
  // This is the only send: a round's poll of its neighbours (the paper's
  // directed broadcast) is one send per target, each with its own tag.
  virtual void send(ServerId to, const ServiceMessage& msg) = 0;

  // Largest one-way delay the runtime can produce; the engine sizes its
  // reply-collection window as 2x this bound (the round-trip bound xi).
  virtual Duration max_one_way_delay() const = 0;

  // --- Timers: run a callback after a real-time delay. ---

  // Schedules `cb` after `delay` (>= 0) seconds of real time; the engine
  // converts own-clock delays through its clock's rate before calling this.
  virtual TimerId after(Duration delay, std::function<void()> cb) = 0;

  // Cancels a pending timer; false if it already fired or was cancelled.
  virtual bool cancel(TimerId id) = 0;

  // --- The real-time axis. ---

  // In the simulator this is ground truth; over UDP it is CLOCK_MONOTONIC,
  // which the engine only ever feeds back into its own Clock/tracker (a
  // deployed server never observes true time, exactly as the paper
  // requires).
  virtual RealTime now() = 0;
};

}  // namespace mtds::runtime
