// UdpRuntime: the real-socket implementation of runtime::Runtime.
//
// One UDP socket bound to loopback carries everything: rule MM-1 requests
// from clients, the engine's own poll requests to peers, and the replies to
// both.  A receiver thread drains a whole net::RecvBatch per wakeup
// (recvmmsg where available), decodes the datagrams (net/protocol.{h,cc})
// into ServiceMessages and delivers them to the engine handler under ONE
// state-mutex acquisition; a timer thread fires the engine's scheduled
// callbacks; now() is CLOCK_MONOTONIC.
//
// Addressing: the engine speaks ServerIds, the wire speaks ports.
//   * Configured peers (sync targets and recovery servers) are a static
//     id -> port table supplied up front.
//   * Anybody else who sends us a request (e.g. a UdpTimeClient on an
//     ephemeral socket, or an unlisted server) is presented to the engine
//     under one reserved reply-to id, and the datagram's source address is
//     held in a single reply-to slot for the duration of that handler call,
//     so the engine answers via plain Runtime::send and nothing about the
//     sender outlives the request.  A reply the engine defers (a chaos-plane
//     delay spike) finds the slot empty and is dropped, like a lost
//     datagram.
//   * Replies and cross-notes are attributed by source address and are
//     accepted only from configured peers: the engine polls nobody else,
//     and a wire id is never trusted, so an unlisted sender cannot pose
//     as a peer.
//
// Threading: both delivery threads take the state mutex around every
// handler/timer callback, giving the engine the same serialized world the
// event queue provides.  Embedders lock the same mutex for introspection.
//
// The locking contract is annotated for clang -Wthread-safety (see
// util/thread_annotations.h): state_mutex_ guards the engine-facing state,
// timer_mutex_ guards the timer queue, and the only legal nesting is
// state_mutex_ -> timer_mutex_ (the engine schedules timers from inside a
// locked callback; the timer thread never takes them in the other order).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "net/udp_socket.h"
#include "runtime/runtime.h"
#include "util/mutex.h"
#include "util/slab_heap.h"
#include "util/thread_annotations.h"

namespace mtds::runtime {

// Monotonic host time in seconds since an arbitrary process-shared epoch
// (seconds since boot on Linux): system-wide, so servers and clients in
// DIFFERENT processes share the same timeline and cross-process offsets are
// meaningful.  Doubles carry ~0.1 us precision even at months of uptime -
// far below loopback round trips.
double host_seconds() noexcept;  // lint-allow: bare-double (raw-clock boundary)

// A configured remote server: the engine-side id and its loopback port.
struct UdpPeer {
  ServerId id = core::kInvalidServer;
  std::uint16_t port = 0;
};

struct UdpRuntimeConfig {
  std::uint16_t port = 0;     // bind port; 0 = ephemeral
  Duration reply_window = 0.02;  // how long a round waits for replies; the
                                 // advertised one-way bound is window / 3 so
                                 // the engine's 2 * bound * 1.5 wait equals it
  std::vector<UdpPeer> peers;
};

class UdpRuntime final : public Runtime {
 public:
  // Binds the socket immediately (so port() is valid before open()).
  explicit UdpRuntime(UdpRuntimeConfig config);
  ~UdpRuntime() override;

  UdpRuntime(const UdpRuntime&) = delete;
  UdpRuntime& operator=(const UdpRuntime&) = delete;

  std::uint16_t port() const noexcept { return socket_.port(); }

  // Serializes engine callbacks; embedders hold it around engine calls.
  //
  // A plain (non-recursive) mutex: engine calls made under it re-enter the
  // runtime (start -> open, stop -> close, handle -> send), so those
  // re-entrant overrides are REQUIRES(state_mutex_) - they assume the
  // caller's lock instead of re-acquiring.  The annotations make clang
  // reject any path that would have needed the old recursive_mutex.
  util::Mutex& state_mutex() noexcept RETURN_CAPABILITY(state_mutex_) {
    return state_mutex_;
  }

  // Stops and joins the delivery threads.  Idempotent; called by the dtor.
  // The engine must only be destroyed after shutdown() returns.  Must not
  // be called under state_mutex_: it joins threads that take that lock.
  void shutdown() EXCLUDES(state_mutex_, timer_mutex_);

  // Registers another configured peer (id -> port).  Embedders call this
  // between construction and open() as the peer set becomes known.
  void add_peer(const UdpPeer& peer) EXCLUDES(state_mutex_);

  // Addresses in the address book (configured peers).
  // mtds:test-api(udp_test checks that requests from unlisted sources leave no entry behind)
  std::size_t known_addresses() EXCLUDES(state_mutex_);

  // Messages.  open() starts the receiver and timer threads.  All three
  // are called by the engine from inside the serialization domain, i.e.
  // with state_mutex_ already held:
  //   open  <- ProtocolEngine::start  <- UdpTimeServer::start  (locked)
  //   close <- ProtocolEngine::stop   <- UdpTimeServer::stop   (locked)
  //   send  <- engine handlers and timer callbacks dispatched by
  //            receive_loop/timer_loop, which hold the lock
  void open(ServerId self, Handler handler) override REQUIRES(state_mutex_);
  void close() override REQUIRES(state_mutex_);
  void send(ServerId to, const ServiceMessage& msg) override
      REQUIRES(state_mutex_);
  Duration max_one_way_delay() const override;

  // Timers.  Callable from engine callbacks (under state_mutex_) or not;
  // they only ever take timer_mutex_, the inner lock in the ordering.
  TimerId after(Duration delay, std::function<void()> cb) override
      EXCLUDES(timer_mutex_);
  bool cancel(TimerId id) override EXCLUDES(timer_mutex_);

  // The real-time axis.
  RealTime now() override { return host_seconds(); }

 private:
  using AddrKey = std::uint64_t;  // packed (ip, port)

  static AddrKey addr_key(const sockaddr_in& addr) noexcept;

  void receive_loop() EXCLUDES(state_mutex_);
  void timer_loop() EXCLUDES(state_mutex_, timer_mutex_);
  // The configured peer at a source address, or kInvalidServer when the
  // address is unlisted.
  ServerId peer_at(const sockaddr_in& addr) const REQUIRES(state_mutex_);

  UdpRuntimeConfig config_;
  net::UdpSocket socket_;

  util::Mutex state_mutex_;  // engine serialization domain (outer lock)
  Runtime::Handler handler_ GUARDED_BY(state_mutex_);
  ServerId self_ GUARDED_BY(state_mutex_) = core::kInvalidServer;
  bool open_ GUARDED_BY(state_mutex_) = false;

  // Address book: the configured peers only.
  std::map<ServerId, sockaddr_in> addr_by_id_ GUARDED_BY(state_mutex_);
  std::map<AddrKey, ServerId> id_by_addr_ GUARDED_BY(state_mutex_);
  // The source of the request being handled when it is not a configured
  // peer; live only inside that request's handler call.
  sockaddr_in reply_to_ GUARDED_BY(state_mutex_);
  bool reply_to_live_ GUARDED_BY(state_mutex_) = false;

  // Timer queue (never held across callbacks; inner lock in the ordering):
  // the same slab + indexed heap as the sim's EventQueue, so schedule is an
  // O(log n) sift with slot reuse and cancel() is a generation bump - the
  // SlabHeap id doubles as the TimerId.  FIFO among equal deadlines via seq.
  struct TimerPriority {
    double deadline;  // host_seconds()
    std::uint64_t seq;
    bool operator<(const TimerPriority& o) const noexcept {
      if (deadline != o.deadline) return deadline < o.deadline;
      return seq < o.seq;
    }
  };
  util::Mutex timer_mutex_ ACQUIRED_AFTER(state_mutex_);
  util::CondVar timer_cv_;
  util::SlabHeap<TimerPriority, std::function<void()>> timer_queue_
      GUARDED_BY(timer_mutex_);
  std::uint64_t next_timer_seq_ GUARDED_BY(timer_mutex_) = 0;

  // mtds:lock-free(run flag: set by start() before the threads spawn and
  // cleared by stop(); the threads only poll it to exit their loops, all
  // data they touch is published under the mutexes above)
  std::atomic<bool> threads_running_{false};
  std::thread receiver_;
  std::thread timer_thread_;
};

}  // namespace mtds::runtime
