// Host-speed references: fixed pieces of work that belong to the benchmark,
// not to the program, timed between the workload's measured steps.
//
// On a shared VM the whole guest runs faster or slower for minutes at a
// time, and a run's timings move with it (see README.md, "Noise").  A
// reference pass does the same work in every run and every commit, so its
// wall time measures the host alone.  The workloads report their timings
// scaled by kNominalPassNs / (reference pass time at that moment), which is
// what they would have read on a host where one pass takes kNominalPassNs.
// Nothing in the reference calls into the mtds libraries, so no change to
// the program can move it.
#pragma once

#include <netinet/in.h>

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

// Host-speed scale factor for one timing: nominal / measured pass time.
inline double host_scale(double pass_ns, double nominal_ns) {
  return pass_ns > 0 ? nominal_ns / pass_ns : 0;
}

// A small discrete-event simulation in plain C++: a binary heap of timed
// events over an 8 MB table of node records (random accesses that miss L2),
// floating-point clock updates, and a sort of 64 readings every 32 events.
// That is the mix a simulated round spends its time on.
//
// With `hand_off`, a pass runs as 40 chunks of about 100 us on a worker
// thread, and the calling thread hands each chunk over and waits for it on
// a condition variable: the rhythm of the sharded engine's epoch windows,
// whose cross-CPU wake-ups slow down with the host's other tenants more
// than plain computation does.  Without it, the pass runs on the caller.
class SimReference {
 public:
  static constexpr double kNominalPassNs = 4e6;

  explicit SimReference(bool hand_off);
  ~SimReference();
  SimReference(const SimReference&) = delete;
  SimReference& operator=(const SimReference&) = delete;

  // Runs one pass and returns its wall time in nanoseconds.
  std::int64_t pass_ns();

  // Memory the reference keeps resident (all of it is touched at
  // construction), so a workload can leave it out of its memory figures.
  double resident_mb() const;

 private:
  struct State;
  void worker_loop();

  std::unique_ptr<State> state_;
  std::thread worker_;  // only with hand_off
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t handed_ = 0;  // chunks handed to the worker
  std::uint64_t done_ = 0;    // chunks it has finished
  bool stop_ = false;
};

// Loopback UDP ping-pong between two sockets of its own: batches of 32
// datagrams of a client request's size, sent with sendmmsg(2) and drained
// with recvmmsg(2) in both directions.  That is the kernel work a serving
// plane's reply costs.
class NetReference {
 public:
  static constexpr double kNominalPassNs = 4e6;

  NetReference();
  ~NetReference();
  NetReference(const NetReference&) = delete;
  NetReference& operator=(const NetReference&) = delete;

  // Runs one pass and returns its wall time in nanoseconds, or -1 if a
  // datagram went missing (loopback does not drop on an idle socket pair).
  std::int64_t pass_ns();

 private:
  // Sends one batch from `from_fd` to `to` and drains it from `to_fd`.
  bool bounce(int from_fd, int to_fd, const sockaddr_in& to);

  int fd_a_ = -1;
  int fd_b_ = -1;
  sockaddr_in addr_a_{}, addr_b_{};
  std::vector<unsigned char> buf_;
};

}  // namespace perfbench
