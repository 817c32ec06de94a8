#include "host_reference.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "bench_util.h"

namespace perfbench {

// ---- SimReference -----------------------------------------------------------

namespace {
constexpr std::size_t kNodes = 1 << 17;  // 64-byte records: 8 MB
constexpr std::size_t kPending = 4096;   // events in the heap
constexpr std::size_t kChunks = 40;
constexpr std::size_t kEventsPerChunk = 300;
}  // namespace

struct SimReference::State {
  struct Node {
    double clock, error, drift, rate;
    double acc[4];
  };
  using Event = std::pair<double, std::uint32_t>;  // (time, node)

  State() : nodes(kNodes), rng(0xBE4C0000ull) {
    for (auto& n : nodes) {
      n.clock = uniform();
      n.error = 1e-3 * uniform();
      n.drift = 1e-5 * (uniform() - 0.5);
      n.rate = 1.0 + n.drift;
      std::fill(std::begin(n.acc), std::end(n.acc), 0.0);
    }
    heap.reserve(kPending);
    for (std::size_t i = 0; i < kPending; ++i) {
      heap.emplace_back(uniform(), static_cast<std::uint32_t>(next() % kNodes));
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  }

  std::uint64_t next() { return rng = mix64(rng); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  void run_chunk() {
    const auto later = std::greater<>{};
    for (std::size_t k = 0; k < kEventsPerChunk; ++k) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const auto [t, id] = heap.back();
      heap.pop_back();
      Node& n = nodes[id];
      const double dt = t - n.clock;
      n.clock += dt * n.rate;
      n.error = std::min(n.error + dt * 1e-5, 1.0);
      n.acc[k & 3] += n.clock * n.error;
      const std::uint64_t h = next();
      heap.emplace_back(t + 1e-3 * static_cast<double>((h >> 40) & 0xFFFF) *
                                0x1.0p-16 + 1e-6,
                        static_cast<std::uint32_t>(h % kNodes));
      std::push_heap(heap.begin(), heap.end(), later);
      if ((k & 31) == 31) {
        for (auto& r : readings) r = nodes[next() % kNodes].clock;
        std::sort(readings.begin(), readings.end());
        sink += readings[readings.size() / 2];
      }
    }
  }

  std::vector<Node> nodes;
  std::vector<Event> heap;
  std::array<double, 64> readings{};
  std::uint64_t rng;
  double sink = 0;
};

SimReference::SimReference(bool hand_off)
    : state_(std::make_unique<State>()) {
  if (hand_off) worker_ = std::thread([this] { worker_loop(); });
  pass_ns();  // warms caches and branch predictors outside any measurement
}

SimReference::~SimReference() {
  if (!worker_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void SimReference::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || handed_ != done_; });
    if (stop_) return;
    lock.unlock();
    state_->run_chunk();
    lock.lock();
    ++done_;
    cv_.notify_all();
  }
}

double SimReference::resident_mb() const {
  return static_cast<double>(kNodes * sizeof(State::Node) +
                             kPending * sizeof(State::Event)) /
         (1024.0 * 1024.0);
}

std::int64_t SimReference::pass_ns() {
  const std::int64_t t0 = wall_ns();
  for (std::size_t c = 0; c < kChunks; ++c) {
    if (!worker_.joinable()) {
      state_->run_chunk();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    ++handed_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return done_ == handed_; });
  }
  return wall_ns() - t0;
}

// ---- NetReference -----------------------------------------------------------

namespace {
constexpr std::size_t kDatagrams = 32;      // per sendmmsg/recvmmsg call
constexpr std::size_t kDatagramSize = 48;   // a client request's size
constexpr int kBouncesPerPass = 48;         // each one way; a pass is 2x this

int bound_socket(sockaddr_in& addr) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("reference socket");
  addr = sockaddr_in{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("reference socket bind");
  }
  return fd;
}
}  // namespace

NetReference::NetReference() : buf_(kDatagrams * kDatagramSize, 0x5A) {
  fd_a_ = bound_socket(addr_a_);
  fd_b_ = bound_socket(addr_b_);
  pass_ns();
}

NetReference::~NetReference() {
  if (fd_a_ >= 0) ::close(fd_a_);
  if (fd_b_ >= 0) ::close(fd_b_);
}

bool NetReference::bounce(int from_fd, int to_fd, const sockaddr_in& to) {
  std::array<mmsghdr, kDatagrams> msgs{};
  std::array<iovec, kDatagrams> iov{};
  for (std::size_t i = 0; i < kDatagrams; ++i) {
    iov[i] = {buf_.data() + i * kDatagramSize, kDatagramSize};
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = const_cast<sockaddr_in*>(&to);
    msgs[i].msg_hdr.msg_namelen = sizeof to;
  }
  std::size_t sent = 0;
  while (sent < kDatagrams) {
    const int n = ::sendmmsg(from_fd, msgs.data() + sent,
                             static_cast<unsigned>(kDatagrams - sent), 0);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  for (auto& m : msgs) {
    m.msg_hdr.msg_name = nullptr;
    m.msg_hdr.msg_namelen = 0;
  }
  std::size_t got = 0;
  while (got < kDatagrams) {
    const int n = ::recvmmsg(to_fd, msgs.data() + got,
                             static_cast<unsigned>(kDatagrams - got),
                             MSG_DONTWAIT, nullptr);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    pollfd p{to_fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) return false;
  }
  return true;
}

std::int64_t NetReference::pass_ns() {
  const std::int64_t t0 = wall_ns();
  for (int i = 0; i < kBouncesPerPass; ++i) {
    if (!bounce(fd_a_, fd_b_, addr_b_) || !bounce(fd_b_, fd_a_, addr_a_)) {
      return -1;
    }
  }
  return wall_ns() - t0;
}

}  // namespace perfbench
