// RAII UDP socket bound to the loopback interface.
//
// Hot-path I/O is batched: receive_batch() drains up to a whole RecvBatch of
// datagrams per wakeup with one recvmmsg(2) syscall, and send_to_many()
// fans one payload out with sendmmsg(2).  Both degrade gracefully to the
// classic one-datagram syscalls when the vectored calls are unavailable
// (non-Linux) or disabled via set_batching_enabled(false) - the test knob
// that proves the fallback path stays correct.  RecvBatch owns reusable
// buffers, so steady-state receive allocates nothing.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#ifdef __linux__
#include <sys/socket.h>  // mmsghdr
#endif

namespace mtds::net {

struct Datagram {
  std::vector<std::uint8_t> payload;
  sockaddr_in from{};
};

// Reusable receive buffers for UdpSocket::receive_batch.  One flat storage
// block holds `capacity` slots of `datagram_size` bytes; the returned
// payload spans point into it and stay valid until the next receive_batch
// call with the same object.
class RecvBatch {
 public:
  explicit RecvBatch(std::size_t capacity = 32,
                     std::size_t datagram_size = 2048);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return count_; }

  std::span<const std::uint8_t> payload(std::size_t i) const noexcept {
    return {storage_.data() + i * datagram_size_, lengths_[i]};
  }
  const sockaddr_in& from(std::size_t i) const noexcept { return froms_[i]; }

 private:
  friend class UdpSocket;

  std::size_t capacity_;
  std::size_t datagram_size_;
  std::size_t count_ = 0;
  std::vector<std::uint8_t> storage_;   // capacity_ * datagram_size_ bytes
  std::vector<std::size_t> lengths_;
  std::vector<sockaddr_in> froms_;
#ifdef __linux__
  std::vector<iovec> iovecs_;
  std::vector<mmsghdr> headers_;
#endif
};

// Reusable send buffers for UdpSocket::send_batch: per-slot payload and
// destination (RecvBatch's twin for the reply direction, where every
// datagram differs - send_to_many covers the one-payload fan-out case).
// Fixed capacity; append() hands out slot storage so hot paths encode
// replies in place and steady-state sending allocates nothing.
class SendBatch {
 public:
  explicit SendBatch(std::size_t capacity = 32,
                     std::size_t datagram_size = 2048);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return count_; }
  bool full() const noexcept { return count_ == capacity_; }
  // mtds:no-alloc
  void clear() noexcept { count_ = 0; }

  // Claims the next slot for `len` bytes to `to`; returns the slot's
  // storage to encode into, or nullptr when full / oversized.
  // mtds:no-alloc
  std::uint8_t* append(const sockaddr_in& to, std::size_t len) noexcept;

  // Copying convenience over append() for pre-encoded payloads.
  // mtds:no-alloc
  bool push(const sockaddr_in& to,
            std::span<const std::uint8_t> payload) noexcept;

  std::span<const std::uint8_t> payload(std::size_t i) const noexcept {
    return {storage_.data() + i * datagram_size_, lengths_[i]};
  }
  const sockaddr_in& to(std::size_t i) const noexcept { return tos_[i]; }

 private:
  friend class UdpSocket;

  std::size_t capacity_;
  std::size_t datagram_size_;
  std::size_t count_ = 0;
  std::vector<std::uint8_t> storage_;  // capacity_ * datagram_size_ bytes
  std::vector<std::size_t> lengths_;
  std::vector<sockaddr_in> tos_;
#ifdef __linux__
  std::vector<iovec> iovecs_;
  std::vector<mmsghdr> headers_;
#endif
};

class UdpSocket {
 public:
  // Binds to 127.0.0.1:port; port 0 picks an ephemeral port.  Throws
  // std::runtime_error on failure.  With reuse_port the socket sets
  // SO_REUSEPORT before binding, so N sockets can share one port and the
  // kernel spreads inbound datagrams across them (the serving plane's
  // receive-side scaling; every sharing socket must set the flag).
  explicit UdpSocket(std::uint16_t port = 0, bool reuse_port = false);
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  // Sends to 127.0.0.1:port.  Returns false on send failure.
  bool send_to(std::uint16_t port, std::span<const std::uint8_t> data);
  bool send_to(const sockaddr_in& addr, std::span<const std::uint8_t> data);

  // Sends the same payload to every address - one sendmmsg where available,
  // a send_to loop otherwise.  Returns the number reported sent.
  std::size_t send_to_many(std::span<const sockaddr_in> addrs,
                           std::span<const std::uint8_t> data);

  // Sends every queued (payload, destination) pair in `batch` - one
  // sendmmsg where available, a send_to loop otherwise.  Returns the number
  // reported sent; does not clear the batch.
  std::size_t send_batch(SendBatch& batch);

  // Blocks up to timeout_ms (0 = poll without blocking, negative = block
  // indefinitely); nullopt on timeout.  Allocates a payload per call -
  // prefer receive_into / receive_batch on hot paths.
  std::optional<Datagram> receive(int timeout_ms);

  // Caller-owned-buffer receive: waits like receive(), reads one datagram
  // into `buf`, fills `*from` when non-null.  Returns the datagram length
  // (possibly truncated to buf.size()), or nullopt on timeout/closure.
  std::optional<std::size_t> receive_into(std::span<std::uint8_t> buf,
                                          sockaddr_in* from, int timeout_ms);

  // Drains up to batch.capacity() ready datagrams into `batch`; returns the
  // count (0 on timeout or closure).  When the previous call filled the
  // batch completely, the kernel queue is likely still non-empty and the
  // initial poll() is skipped - the drain goes straight to a non-blocking
  // read.
  std::size_t receive_batch(RecvBatch& batch, int timeout_ms);

  // Unblocks pending receive() calls from another thread.
  void close() noexcept;
  bool closed() const noexcept { return fd_ < 0; }

  static sockaddr_in loopback(std::uint16_t port) noexcept;

  // Process-wide switch forcing the single-datagram fallback syscalls even
  // where recvmmsg/sendmmsg exist; runtime_parity_test runs its scenarios
  // both ways.
  static void set_batching_enabled(bool enabled) noexcept;
  static bool batching_enabled() noexcept;

 private:
  bool wait_readable(int timeout_ms) noexcept;

  int fd_ = -1;
  std::uint16_t port_ = 0;
  // Set when the last receive_batch filled its batch; cleared by any short
  // or empty read.  Only touched by the receiving thread.
  bool likely_more_queued_ = false;
};

}  // namespace mtds::net
