#include "net/udp_socket.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace mtds::net {

RecvBatch::RecvBatch(std::size_t capacity, std::size_t datagram_size)
    : capacity_(capacity == 0 ? 1 : capacity), datagram_size_(datagram_size) {
  storage_.resize(capacity_ * datagram_size_);
  lengths_.resize(capacity_);
  froms_.resize(capacity_);
  iovecs_.resize(capacity_);
  headers_.resize(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    iovecs_[i].iov_base = storage_.data() + i * datagram_size_;
    iovecs_[i].iov_len = datagram_size_;
    mmsghdr& h = headers_[i];
    std::memset(&h, 0, sizeof(h));
    h.msg_hdr.msg_name = &froms_[i];
    h.msg_hdr.msg_namelen = sizeof(sockaddr_in);
    h.msg_hdr.msg_iov = &iovecs_[i];
    h.msg_hdr.msg_iovlen = 1;
  }
}

SendBatch::SendBatch(std::size_t capacity, std::size_t datagram_size)
    : capacity_(capacity == 0 ? 1 : capacity), datagram_size_(datagram_size) {
  storage_.resize(capacity_ * datagram_size_);
  lengths_.resize(capacity_);
  tos_.resize(capacity_);
  iovecs_.resize(capacity_);
  headers_.resize(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    iovecs_[i].iov_base = storage_.data() + i * datagram_size_;
    iovecs_[i].iov_len = 0;  // set per send from lengths_
    mmsghdr& h = headers_[i];
    std::memset(&h, 0, sizeof(h));
    h.msg_hdr.msg_name = &tos_[i];
    h.msg_hdr.msg_namelen = sizeof(sockaddr_in);
    h.msg_hdr.msg_iov = &iovecs_[i];
    h.msg_hdr.msg_iovlen = 1;
  }
}

// mtds:no-alloc
std::uint8_t* SendBatch::append(const sockaddr_in& to,
                                std::size_t len) noexcept {
  if (count_ == capacity_ || len > datagram_size_) return nullptr;
  tos_[count_] = to;
  lengths_[count_] = len;
  return storage_.data() + count_++ * datagram_size_;
}

// mtds:no-alloc
bool SendBatch::push(const sockaddr_in& to,
                     std::span<const std::uint8_t> payload) noexcept {
  std::uint8_t* slot = append(to, payload.size());
  if (slot == nullptr) return false;
  std::memcpy(slot, payload.data(), payload.size());
  return true;
}

sockaddr_in UdpSocket::loopback(std::uint16_t port) noexcept {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

UdpSocket::UdpSocket(std::uint16_t port, bool reuse_port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  if (reuse_port) {
    const int one = 1;
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error(std::string("setsockopt(SO_REUSEPORT): ") +
                               std::strerror(err));
    }
  }
  sockaddr_in addr = loopback(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(std::string("bind: ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(std::string("getsockname: ") + std::strerror(err));
  }
  port_ = ntohs(bound.sin_port);
}

UdpSocket::~UdpSocket() { close(); }

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(std::exchange(other.port_, 0)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

void UdpSocket::close() noexcept {
  if (fd_ >= 0) {
    // shutdown() wakes threads blocked in poll/recv on some kernels; the
    // receive loop also uses bounded poll timeouts as a fallback.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

bool UdpSocket::send_to(std::uint16_t port, std::span<const std::uint8_t> data) {
  return send_to(loopback(port), data);
}

bool UdpSocket::send_to(const sockaddr_in& addr,
                        std::span<const std::uint8_t> data) {
  if (fd_ < 0) return false;
  const ssize_t n =
      ::sendto(fd_, data.data(), data.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  return n == static_cast<ssize_t>(data.size());
}

// mtds:no-alloc
std::size_t UdpSocket::send_batch(SendBatch& batch) {
  if (fd_ < 0 || batch.count_ == 0) return 0;
  for (std::size_t i = 0; i < batch.count_; ++i) {
    batch.iovecs_[i].iov_len = batch.lengths_[i];
    // sendmmsg may rewrite msg_len; name/iov stay bound to the slots.
    batch.headers_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }
  std::size_t sent = 0;
  while (sent < batch.count_) {
    const int done = ::sendmmsg(fd_, batch.headers_.data() + sent,
                                static_cast<unsigned int>(batch.count_ - sent),
                                0);
    if (done <= 0) break;
    sent += static_cast<std::size_t>(done);
  }
  return sent;
}

bool UdpSocket::wait_readable(int timeout_ms) noexcept {
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  return ready > 0 && (pfd.revents & POLLIN) != 0;
}

std::optional<std::size_t> UdpSocket::receive_into(std::span<std::uint8_t> buf,
                                                   sockaddr_in* from,
                                                   int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  if (!wait_readable(timeout_ms)) return std::nullopt;
  sockaddr_in src{};
  socklen_t len = sizeof(src);
  const ssize_t n = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                               reinterpret_cast<sockaddr*>(&src), &len);
  if (n < 0) return std::nullopt;
  if (from != nullptr) *from = src;
  return static_cast<std::size_t>(n);
}

std::size_t UdpSocket::receive_batch(RecvBatch& batch, int timeout_ms) {
  batch.count_ = 0;
  if (fd_ < 0) {
    likely_more_queued_ = false;
    return 0;
  }
  // A full previous batch means the kernel queue probably still holds data;
  // skip the poll and go straight to a non-blocking drain.  A stale guess
  // costs one EWOULDBLOCK read, not a stall.
  if (!likely_more_queued_ && !wait_readable(timeout_ms)) return 0;
  // recvmmsg rewrites msg_namelen (and may set msg_flags); restore the
  // reusable headers before every call.
  for (std::size_t i = 0; i < batch.capacity_; ++i) {
    batch.headers_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }
  const int n = ::recvmmsg(fd_, batch.headers_.data(),
                           static_cast<unsigned int>(batch.capacity_),
                           MSG_DONTWAIT, nullptr);
  if (n <= 0) {
    likely_more_queued_ = false;
    return 0;
  }
  for (int i = 0; i < n; ++i) {
    batch.lengths_[i] = batch.headers_[i].msg_len;
  }
  batch.count_ = static_cast<std::size_t>(n);
  likely_more_queued_ = batch.count_ == batch.capacity_;
  return batch.count_;
}

}  // namespace mtds::net
