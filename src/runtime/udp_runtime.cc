#include "runtime/udp_runtime.h"

#include <algorithm>
#include <chrono>

#include "net/protocol.h"

namespace mtds::runtime {

namespace {

// The engine-side id of an unlisted requester (a client on an ephemeral
// socket): high enough that no configured server or peer table entry
// collides.  send() maps it to the reply-to slot.
constexpr ServerId kReplyToId = 0x80000000u;

}  // namespace

double host_seconds() noexcept {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

UdpRuntime::UdpRuntime(UdpRuntimeConfig config)
    : config_(std::move(config)), socket_(config_.port) {
  for (const UdpPeer& peer : config_.peers) add_peer(peer);
}

void UdpRuntime::add_peer(const UdpPeer& peer) {
  util::MutexLock lock(state_mutex_);
  const sockaddr_in addr = net::UdpSocket::loopback(peer.port);
  addr_by_id_[peer.id] = addr;
  id_by_addr_[addr_key(addr)] = peer.id;
}

UdpRuntime::~UdpRuntime() { shutdown(); }

UdpRuntime::AddrKey UdpRuntime::addr_key(const sockaddr_in& addr) noexcept {
  return (static_cast<AddrKey>(addr.sin_addr.s_addr) << 16) |
         static_cast<AddrKey>(addr.sin_port);
}

void UdpRuntime::shutdown() {
  threads_running_.store(false);
  timer_cv_.notify_all();
  // The receive loop polls with a bounded timeout, so it observes the flag
  // within one period; join BEFORE closing the socket - closing an fd the
  // receiver is mid-recvmmsg on is a data race, not a wakeup.
  if (receiver_.joinable()) receiver_.join();
  if (timer_thread_.joinable()) timer_thread_.join();
  socket_.close();
  util::MutexLock lock(timer_mutex_);
  timer_queue_.clear();
}

void UdpRuntime::open(ServerId self, Handler handler) {
  // REQUIRES(state_mutex_): the engine calls this from inside the
  // serialization domain, so the caller already holds the lock.
  self_ = self;
  handler_ = std::move(handler);
  open_ = true;
  if (!threads_running_.exchange(true)) {
    receiver_ = std::thread([this] { receive_loop(); });
    timer_thread_ = std::thread([this] { timer_loop(); });
  }
}

void UdpRuntime::close() {
  // REQUIRES(state_mutex_), same as open().
  open_ = false;
}

std::size_t UdpRuntime::known_addresses() {
  util::MutexLock lock(state_mutex_);
  return id_by_addr_.size();
}

ServerId UdpRuntime::peer_at(const sockaddr_in& addr) const {
  const auto it = id_by_addr_.find(addr_key(addr));
  return it == id_by_addr_.end() ? core::kInvalidServer : it->second;
}

void UdpRuntime::send(ServerId to, const ServiceMessage& msg) {
  const sockaddr_in* dest = nullptr;
  if (to == kReplyToId) {
    if (reply_to_live_) dest = &reply_to_;
  } else if (const auto it = addr_by_id_.find(to); it != addr_by_id_.end()) {
    dest = &it->second;
  }
  if (dest == nullptr) return;  // unknown destination: best effort
  if (msg.type == ServiceMessage::Type::kTimeRequest) {
    net::TimeRequestPacket req;
    req.tag = msg.tag;
    req.client_send_ns = 0;
    socket_.send_to(*dest, net::encode(req));
    return;
  }
  if (msg.type == ServiceMessage::Type::kReadingGossip) {
    net::ReadingGossipPacket gossip;
    gossip.round = msg.tag;  // tag doubles as the gossip round number
    gossip.sender_id = self_;
    gossip.source_id = msg.source;
    gossip.clock_ns = net::seconds_to_ns(msg.c.seconds());
    gossip.error_ns = net::seconds_to_ns(msg.e.seconds());
    gossip.age_ns = net::seconds_to_ns(msg.age.seconds());
    gossip.rtt_ns = net::seconds_to_ns(msg.rtt.seconds());
    socket_.send_to(*dest, net::encode(gossip));
    return;
  }
  net::TimeResponsePacket resp;
  resp.tag = msg.tag;
  resp.server_id = self_;
  resp.clock_ns = net::seconds_to_ns(msg.c.seconds());
  resp.error_ns = net::seconds_to_ns(msg.e.seconds());
  socket_.send_to(*dest, net::encode(resp));
}

Duration UdpRuntime::max_one_way_delay() const {
  // The engine waits 2 * bound * 1.5 for replies; advertising window / 3
  // makes that wait exactly the configured reply window.
  return config_.reply_window / 3.0;
}

// mtds:alloc-ok(wall-clock runtime plane; timers here fire per poll period over real UDP, and the std::function it stores already allocates - the no-alloc contract covers the simulator plane)
TimerId UdpRuntime::after(Duration delay, std::function<void()> cb) {
  util::MutexLock lock(timer_mutex_);
  const double deadline =
      host_seconds() + std::max(Duration{0.0}, delay).seconds();
  const TimerId id = timer_queue_.push(
      TimerPriority{deadline, next_timer_seq_++}, std::move(cb));
  timer_cv_.notify_all();
  return id;
}

bool UdpRuntime::cancel(TimerId id) {
  util::MutexLock lock(timer_mutex_);
  return timer_queue_.cancel(id);
}

void UdpRuntime::timer_loop() {
  while (threads_running_.load()) {
    std::function<void()> cb;
    {
      util::MutexLock lock(timer_mutex_);
      const TimerPriority* next = timer_queue_.peek();
      if (next == nullptr) {
        timer_cv_.wait_for(timer_mutex_, 0.05);
        continue;
      }
      const double now = host_seconds();
      if (next->deadline > now) {
        timer_cv_.wait_for(timer_mutex_, std::min(next->deadline - now, 0.05));
        continue;
      }
      cb = timer_queue_.pop();
    }
    // timer_mutex_ is released before the callback (and before taking the
    // outer state_mutex_), preserving the state -> timer lock order.
    util::MutexLock lock(state_mutex_);
    if (open_) cb();
  }
}

void UdpRuntime::receive_loop() {
  net::RecvBatch batch;
  while (threads_running_.load()) {
    const std::size_t n = socket_.receive_batch(batch, /*timeout_ms=*/20);
    if (n == 0) {
      if (socket_.closed()) break;
      continue;
    }
    // One lock acquisition covers the whole batch: the engine sees a burst
    // of datagrams as consecutive handler calls, exactly as if they had
    // been delivered one wakeup at a time.
    util::MutexLock lock(state_mutex_);
    if (!open_ || !handler_) continue;
    for (std::size_t i = 0; i < n; ++i) {
      // A handler may stop the engine mid-batch (close() runs under this
      // same lock); the rest of the batch is then dropped like any datagram
      // arriving after close.
      if (!open_) break;
      const auto payload = batch.payload(i);
      if (const auto req = net::decode_request(payload.data(), payload.size())) {
        ServiceMessage msg;
        msg.type = ServiceMessage::Type::kTimeRequest;
        msg.from = peer_at(batch.from(i));
        msg.to = self_;
        msg.tag = req->tag;
        if (msg.from == core::kInvalidServer) {
          // An unlisted requester: the engine answers within this call.
          msg.from = kReplyToId;
          reply_to_ = batch.from(i);
          reply_to_live_ = true;
        }
        handler_(host_seconds(), msg);
        reply_to_live_ = false;
      } else if (const auto resp =
                     net::decode_response(payload.data(), payload.size())) {
        // Attribute by source address; a reply from anyone but a
        // configured peer answers no poll of ours and is dropped.
        const ServerId from = peer_at(batch.from(i));
        if (from == core::kInvalidServer) continue;
        ServiceMessage msg;
        msg.type = ServiceMessage::Type::kTimeResponse;
        msg.from = from;
        msg.to = self_;
        msg.tag = resp->tag;
        msg.c = net::ns_to_seconds(resp->clock_ns);
        msg.e = net::ns_to_seconds(resp->error_ns);
        handler_(host_seconds(), msg);
      } else if (const auto gossip =
                     net::decode_gossip(payload.data(), payload.size())) {
        // Cross-notes attribute the *sender* by source address, under the
        // same configured-peer rule as replies.
        const ServerId from = peer_at(batch.from(i));
        if (from == core::kInvalidServer) continue;
        ServiceMessage msg;
        msg.type = ServiceMessage::Type::kReadingGossip;
        msg.from = from;
        msg.to = self_;
        msg.source = gossip->source_id;
        msg.tag = gossip->round;
        msg.c = net::ns_to_seconds(gossip->clock_ns);
        msg.e = net::ns_to_seconds(gossip->error_ns);
        msg.age = net::ns_to_seconds(gossip->age_ns);
        msg.rtt = net::ns_to_seconds(gossip->rtt_ns);
        handler_(host_seconds(), msg);
      }
    }
  }
}

}  // namespace mtds::runtime
