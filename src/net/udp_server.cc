#include "net/udp_server.h"

#include "sim/rng.h"

namespace mtds::net {

namespace {

// Engine-side ids for configured remotes.  Daemon ids are user-chosen small
// integers and the runtime's reply-to id (unlisted requesters) is
// 0x80000000, so these ranges cannot collide with either.
constexpr core::ServerId kPeerIdBase = 1'000'000;
constexpr core::ServerId kRecoveryIdBase = 2'000'000;

std::unique_ptr<runtime::UdpRuntime> make_runtime(
    const UdpServerConfig& config) {
  runtime::UdpRuntimeConfig rt;
  rt.port = config.port;
  rt.reply_window = config.reply_timeout;
  return std::make_unique<runtime::UdpRuntime>(rt);
}

}  // namespace

UdpTimeServer::UdpTimeServer(UdpServerConfig config)
    : config_(std::move(config)),
      runtime_(make_runtime(config_)),
      state_mu_(runtime_->state_mutex()) {
  config_.recovery = config_.recovery_ports.empty()
                        ? service::RecoveryPolicy::kIgnore
                        : service::RecoveryPolicy::kThirdServer;
  config_.recovery_pool.clear();
  for (std::size_t j = 0; j < config_.recovery_ports.size(); ++j) {
    const core::ServerId id = kRecoveryIdBase + static_cast<core::ServerId>(j);
    config_.recovery_pool.push_back(id);
    runtime_->add_peer({id, config_.recovery_ports[j]});
  }
  // With config.chaos active the engine wraps the runtime in its own
  // injector, which lives in the runtime's serialization domain: every
  // delivery, timer fire and (locked) engine call already serializes
  // through the state mutex, so it needs no locking of its own.
  engine_ = std::make_unique<service::ProtocolEngine>(
      config_.id, service::make_clock(config_, host_seconds()), config_,
      *runtime_, /*trace=*/nullptr, sim::Rng(0x5DEECE66Dull + config_.id));
  if (config_.client_threads > 0) {
    ServingPlaneConfig sp;
    sp.port = config_.client_port;
    sp.threads = config_.client_threads;
    sp.batch = config_.client_batch;
    serving_ = std::make_unique<ServingPlane>(sp);
    // Engine -> plane snapshot seam; every publication happens inside the
    // runtime's serialization domain, so the plane's seqlock sees a single
    // writer.
    engine_->set_snapshot_sink(serving_.get());
  }
}

UdpTimeServer::~UdpTimeServer() { stop(); }

void UdpTimeServer::set_peers(std::vector<std::uint16_t> peers) {
  peer_ports_ = std::move(peers);
}

void UdpTimeServer::start() {
  if (stopped_ || running_.exchange(true)) return;
  std::vector<core::ServerId> neighbors;
  if (config_.poll_period > 0) {
    for (std::size_t k = 0; k < peer_ports_.size(); ++k) {
      const auto id = kPeerIdBase + static_cast<core::ServerId>(k);
      runtime_->add_peer({id, peer_ports_[k]});
      neighbors.push_back(id);
    }
  }
  {
    util::MutexLock lock(state_mu_);
    engine_->start(neighbors);  // publishes the first snapshot
  }
  if (serving_ != nullptr) serving_->start();
}

void UdpTimeServer::stop() {
  if (!running_.exchange(false)) return;
  stopped_ = true;
  if (serving_ != nullptr) serving_->stop();
  {
    util::MutexLock lock(state_mu_);
    engine_->stop();
  }
  runtime_->shutdown();
}

core::ClockTime UdpTimeServer::read_clock() const {
  util::MutexLock lock(state_mu_);
  return engine_->read_clock(host_seconds());
}

core::Duration UdpTimeServer::current_error() const {
  util::MutexLock lock(state_mu_);
  return engine_->current_error(host_seconds());
}

core::Offset UdpTimeServer::true_offset() const {
  util::MutexLock lock(state_mu_);
  return engine_->true_offset(host_seconds());
}

core::Duration UdpTimeServer::poll_period() const {
  util::MutexLock lock(state_mu_);
  return engine_->current_poll_period();
}

service::ServerCounters UdpTimeServer::counters() const {
  util::MutexLock lock(state_mu_);
  return engine_->counters();
}

core::ServerId UdpTimeServer::peer_engine_id(std::size_t k) noexcept {
  return kPeerIdBase + static_cast<core::ServerId>(k);
}

service::PeerState UdpTimeServer::peer_state(core::ServerId peer) const {
  util::MutexLock lock(state_mu_);
  return engine_->peer_state(peer);
}

bool UdpTimeServer::degraded() const {
  util::MutexLock lock(state_mu_);
  return engine_->degraded();
}

runtime::FaultStats UdpTimeServer::fault_stats() const {
  util::MutexLock lock(state_mu_);
  const runtime::FaultInjector* chaos = engine_->fault_injector();
  return chaos != nullptr ? chaos->stats() : runtime::FaultStats{};
}

void UdpTimeServer::set_crashed(bool crashed) {
  util::MutexLock lock(state_mu_);
  runtime::FaultInjector* chaos = engine_->fault_injector();
  if (chaos != nullptr) chaos->set_crashed(crashed);
}

std::uint16_t UdpTimeServer::client_port() const noexcept {
  return serving_ != nullptr ? serving_->port() : 0;
}

std::uint64_t UdpTimeServer::client_queries_served() const noexcept {
  return serving_ != nullptr ? serving_->queries_served() : 0;
}

}  // namespace mtds::net
