#include "net/udp_server.h"

#include "core/clock.h"
#include "sim/rng.h"

namespace mtds::net {

namespace {

// Engine-side ids for configured remotes.  Daemon ids are user-chosen small
// integers and pseudo ids (unlisted correspondents) start at 0x80000000, so
// these ranges cannot collide with either.
constexpr core::ServerId kPeerIdBase = 1'000'000;
constexpr core::ServerId kRecoveryIdBase = 2'000'000;

service::ServerSpec make_spec(const UdpServerConfig& config) {
  service::ServerSpec spec;
  spec.algo = config.algo;
  spec.claimed_delta = config.claimed_delta;
  spec.actual_drift = config.simulated_drift;
  spec.initial_error = config.initial_error;
  spec.initial_offset = config.initial_offset;
  spec.poll_period = config.poll_period;
  spec.adaptive = config.adaptive;
  spec.use_sample_filter = config.use_sample_filter;
  spec.use_broadcast = config.use_broadcast;
  spec.monitor_rates = config.monitor_rates;
  spec.health = config.health;
  spec.chaos = config.chaos;
  spec.recovery = config.recovery_ports.empty()
                      ? service::RecoveryPolicy::kIgnore
                      : service::RecoveryPolicy::kThirdServer;
  for (std::size_t j = 0; j < config.recovery_ports.size(); ++j) {
    spec.recovery_pool.push_back(kRecoveryIdBase +
                                 static_cast<core::ServerId>(j));
  }
  return spec;
}

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
  for (std::size_t j = 0; j < config_.recovery_ports.size(); ++j) {
    runtime_->add_peer({kRecoveryIdBase + static_cast<core::ServerId>(j),
                        config_.recovery_ports[j]});
  }
  auto clock = std::make_unique<core::DriftingClock>(
      config_.simulated_drift,
      core::ClockTime{host_seconds()} + config_.initial_offset,
      host_seconds());
  if (config_.chaos.active()) {
    // The injector lives in the runtime's serialization domain: every
    // delivery, timer fire and (locked) engine call already serializes
    // through the state mutex, so it needs no locking of its own.
    chaos_ = std::make_unique<runtime::FaultInjector>(
        *runtime_, *runtime_, *runtime_, config_.chaos);
  }
  engine_ = std::make_unique<service::ProtocolEngine>(
      config_.id, std::move(clock), make_spec(config_),
      runtime::Runtime{chaos_ != nullptr
                           ? static_cast<runtime::Transport*>(chaos_.get())
                           : static_cast<runtime::Transport*>(runtime_.get()),
                       runtime_.get(), runtime_.get()},
      /*observer=*/nullptr, sim::Rng(0x5DEECE66Dull + config_.id));
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
  if (running_.exchange(true) || stopped_) return;
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
  return chaos_ != nullptr ? chaos_->stats() : runtime::FaultStats{};
}

void UdpTimeServer::set_crashed(bool crashed) {
  util::MutexLock lock(state_mu_);
  if (chaos_ != nullptr) chaos_->set_crashed(crashed);
}

std::uint16_t UdpTimeServer::client_port() const noexcept {
  return serving_ != nullptr ? serving_->port() : 0;
}

std::uint64_t UdpTimeServer::client_queries_served() const noexcept {
  return serving_ != nullptr ? serving_->queries_served() : 0;
}

}  // namespace mtds::net
