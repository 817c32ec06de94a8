#include "service/time_service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mtds::service {

std::vector<std::vector<ServerId>> build_adjacency(
    std::size_t n, Topology topology,
    const std::vector<std::pair<ServerId, ServerId>>& custom_edges) {
  std::vector<std::vector<ServerId>> adj(n);
  auto add_edge = [&](ServerId a, ServerId b) {
    if (a == b || a >= n || b >= n) {
      throw std::invalid_argument("build_adjacency: invalid edge");
    }
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  switch (topology) {
    case Topology::kFull:
      for (ServerId i = 0; i < n; ++i) {
        for (ServerId j = i + 1; j < n; ++j) add_edge(i, j);
      }
      break;
    case Topology::kRing:
      if (n >= 2) {
        for (ServerId i = 0; i + 1 < n; ++i) add_edge(i, i + 1);
        if (n > 2) add_edge(static_cast<ServerId>(n - 1), 0);
      }
      break;
    case Topology::kStar:
      for (ServerId i = 1; i < n; ++i) add_edge(0, i);
      break;
    case Topology::kLine:
      for (ServerId i = 0; i + 1 < n; ++i) add_edge(i, i + 1);
      break;
    case Topology::kCustom:
      for (const auto& [a, b] : custom_edges) add_edge(a, b);
      break;
  }
  // Deduplicate in case custom edges repeat.
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

std::unique_ptr<core::Clock> make_clock(const ServerSpec& spec,
                                        RealTime start) {
  // The one sanctioned axis crossing: seed the clock at true time plus
  // the configured offset.
  // mtds:seconds-ok(clock genesis; a new clock's initial reading is defined to equal true time before drift accumulates)
  const core::ClockTime initial =
      core::ClockTime{start.seconds()} + spec.initial_offset;
  auto clock = std::make_unique<core::DriftingClock>(spec.simulated_drift,
                                                     initial, start);
  if (spec.fault.kind == core::ClockFaultKind::kNone) return clock;
  return std::make_unique<core::FaultyClock>(std::move(clock), spec.fault);
}

TimeService::TimeService(ServiceConfig config) : config_(std::move(config)) {
  if (config_.servers.empty()) {
    throw std::invalid_argument("TimeService: no servers configured");
  }
  // Per-shard queues / RNG streams / trace buffers, all keyed by the shard
  // count (see config.h).  Shard RNGs are settled
  // before any server forks, so the streams are stable under membership
  // changes.
  const std::uint32_t s = std::max<std::uint32_t>(1, config_.sim_shards);
  sim::Rng root(config_.seed);
  std::vector<sim::EventQueue*> queues;
  std::vector<sim::Rng*> rngs;
  std::vector<sim::Trace*> traces;
  shards_.reserve(s);
  for (std::uint32_t k = 0; k < s; ++k) {
    shards_.push_back(std::make_unique<Shard>());
    shards_[k]->rng = s == 1 ? root : root.fork();
    queues.push_back(&shards_[k]->queue);
    rngs.push_back(&shards_[k]->rng);
    traces.push_back(&shards_[k]->trace);
  }
  delay_model_ =
      sim::make_uniform_delay(config_.delay_lo, config_.delay_hi);
  network_ = std::make_unique<ServiceNetwork>(queues, *delay_model_, rngs);
  network_->set_loss_probability(config_.loss_probability);
  engine_ = std::make_unique<sim::ShardedEngine>(queues);
  engine_->set_barrier_hook([this] { network_->flush_mailboxes(); });
  trace_merger_ = std::make_unique<sim::TraceMerger>(std::move(traces));
  build();
}

sim::EventQueue& TimeService::queue_for(ServerId id) {
  return shards_[shard_of(id)]->queue;
}

sim::Trace* TimeService::trace_for(ServerId id) {
  return &shards_[shard_of(id)]->trace;
}

sim::Rng TimeService::fork_rng_for(ServerId id) {
  return shards_[shard_of(id)]->rng.fork();
}

void TimeService::make_server(ServerId id, const ServerSpec& spec) {
  runtimes_.push_back(
      std::make_unique<runtime::SimRuntime>(queue_for(id), *network_));
  servers_.push_back(std::make_unique<ProtocolEngine>(
      id, make_clock(spec, now()), spec, *runtimes_.back(), trace_for(id),
      fork_rng_for(id)));
}

void TimeService::build() {
  const std::size_t n = config_.servers.size();
  adjacency_ = build_adjacency(n, config_.topology, config_.custom_edges);
  runtimes_.reserve(n);
  servers_.reserve(n);
  for (ServerId i = 0; i < n; ++i) make_server(i, config_.servers[i]);
  for (ServerId i = 0; i < n; ++i) {
    servers_[i]->start(adjacency_[i]);
    wire_claims(i);
  }
  wire_gossip();
  if (config_.sample_interval > 0) {
    // One sampler per shard, each recording its own servers into the
    // shard's private trace (merged at run_until barriers).
    for (std::uint32_t k = 0; k < shards_.size(); ++k) {
      shards_[k]->queue.after(0.0, [this, k] { sample_shard(k); });
    }
  }
}

void TimeService::wire_claims(ServerId id) {
  // A server's rate monitor needs its neighbours' claimed bounds (a real
  // deployment would learn them from the service directory).
  if (!config_.servers[id].monitor_rates) return;
  for (ServerId j : adjacency_[id]) {
    servers_[id]->peers().set_claimed_delta(j,
                                            config_.servers[j].claimed_delta);
  }
}

void TimeService::wire_gossip() {
  // Gossip cross-notes go to every other server regardless of the polling
  // topology: they model an out-of-band channel (see config.h).  Recomputed
  // in full after membership changes - set_gossip_peers replaces the list.
  if (!config_.gossip) return;
  const auto n = static_cast<ServerId>(servers_.size());
  for (ServerId i = 0; i < n; ++i) {
    std::vector<ServerId> peers;
    peers.reserve(n - 1);
    for (ServerId j = 0; j < n; ++j) {
      if (j != i) peers.push_back(j);
    }
    servers_[i]->set_gossip_peers(peers);
  }
}

void TimeService::sample_shard(std::uint32_t shard) {
  const RealTime now = shards_[shard]->queue.now();
  for (const auto& server : servers_) {
    if (shard_of(server->id()) != shard || !server->running()) continue;
    shards_[shard]->trace.record({now, server->id(), server->read_clock(now),
                                  server->current_error(now)});
  }
  shards_[shard]->queue.after(config_.sample_interval,
                              [this, shard] { sample_shard(shard); });
}

void TimeService::reserve_trace(std::size_t samples, std::size_t events) {
  trace_.reserve(samples, events);
  for (auto& shard : shards_) shard->trace.reserve(samples, events);
}

void TimeService::run_until(RealTime t) {
  engine_->run_until(t, network_->min_one_way_delay());
  trace_merger_->merge_into(trace_);
}

ServerId TimeService::add_server(const ServerSpec& spec, bool announce) {
  const auto id = static_cast<ServerId>(servers_.size());
  config_.servers.push_back(spec);
  make_server(id, spec);
  std::vector<ServerId> neighbors;
  for (const auto& existing : servers_) {
    if (existing->id() != id && existing->running()) {
      neighbors.push_back(existing->id());
    }
  }
  adjacency_.push_back(neighbors);
  servers_.back()->start(neighbors);
  wire_claims(id);
  if (announce) {
    // Existing servers learn of the newcomer: this models the directory
    // update a real service would propagate.
    for (ServerId peer : neighbors) {
      adjacency_[peer].push_back(id);
      servers_[peer]->add_neighbor(id);
      wire_claims(peer);
    }
  }
  wire_gossip();
  return id;
}

void TimeService::crash_server(ServerId id) {
  if (id < servers_.size() && servers_[id]->running()) {
    servers_[id]->stop();
  }
}

void TimeService::restart_server(ServerId id) {
  if (id < servers_.size() && !servers_[id]->running()) {
    servers_[id]->start(adjacency_[id]);
  }
}

void TimeService::corrupt_server_state(ServerId id) {
  if (id < servers_.size() && servers_[id]->running()) {
    servers_[id]->corrupt_state();
  }
}

std::vector<Duration> TimeService::errors() {
  const RealTime now = this->now();
  std::vector<Duration> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) {
    if (s->running()) out.push_back(s->current_error(now));
  }
  return out;
}

Duration TimeService::max_asynchronism() {
  const RealTime now = this->now();
  std::vector<core::ClockTime> clocks;
  for (const auto& s : servers_) {
    if (s->running()) clocks.push_back(s->read_clock(now));
  }
  if (clocks.size() < 2) return Duration{0.0};
  const auto [lo, hi] = std::minmax_element(clocks.begin(), clocks.end());
  return *hi - *lo;
}

bool TimeService::all_correct() {
  const RealTime now = this->now();
  return std::all_of(servers_.begin(), servers_.end(), [&](const auto& s) {
    return !s->running() || s->correct(now);
  });
}

std::size_t TimeService::running_count() const {
  return static_cast<std::size_t>(
      std::count_if(servers_.begin(), servers_.end(),
                    [](const auto& s) { return s->running(); }));
}

}  // namespace mtds::service
