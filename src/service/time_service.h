// TimeService: builds and runs a whole simulated service from a config.
//
// Owns the shards (event queue, RNG stream, trace buffer each), the
// sharded engine that runs them, the delay model, network, merged trace and
// every server - a ProtocolEngine over its own runtime::SimRuntime, which
// records its lifecycle events into its shard's trace; provides
// service-wide observations (offsets, errors, asynchronism) used by the
// invariant checkers and the benches.
#pragma once

#include <memory>
#include <vector>

#include "runtime/sim_runtime.h"
#include "service/config.h"
#include "service/protocol_engine.h"
#include "sim/delay_model.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "sim/sharded_engine.h"
#include "sim/trace.h"

namespace mtds::service {

using ServiceNetwork = runtime::SimServiceNetwork;

class TimeService {
 public:
  explicit TimeService(ServiceConfig config);

  // Advances the simulation to absolute real time t (monotone).
  void run_until(RealTime t);

  std::size_t size() const noexcept { return servers_.size(); }
  ProtocolEngine& server(std::size_t i) { return *servers_.at(i); }
  const ProtocolEngine& server(std::size_t i) const { return *servers_.at(i); }

  // Shard 0's clock: the event time inside a run, the run_until target
  // between runs (the engine aligns every shard clock at its end).
  RealTime now() const noexcept { return shards_[0]->queue.now(); }
  // Shard 0's queue: with one shard (the default) it holds every event;
  // clients and tests may schedule on it and drive it directly.
  sim::EventQueue& queue() noexcept { return shards_[0]->queue; }
  ServiceNetwork& network() noexcept { return *network_; }
  sim::Trace& trace() noexcept { return trace_; }
  const sim::Trace& trace() const noexcept { return trace_; }

  // Pre-sizes every trace buffer (the merged service trace and each shard's
  // private buffer) so steady-state recording never reallocates.  Used by
  // the zero-allocation test and the benches.
  void reserve_trace(std::size_t samples, std::size_t events);

  sim::ShardedEngine* sharded_engine() noexcept { return engine_.get(); }

  // The round-trip delay bound xi implied by the configured delay model.
  Duration xi() const noexcept { return 2.0 * network_->max_one_way_delay(); }

  // Dynamic membership ("time servers can frequently join or leave").
  // Returns the new server's id.  The new server polls every existing
  // running server; existing full-topology services will not learn about it
  // automatically unless `announce` is set, which appends it to every
  // running server's neighbour list.
  ServerId add_server(const ServerSpec& spec, bool announce = true);

  // Crash-stop a server (it silently stops answering; peers keep polling
  // the corpse and must discover the death themselves) and later restart
  // it in place with its original neighbour list.  Leaving the service is
  // a crash-stop in this model: neighbours are never told.
  void crash_server(ServerId id);
  void restart_server(ServerId id);

  // Corrupt-state fault: scrambles server `id`'s volatile sync state (clock
  // estimate, error tracker, peer memories).  Routed through the server's
  // chaos plane when one is armed so the fault shows up in its ledger.
  void corrupt_server_state(ServerId id);

  // Service-wide instantaneous observations at now().
  std::vector<Duration> errors();       // E_i per running server
  Duration max_asynchronism();          // max |C_i - C_j| over running pairs
  // mtds:test-api(the correctness oracle that service-level tests assert)
  bool all_correct();                  // every running interval contains t
  std::size_t running_count() const;

 private:
  void build();
  void wire_claims(ServerId id);
  void wire_gossip();
  void sample_shard(std::uint32_t shard);
  // Appends server `id` (== size()) and its runtime; does not start it.
  void make_server(ServerId id, const ServerSpec& spec);

  // The shard (queue, RNG, trace) a server id maps to.
  std::uint32_t shard_of(ServerId id) const noexcept {
    return network_->shard_of(id);
  }
  sim::EventQueue& queue_for(ServerId id);
  sim::Trace* trace_for(ServerId id);
  sim::Rng fork_rng_for(ServerId id);

  ServiceConfig config_;

  // Each shard owns an event queue, an RNG stream and a private trace
  // buffer merged into trace_ at run_until barriers.  With one shard its
  // RNG is the root stream itself; with more, each forks from the root in
  // shard order.  Declared BEFORE servers_: a dying server still records
  // its leave event into its shard's trace and unregisters from the
  // network, so both must outlive the servers.
  struct Shard {
    sim::EventQueue queue;
    sim::Rng rng{0};
    sim::Trace trace;
  };
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<sim::DelayModel> delay_model_;
  std::unique_ptr<ServiceNetwork> network_;
  sim::Trace trace_;
  std::unique_ptr<sim::ShardedEngine> engine_;
  std::unique_ptr<sim::TraceMerger> trace_merger_;

  // runtimes_[i] is server i's SimRuntime; declared before servers_ so
  // each runtime outlives its engine's final stop().
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes_;
  std::vector<std::unique_ptr<ProtocolEngine>> servers_;
  std::vector<std::vector<ServerId>> adjacency_;
};

}  // namespace mtds::service
