// SimRuntime: the discrete-event implementation of runtime::Runtime.
//
// A thin, allocation-free adapter over the existing simulator pieces:
// messages -> sim::Network<ServiceMessage>, timers -> sim::EventQueue,
// now() -> EventQueue::now().  It adds no behavior of its own - every
// tier-1 simulation test must pass bit-for-bit against it.
//
// Sharding lives behind this layer, not inside it.  Every simulated
// service runs on the sharded engine (sim/sharded_engine.h,
// ServiceConfig::sim_shards; one shard by default), and each server's
// SimRuntime is built over its *shard's* EventQueue and the shard-routing
// Network, so the ProtocolEngine above runs unmodified: timers fire and
// messages deliver in its shard's window, serialized exactly as the
// runtime contract requires.
#pragma once

#include "runtime/runtime.h"
#include "sim/event_queue.h"
#include "sim/network.h"

namespace mtds::runtime {

using SimServiceNetwork = sim::Network<ServiceMessage>;

// Borrows the queue and network; the enclosing service owns both and they
// must outlive the runtime.
class SimRuntime final : public Runtime {
 public:
  SimRuntime(sim::EventQueue& queue, SimServiceNetwork& network)
      : queue_(&queue), network_(&network) {}

  void open(ServerId self, Handler handler) override {
    self_ = self;
    network_->register_node(self, std::move(handler));
  }

  void close() override { network_->unregister_node(self_); }

  void send(ServerId to, const ServiceMessage& msg) override {
    network_->send(self_, to, msg);
  }

  Duration max_one_way_delay() const override {
    return network_->max_one_way_delay();
  }

  TimerId after(Duration delay, std::function<void()> cb) override {
    return queue_->after(delay, std::move(cb));
  }

  bool cancel(TimerId id) override { return queue_->cancel(id); }

  RealTime now() override { return queue_->now(); }

 private:
  sim::EventQueue* queue_;
  SimServiceNetwork* network_;
  ServerId self_ = core::kInvalidServer;
};

}  // namespace mtds::runtime
