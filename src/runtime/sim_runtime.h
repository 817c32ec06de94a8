// SimRuntime: the discrete-event implementation of the runtime interfaces.
//
// Thin, allocation-free adapters over the existing simulator pieces:
// Transport -> sim::Network<ServiceMessage>, Timers -> sim::EventQueue,
// WallSource -> EventQueue::now().  The adapters add no behavior of their
// own - every tier-1 simulation test must pass bit-for-bit against them.
//
// Threading: the num_threads knob lives behind this layer, not inside it.
// Every simulated service runs on the sharded engine (sim/sharded_engine.h,
// ServiceConfig::sim_shards / sim_threads; one shard by default), and each
// server's SimRuntime is built over its *shard's* EventQueue and the
// shard-routing Network, so the ProtocolEngine above runs unmodified:
// timers fire and messages deliver on the shard's thread, serialized
// exactly as the runtime contract requires, whatever the thread count.
#pragma once

#include "runtime/runtime.h"
#include "sim/event_queue.h"
#include "sim/network.h"

namespace mtds::runtime {

using SimServiceNetwork = sim::Network<ServiceMessage>;

class SimTransport final : public Transport {
 public:
  explicit SimTransport(SimServiceNetwork& network) : network_(&network) {}

  void open(ServerId self, Handler handler) override {
    self_ = self;
    network_->register_node(self, std::move(handler));
  }

  void close() override { network_->unregister_node(self_); }

  void send(ServerId to, const ServiceMessage& msg) override {
    network_->send(self_, to, msg);
  }

  std::size_t broadcast(const std::vector<ServerId>& targets,
                        const ServiceMessage& msg) override {
    return network_->broadcast(self_, targets, msg);
  }

  Duration max_one_way_delay() const override {
    return network_->max_one_way_delay();
  }

 private:
  SimServiceNetwork* network_;
  ServerId self_ = core::kInvalidServer;
};

class SimTimers final : public Timers {
 public:
  explicit SimTimers(sim::EventQueue& queue) : queue_(&queue) {}

  TimerId after(Duration delay, std::function<void()> cb) override {
    return queue_->after(delay, std::move(cb));
  }

  bool cancel(TimerId id) override { return queue_->cancel(id); }

 private:
  sim::EventQueue* queue_;
};

class SimWallSource final : public WallSource {
 public:
  explicit SimWallSource(const sim::EventQueue& queue) : queue_(&queue) {}
  RealTime now() override { return queue_->now(); }

 private:
  const sim::EventQueue* queue_;
};

// Bundles the three adapters over a borrowed queue + network (the enclosing
// service owns both and must outlive the runtime).
class SimRuntime {
 public:
  SimRuntime(sim::EventQueue& queue, SimServiceNetwork& network)
      : transport_(network), timers_(queue), wall_(queue) {}

  Runtime runtime() noexcept { return {&transport_, &timers_, &wall_}; }

  SimTransport& transport() noexcept { return transport_; }
  SimTimers& timers() noexcept { return timers_; }
  SimWallSource& wall() noexcept { return wall_; }

 private:
  SimTransport transport_;
  SimTimers timers_;
  SimWallSource wall_;
};

}  // namespace mtds::runtime
