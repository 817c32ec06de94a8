// Simulated message network.
//
// Delivers typed messages between nodes through the event queue with delays
// drawn from a DelayModel.  Supports per-link delay overrides, message loss,
// and partitions - enough to model "communication failures" (Section 1) and
// the multi-network recovery experiment of Section 3.
//
// Messages to unregistered nodes are counted and dropped (a server that left
// the service simply stops answering).
//
// Hot-path layout: the simulator addresses nodes with small dense ServerIds
// (0..n-1, joins appended), so the handler table is a plain vector indexed
// by id - no per-message map walk.  Partitions and per-link delay overrides
// are sorted flat vectors of packed (a, b) keys: mutations (scenario
// actions) pay an O(n) insert, the per-send lookups a cache-friendly binary
// search.  A message in flight is a plain record {to, msg} in its receiver
// shard's parcel pool; the shard's EventQueue keeps only its (time, seq,
// slot) key and hands the slot back at arrival time, so no closure is
// built per message and a warmed pool allocates nothing.  The queue files
// keys in a calendar ring spanning the default model's max_delay(), which
// the network hands it with the sink; a slot has one delivery pending at
// a time, since the ring threads its bucket lists through the slots.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>
#include <utility>

#include "core/time_types.h"
#include "sim/delay_model.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace mtds::sim {

using core::ServerId;

// Accounting invariants (asserted by network_test):
//   * every send() attempt increments `sent`, whether or not it survives;
//   * a sent copy is either dropped at send time (loss / partition), dropped
//     at delivery time (no handler), or delivered - so once the queue
//     drains, sent == delivered + dropped_loss + dropped_partition +
//     dropped_no_handler.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_loss = 0;       // random loss
  std::uint64_t dropped_partition = 0;  // blocked link
  std::uint64_t dropped_no_handler = 0; // receiver not registered
};

template <typename Msg>
class Network {
 public:
  using Handler = std::function<void(RealTime, const Msg&)>;

  // The network borrows the shard queues, delay model and shard RNGs; the
  // service owns them and they must outlive the network.
  //
  // Servers are split across S shards (id % S).  The sender's shard
  // supplies the RNG stream for loss and delay draws; a same-shard message
  // is scheduled directly on the receiver's queue, a cross-shard one is
  // appended to the (sender, receiver) mailbox and moved onto the
  // receiver's queue by flush_mailboxes() at the next epoch barrier
  // (sharded_engine.h), so no window sees an arrival from another shard's
  // window.
  //
  // Determinism: shard RNG streams, mailbox indices and the flush order
  // (receiver-major, then sender, each in push order) are all functions of
  // the shard count alone.
  Network(std::vector<EventQueue*> shard_queues, const DelayModel& delays,
          std::vector<Rng*> shard_rngs)
      : num_shards_(static_cast<std::uint32_t>(shard_queues.size())),
        queues_(std::move(shard_queues)),
        rngs_(std::move(shard_rngs)),
        delays_(&delays),
        pools_(num_shards_),
        // Same-shard sends bypass the mailboxes, so the diagonal stays empty.
        mailboxes_(static_cast<std::size_t>(num_shards_) * num_shards_) {
    for (std::uint32_t k = 0; k < num_shards_; ++k) {
      pools_[k].net = this;
      pools_[k].shard = k;
      queues_[k]->set_delivery_sink(&pools_[k], &Network::deliver_thunk,
                                    delays.max_delay());
    }
  }

  // One shard: every message goes straight onto `queue`.
  Network(EventQueue& queue, const DelayModel& delays, Rng& rng)
      : Network(std::vector<EventQueue*>{&queue}, delays,
                std::vector<Rng*>{&rng}) {}

  // The queues hold pointers to the pools.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // The branch spares the one-shard default an integer division on every
  // send and delivery.
  std::uint32_t shard_of(ServerId id) const noexcept {
    return num_shards_ == 1 ? 0 : id % num_shards_;
  }

  // Epoch-barrier drain: moves every mailboxed record onto its receiver
  // shard's queue.  Called between windows, never from inside one.
  // mtds:no-alloc
  void flush_mailboxes() {
    for (std::uint32_t dst = 0; dst < num_shards_; ++dst) {
      for (std::uint32_t src = 0; src < num_shards_; ++src) {
        std::vector<InFlight>& box = mailboxes_[src * num_shards_ + dst];
        for (InFlight& item : box) {
          schedule(dst, item.t, item.to, std::move(item.msg));
        }
        box.clear();  // keeps its capacity for the next window
      }
    }
  }

  void register_node(ServerId id, Handler handler) {
    if (id >= handlers_.size()) handlers_.resize(id + 1);
    handlers_[id] = std::move(handler);
  }

  void unregister_node(ServerId id) {
    if (id < handlers_.size()) handlers_[id] = nullptr;
  }

  // Loses each message independently with probability p.
  void set_loss_probability(double p) { loss_probability_ = p; }

  // Blocks / unblocks both directions between a and b.
  void set_partitioned(ServerId a, ServerId b, bool blocked) {
    const LinkKey key = undirected_key(a, b);
    const auto it =
        std::lower_bound(partitions_.begin(), partitions_.end(), key);
    const bool present = it != partitions_.end() && *it == key;
    if (blocked && !present) {
      partitions_.insert(it, key);
    } else if (!blocked && present) {
      partitions_.erase(it);
    }
  }

  bool is_partitioned(ServerId a, ServerId b) const {
    return std::binary_search(partitions_.begin(), partitions_.end(),
                              undirected_key(a, b));
  }

  // Overrides the delay model for one directed link.
  // mtds:test-api(network tests build asymmetric and bursty links with it)
  void set_link_delay(ServerId from, ServerId to, const DelayModel* model) {
    const LinkKey key = directed_key(from, to);
    const auto it = std::lower_bound(
        link_delays_.begin(), link_delays_.end(), key,
        [](const auto& entry, LinkKey k) { return entry.first < k; });
    const bool present = it != link_delays_.end() && it->first == key;
    if (model == nullptr) {
      if (present) link_delays_.erase(it);
    } else if (present) {
      it->second = model;
    } else {
      link_delays_.insert(it, {key, model});
    }
  }

  // Sends msg from -> to.  Returns the sampled delay, or nullopt when the
  // message was dropped (loss, partition, or missing receiver at send time).
  std::optional<Duration> send(ServerId from, ServerId to, Msg msg) {
    const std::uint32_t src = shard_of(from);
    ++stats_.sent;
    if (is_partitioned(from, to)) {
      ++stats_.dropped_partition;
      return std::nullopt;
    }
    Rng& rng = *rngs_[src];
    if (loss_probability_ > 0 && rng.bernoulli(loss_probability_)) {
      ++stats_.dropped_loss;
      return std::nullopt;
    }
    const Duration delay = pick_model(from, to)->sample(rng);
    EventQueue* sq = queues_[src];
    const RealTime arrival = sq->now() + delay;
    const std::uint32_t dst = shard_of(to);
    if (dst == src) {
      schedule(dst, arrival, to, std::move(msg));
    } else {
      // mtds:alloc-ok(mailbox append; grows only while a window outruns every earlier one, and clear() keeps the capacity across drains)
      mailboxes_[src * num_shards_ + dst].push_back(
          InFlight{arrival, to, std::move(msg)});
    }
    return delay;
  }

  // Largest one-way delay the default model can produce; services use
  // 2 * max_one_way_delay() as their round-trip bound xi.
  Duration max_one_way_delay() const noexcept { return delays_->max_delay(); }

  // Smallest one-way delay any link (default model or per-link override) can
  // produce: the sharded engine's sound conservative lookahead.
  Duration min_one_way_delay() const noexcept {
    Duration lo = delays_->min_delay();
    for (const auto& entry : link_delays_) {
      const Duration m = entry.second->min_delay();
      if (m < lo) lo = m;
    }
    return lo;
  }

  const NetworkStats& stats() const noexcept { return stats_; }

 private:
  using LinkKey = std::uint64_t;  // packed (ServerId, ServerId)

  static LinkKey undirected_key(ServerId a, ServerId b) noexcept {
    if (a > b) std::swap(a, b);
    return (static_cast<LinkKey>(a) << 32) | b;
  }

  static LinkKey directed_key(ServerId from, ServerId to) noexcept {
    return (static_cast<LinkKey>(from) << 32) | to;
  }

  const DelayModel* pick_model(ServerId from, ServerId to) const noexcept {
    if (!link_delays_.empty()) {
      const LinkKey key = directed_key(from, to);
      const auto it = std::lower_bound(
          link_delays_.begin(), link_delays_.end(), key,
          [](const auto& entry, LinkKey k) { return entry.first < k; });
      if (it != link_delays_.end() && it->first == key) return it->second;
    }
    return delays_;
  }

  // A message in flight on its receiver's shard; a ServiceMessage parcel
  // fills exactly one cache line.
  struct alignas(64) Parcel {
    ServerId to = 0;
    Msg msg{};
  };

  // One shard's parcel pool, indexed by the slots its queue hands back.
  // Its shard's same-shard sends fill it, and so does the mailbox flush.
  struct Pool {
    Network* net = nullptr;
    std::uint32_t shard = 0;
    std::vector<Parcel> parcels;
    std::vector<std::uint32_t> free;  // released slots, reused first
  };

  // Parks a record in shard `dst`'s pool and keys its arrival at `t` on
  // the shard's queue.
  // mtds:no-alloc
  void schedule(std::uint32_t dst, RealTime t, ServerId to, Msg msg) {
    Pool& pool = pools_[dst];
    std::uint32_t slot;
    if (pool.free.empty()) {
      slot = static_cast<std::uint32_t>(pool.parcels.size());
      // mtds:alloc-ok(pool growth; a slot returns to the free list at delivery and the pool keeps its capacity, so a warmed shard reuses slots)
      pool.parcels.push_back(Parcel{to, std::move(msg)});
    } else {
      slot = pool.free.back();
      pool.free.pop_back();
      pool.parcels[slot] = Parcel{to, std::move(msg)};
    }
    queues_[dst]->deliver(t, slot);
  }

  static void deliver_thunk(void* pool, std::uint32_t slot) {
    Pool& p = *static_cast<Pool*>(pool);
    p.net->deliver(p, slot);
  }

  // Delivery tail, run on the receiver's shard: its queue's now() is the
  // arrival time.  The record leaves the pool before the handler runs,
  // since the sends the handler makes may grow the pool under it.
  // mtds:no-alloc
  void deliver(Pool& pool, std::uint32_t slot) {
    const Parcel parcel = std::move(pool.parcels[slot]);
    // mtds:alloc-ok(the free list never outgrows the pool, whose size it reached when the pool did)
    pool.free.push_back(slot);
    if (parcel.to >= handlers_.size() || !handlers_[parcel.to]) {
      ++stats_.dropped_no_handler;
      return;
    }
    ++stats_.delivered;
    handlers_[parcel.to](queues_[pool.shard]->now(), parcel.msg);
  }

  // A cross-shard message parked in a mailbox until the next barrier.
  struct InFlight {
    RealTime t;    // arrival time (sender-shard now + sampled delay)
    ServerId to = 0;
    Msg msg{};
  };

  std::uint32_t num_shards_;
  std::vector<EventQueue*> queues_;  // per shard, borrowed
  std::vector<Rng*> rngs_;           // per shard, borrowed
  const DelayModel* delays_;
  std::vector<Handler> handlers_;  // dense by ServerId; null = unregistered
  std::vector<std::pair<LinkKey, const DelayModel*>> link_delays_;  // sorted
  std::vector<LinkKey> partitions_;                                 // sorted
  double loss_probability_ = 0.0;
  NetworkStats stats_;
  std::vector<Pool> pools_;                       // per shard
  std::vector<std::vector<InFlight>> mailboxes_;  // [src * S + dst]
};

}  // namespace mtds::sim
