// FaultInjector: a chaos plane for any runtime::Runtime.
//
// A decorator that wraps an inner runtime (sim or UDP) and injects the
// paper's "communication failures" (Section 1) deterministically from a
// seeded sim::Rng: message loss, duplication, delay spikes (re-dispatched
// through the inner runtime's timers, so a delayed reply can arrive after
// the round that requested it closed - the stale-reply case), field
// corruption, and crash-stop/restart of the local endpoint.  Both
// directions are intercepted: outbound via send(), inbound by interposing
// on the handler installed at open().  Link partitions are the network's
// business (sim::Network::set_partitioned), not the chaos plane's.
// Timers and now() pass straight through to the inner runtime.
//
// Every injected fault is accounted for in a FaultStats ledger mirroring
// sim::NetworkStats, so a test can assert exactly what the chaos plane did
// and that identical seeds replay identical fault sequences (the sim
// runtime delivers bit-for-bit reproducible ledgers; over UDP thread timing
// perturbs the sequence but the accounting invariant still holds).
//
// Threading: the injector is intentionally unsynchronized - it lives inside
// the runtime's serialization domain exactly like the engine (see
// runtime/runtime.h).  service::ProtocolEngine builds one over its runtime
// when its spec's chaos plan is active.  Over UDP, embedders must hold the
// runtime's state mutex around control calls (set_crashed) and stats
// reads; net::UdpTimeServer exposes locked wrappers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "runtime/adversary.h"
#include "runtime/runtime.h"
#include "sim/rng.h"

namespace mtds::runtime {

// Probabilities are per message copy *per direction*; a message crossing two
// injected endpoints (sender's outbound + receiver's inbound) faces each
// gauntlet independently.
struct FaultPlan {
  bool enabled = false;        // arm the injector even with all p == 0
                               // (for pure crash control)
  double drop = 0.0;           // P(lose the copy)
  double duplicate = 0.0;      // P(dispatch a second copy immediately)
  double delay = 0.0;          // P(hold the copy for a delay spike)
  core::Duration delay_lo = 0.0;  // spike length ~ U(delay_lo, delay_hi)
  core::Duration delay_hi = 0.0;
  double corrupt = 0.0;        // P(corrupt a field before dispatch)
  std::uint64_t seed = 0x5EED;

  // Byzantine takeover: the strategy observes every copy in both directions
  // and may rewrite outbound copies per destination (see runtime/adversary.h).
  // Shared ownership lets colluding endpoints be configured from one plan
  // while each holds its own strategy instance.
  std::shared_ptr<AdversaryStrategy> adversary;

  bool active() const noexcept {
    return enabled || drop > 0 || duplicate > 0 || delay > 0 || corrupt > 0 ||
           adversary != nullptr;
  }
};

// Accounting invariant (asserted by fault_injector_test): once all delayed
// copies have fired,
//   outbound + inbound + duplicated ==
//       forwarded + dropped_loss + dropped_partition + dropped_crash
// i.e. every copy that entered the injector (including the extra copies it
// minted itself) is either dispatched or dropped for an attributed reason.
struct FaultStats {
  std::uint64_t outbound = 0;           // copies presented by the engine
  std::uint64_t inbound = 0;            // copies presented by the inner runtime
  std::uint64_t forwarded = 0;          // copies dispatched (either direction)
  std::uint64_t dropped_loss = 0;       // random loss
  std::uint64_t dropped_partition = 0;  // never set: the chaos plane cuts
                                        // no links (kept because ledger
                                        // readers sum it with the drops)
  std::uint64_t dropped_crash = 0;      // local endpoint crashed
  std::uint64_t duplicated = 0;         // extra copies minted
  std::uint64_t delayed = 0;            // copies held for a delay spike
  std::uint64_t corrupted = 0;          // copies with a field corrupted

  // Adversary plane (attributes of outbound copies, not copy classes: a
  // forged copy is still counted once in outbound and once in its fate, so
  // the balance equation above is untouched; forged <= outbound and
  // equivocations <= forged always hold).
  std::uint64_t forged = 0;             // copies rewritten by the strategy
  std::uint64_t equivocations = 0;      // forged copies whose lie depends on
                                        // the destination

  // Self-stabilization plane (not a copy class; the balance equation above
  // is untouched): corrupt-state faults injected into the local engine.
  std::uint64_t state_corruptions = 0;

  bool operator==(const FaultStats&) const = default;
};

class FaultInjector final : public Runtime {
 public:
  // Borrows the inner runtime, which must outlive the injector.  The RNG
  // stream is derived from plan.seed and the endpoint id at open(), so two
  // endpoints sharing one plan still draw independent fault sequences.
  FaultInjector(Runtime& inner, FaultPlan plan);

  // Messages: every copy runs the fault gauntlet.
  void open(ServerId self, Handler handler) override;
  void close() override;
  void send(ServerId to, const ServiceMessage& msg) override;
  // Inner bound plus the worst delay spike, so the engine's reply window
  // covers delayed (but not stale) replies.
  Duration max_one_way_delay() const override;

  // Timers and the real-time axis: the inner runtime's, unchanged.
  TimerId after(Duration delay, std::function<void()> cb) override {
    return inner_->after(delay, std::move(cb));
  }
  bool cancel(TimerId id) override { return inner_->cancel(id); }
  RealTime now() override { return inner_->now(); }

  // Crash-stop / restart of the local endpoint: while crashed, every copy
  // in both directions is dropped (the endpoint neither sends nor hears).
  void set_crashed(bool crashed) noexcept { crashed_ = crashed; }

  // Corrupt-state fault: the injector cannot reach inside the engine, so
  // the engine installs a corruptor hook (its corrupt_state(nonce)).
  // corrupt_state() draws a nonce from the injector's own fault stream and
  // invokes the hook with it - same seed, same scramble, every run.
  using StateCorruptor = std::function<void(std::uint64_t)>;
  void set_state_corruptor(StateCorruptor corruptor) {
    corruptor_ = std::move(corruptor);
  }
  void corrupt_state();

  const FaultStats& stats() const noexcept { return stats_; }

 private:
  enum class Dir : std::uint8_t { kOutbound, kInbound };

  // Runs one copy through the fault gauntlet; may dispatch it now, later,
  // twice, mutated, or never.  `t` is the delivery timestamp for immediate
  // inbound dispatch.
  void process(Dir dir, ServerId peer, ServiceMessage msg, RealTime t);
  void dispatch(Dir dir, ServerId peer, const ServiceMessage& msg, RealTime t);
  void corrupt_fields(ServiceMessage& msg);
  bool chance(double p) noexcept { return p > 0 && rng_.bernoulli(p); }

  Runtime* inner_;
  FaultPlan plan_;
  sim::Rng rng_;

  Handler handler_;  // the engine's handler; inner_ gets our interposer
  ServerId self_ = core::kInvalidServer;
  bool open_ = false;
  bool crashed_ = false;
  StateCorruptor corruptor_;
  FaultStats stats_;
};

}  // namespace mtds::runtime
