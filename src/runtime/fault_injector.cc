#include "runtime/fault_injector.h"

#include <utility>

namespace mtds::runtime {

namespace {

// Corrupted clock fields are skewed by up to this much in either direction -
// far beyond any honest error bound, so consistency checks can notice.
constexpr double kMaxClockSkew = 500.0;

}  // namespace

FaultInjector::FaultInjector(Runtime& inner, FaultPlan plan)
    : inner_(&inner), plan_(plan), rng_(plan.seed) {}

void FaultInjector::open(ServerId self, Handler handler) {
  self_ = self;
  handler_ = std::move(handler);
  open_ = true;
  // Derive the fault stream from (seed, endpoint), so a fleet sharing one
  // plan draws independent - but individually reproducible - sequences.
  rng_ = sim::Rng(plan_.seed ^ (0x9E3779B97F4A7C15ull * (self + 1)));
  inner_->open(self, [this](RealTime t, const ServiceMessage& msg) {
    if (!open_) return;
    ++stats_.inbound;
    process(Dir::kInbound, msg.from, msg, t);
  });
}

void FaultInjector::close() {
  open_ = false;
  inner_->close();
}

void FaultInjector::send(ServerId to, const ServiceMessage& msg) {
  ++stats_.outbound;
  process(Dir::kOutbound, to, msg, inner_->now());
}

Duration FaultInjector::max_one_way_delay() const {
  return inner_->max_one_way_delay() + (plan_.delay > 0 ? plan_.delay_hi : 0.0);
}

void FaultInjector::corrupt_state() {
  // The nonce is drawn even with no hook installed, so arming the fault at
  // different build layers never shifts the rest of the fault stream.
  const std::uint64_t nonce = rng_.next_u64();
  if (crashed_ || !corruptor_) return;
  ++stats_.state_corruptions;
  corruptor_(nonce);
}

void FaultInjector::corrupt_fields(ServiceMessage& msg) {
  // Two corruption modes: a clock-field skew (detectable by the paper's
  // consistency check: the value lands far outside any honest interval) or
  // a scrambled tag (the reply no longer pairs with any outstanding
  // request - indistinguishable from a stale reply).
  if (msg.type == ServiceMessage::Type::kTimeResponse &&
      rng_.bernoulli(0.5)) {
    msg.c += rng_.uniform(-kMaxClockSkew, kMaxClockSkew);
  } else {
    msg.tag ^= rng_.next_u64() | 1;
  }
  ++stats_.corrupted;
}

void FaultInjector::process(Dir dir, ServerId peer, ServiceMessage msg,
                            RealTime t) {
  if (crashed_) {
    ++stats_.dropped_crash;
    return;
  }
  if (plan_.adversary != nullptr) {
    // Byzantine takeover: the strategy sees every copy the endpoint's
    // network stack sees (even ones the gauntlet below then drops) and
    // forges outbound copies before they face the ordinary fault gauntlet.
    AdversaryStrategy& adversary = *plan_.adversary;
    adversary.on_observe(self_,
                         dir == Dir::kOutbound ? TrafficDir::kOutbound
                                               : TrafficDir::kInbound,
                         peer, msg, t);
    if (dir == Dir::kOutbound) {
      const ForgeResult result = adversary.rewrite(self_, peer, msg, t);
      if (result.forged) ++stats_.forged;
      if (result.equivocated) ++stats_.equivocations;
    }
  }
  if (chance(plan_.drop)) {
    ++stats_.dropped_loss;
    return;
  }
  if (chance(plan_.corrupt)) corrupt_fields(msg);
  if (chance(plan_.duplicate)) {
    ++stats_.duplicated;
    dispatch(dir, peer, msg, t);
  }
  if (chance(plan_.delay)) {
    // Delay spike: hold the copy and re-dispatch through the inner timers.
    // The runtime serializes timer fires with message delivery, so the late
    // copy re-enters the engine exactly like a slow network would deliver
    // it - possibly after the requesting round closed (a stale reply).
    ++stats_.delayed;
    const Duration spike =
        rng_.uniform(plan_.delay_lo, plan_.delay_hi);
    inner_->after(spike, [this, dir, peer, msg] {
      if (crashed_) {
        ++stats_.dropped_crash;
        return;
      }
      dispatch(dir, peer, msg, inner_->now());
    });
    return;
  }
  dispatch(dir, peer, msg, t);
}

void FaultInjector::dispatch(Dir dir, ServerId peer, const ServiceMessage& msg,
                             RealTime t) {
  ++stats_.forwarded;
  if (dir == Dir::kOutbound) {
    inner_->send(peer, msg);
  } else if (handler_ && open_) {
    handler_(t, msg);
  }
}

}  // namespace mtds::runtime
