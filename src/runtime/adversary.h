// AdversaryStrategy: Byzantine controllers for FaultInjector endpoints.
//
// The existing chaos plane perturbs traffic randomly (loss, duplication,
// corruption); no real adversary resembles it.  This header models the
// worst-case fault class of the Byzantine clock-sync literature (see
// Khanchandani & Lenzen, PAPERS.md): a *strategy* takes over a server's
// network stack, observes every message the server sends or hears, and may
// replace the bytes of anything it sends - per destination, so it can tell
// different peers different things (equivocation).
//
// A strategy plugs into runtime::FaultInjector via FaultPlan::adversary and
// runs inside the injector's serialization domain (the runtime delivers
// messages and timers serially, see runtime/runtime.h), so strategies need
// no locking for their own state.  Strategies draw no randomness: every lie
// is a pure function of the traffic observed and the wall clock, so a seeded
// simulation replays an identical attack transcript.  State *shared* between
// colluding endpoints (CollusionPlan) is immutable after construction, so
// no colluder's lies depend on another's traffic.
//
// Forged copies still traverse the ordinary fault gauntlet (drop, delay,
// partitions) and are accounted in FaultStats: `forged` counts rewritten
// copies, `equivocations` the subset whose lie depends on the destination.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/time_types.h"
#include "service/message.h"

namespace mtds::runtime {

using core::ClockTime;
using core::Duration;
using core::RealTime;
using core::ServerId;
using service::ServiceMessage;

// Direction of a copy relative to the controlled endpoint.
enum class TrafficDir : std::uint8_t { kOutbound, kInbound };

// What rewrite() did to an outbound copy, for the FaultStats ledger.
struct ForgeResult {
  bool forged = false;       // the copy was altered/replaced
  bool equivocated = false;  // the lie depends on the destination
};

class AdversaryStrategy {
 public:
  virtual ~AdversaryStrategy() = default;

  virtual const char* name() const noexcept = 0;

  // Called for every copy the controlled endpoint sends or hears, before
  // the fault gauntlet (the endpoint's own network stack sees a copy even
  // if the chaos plane then drops it).  Outbound copies are observed in
  // their honest, pre-rewrite form.
  virtual void on_observe(ServerId /*self*/, TrafficDir /*dir*/,
                          ServerId /*peer*/, const ServiceMessage& /*msg*/,
                          RealTime /*now*/) {}

  // Called for every outbound copy; may mutate `msg` arbitrarily (forge the
  // clock value, the claimed error, the tag...).  `to` is the destination,
  // enabling per-destination lies.
  virtual ForgeResult rewrite(ServerId self, ServerId to, ServiceMessage& msg,
                              RealTime now) = 0;
};

// TwoFaced: the canonical equivocator.  Every time response is skewed by a
// fixed magnitude whose *sign* depends on the destination's id parity, so
// two victims comparing notes hold mutually impossible readings - yet each
// victim individually sees a perfectly smooth, self-consistent clock (the
// per-destination lie never jumps, so cross-round detection at any single
// victim cannot convict it; only exchange between victims, or Marzullo
// coverage, can).  Attacks the paper's Section 4 consistency groups: the
// service splinters into camps that quarantine each other.
//
// fault-bound: assumes victims never gossip readings about third parties
// (true of rules MM-1/IM-1, and of IMFT leaves whose only link is the
// liar); defeated by IMFT quorum coverage whenever the honest servers
// hold a co-located majority (f < n/2), and - since the cross-notes
// plane landed - by `gossip on`: the per-victim stories reach every
// victim as second-hand notes, the same-round contradiction convicts
// (gossip_convictions / note_byzantine), and BYZ's trim survives the
// hub outright (see scenarios/byzantine_gossip_byz_star.mtds).
class TwoFaced final : public AdversaryStrategy {
 public:
  // Lies are `magnitude` seconds ahead for even-id destinations, behind for
  // odd; the claimed error bound is pinned to `claimed_error` so the lie
  // looks confident.
  TwoFaced(Duration magnitude, Duration claimed_error)
      : magnitude_(magnitude), claimed_error_(claimed_error) {}

  const char* name() const noexcept override { return "twofaced"; }
  ForgeResult rewrite(ServerId self, ServerId to, ServiceMessage& msg,
                      RealTime now) override;

 private:
  Duration magnitude_;
  Duration claimed_error_;
};

// DriftAmplifier: a consistent small lie that grows linearly with time, the
// same toward every destination - the controlled server impersonates a
// slightly fast (or slow) clock with a confident error bound.  Victims that
// trust it (rule MM-2 follows the smallest claimed error) are steered off
// true time at `rate` seconds per second; the cluster's *rate* is attacked,
// not any single reading.
//
// fault-bound: the lie stays inside each victim's consistency window only
// while rate * tau < E_victim + claimed_error + rtt; past that MM's own
// Section 2.3 check rejects it (the strategy trades stealth for speed).
class DriftAmplifier final : public AdversaryStrategy {
 public:
  // `rate` is seconds of lie per second of real time (positive = fast);
  // `claimed_error` of 0 keeps the host's honest error claim.
  DriftAmplifier(double rate, Duration claimed_error)
      : rate_(rate), claimed_error_(claimed_error) {}

  const char* name() const noexcept override { return "drift"; }
  ForgeResult rewrite(ServerId self, ServerId to, ServiceMessage& msg,
                      RealTime now) override;

 private:
  double rate_;
  Duration claimed_error_;
  bool started_ = false;
  RealTime start_{0.0};  // first rewrite; lies grow from here
};

// Shared, *immutable* coordination state for a collusion group.  Every
// colluder derives its lie as a pure function of (plan, destination, time),
// which guarantees the colluders corroborate each other without messaging.
struct CollusionPlan {
  std::vector<ServerId> members;  // the colluding endpoints (told the truth)
  double rate = 0.0;              // per-victim drag, seconds per second
  Duration claimed_error{0.0};    // confident error bound on every lie

  bool is_member(ServerId id) const noexcept {
    for (ServerId m : members) {
      if (m == id) return true;
    }
    return false;
  }
  // Camp assignment: even-id victims are dragged forward, odd-id backward.
  // A pure function of the victim id, so every colluder picks the same
  // direction for the same victim.
  static double direction(ServerId victim) noexcept {
    return victim % 2 == 0 ? 1.0 : -1.0;
  }
};

// Collusion: f liars executing one shared plan.  Each victim is dragged at
// `plan->rate` seconds per second, the direction split into two camps by id
// parity; co-conspirators are told the truth.  The drag is slow enough to
// stay inside each victim's consistency window every round (an incremental
// capture: MM resets to the smallest claimed error, the victim's own bound
// collapses onto the lie, and the next round's slightly larger lie is again
// consistent), so MM walks its victims arbitrarily far apart and IM's
// intersection goes permanently empty - while each colluder's per-victim
// stream stays smooth enough to evade cross-round detection.
//
// fault-bound: straddles the Marzullo quorum boundary only while the group
// holds f >= n - quorum endpoints; with f < n/2 honest servers majority,
// IMFT's coverage test excludes every colluder and the attack collapses to
// a denial of f readings.
class Collusion final : public AdversaryStrategy {
 public:
  explicit Collusion(std::shared_ptr<const CollusionPlan> plan)
      : plan_(std::move(plan)) {}

  const char* name() const noexcept override { return "collusion"; }
  ForgeResult rewrite(ServerId self, ServerId to, ServiceMessage& msg,
                      RealTime now) override;

 private:
  std::shared_ptr<const CollusionPlan> plan_;
  bool started_ = false;
  RealTime start_{0.0};
};

// Adaptive: lies sized to each victim's own transmitted error bound.  The
// strategy watches inbound time responses (the host must poll its victims,
// e.g. by running MM itself) to learn each victim's current E_v, then skews
// every response to that victim by margin * E_v - just inside the window
// the victim will accept, so plain corruption checks (Section 2.3
// consistency) pass by construction.  The tell is temporal: when a victim's
// bound collapses after a reset, the lie must shrink with it, and that jump
// is exactly what ProtocolEngine's cross-round equivocation detector
// convicts (successive readings mutually impossible under the declared
// drift bound).
//
// fault-bound: invisible to single-reading consistency checks by design;
// convicted by cross-round detection whenever a victim's error bound moves
// by more than the claimed drift budget between polls.
class Adaptive final : public AdversaryStrategy {
 public:
  // `margin` in (0, 1): fraction of the victim's last transmitted bound to
  // lie by; `claimed_error` is the confident bound claimed on every lie.
  Adaptive(double margin, Duration claimed_error)
      : margin_(margin), claimed_error_(claimed_error) {}

  const char* name() const noexcept override { return "adaptive"; }
  void on_observe(ServerId self, TrafficDir dir, ServerId peer,
                  const ServiceMessage& msg, RealTime now) override;
  ForgeResult rewrite(ServerId self, ServerId to, ServiceMessage& msg,
                      RealTime now) override;

 private:
  double margin_;
  Duration claimed_error_;
  // Last error bound each victim transmitted, learned from inbound
  // responses.  Flat and append-only; a handful of peers at most.
  struct VictimBound {
    ServerId peer;
    Duration e;
  };
  std::vector<VictimBound> bounds_;
};

}  // namespace mtds::runtime
