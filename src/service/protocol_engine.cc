#include "service/protocol_engine.h"

#include <algorithm>
#include <cassert>

namespace mtds::service {

using core::ClockReset;
using core::ClockTime;
using core::LocalState;
using core::SyncMode;
using core::TimeReading;
using sim::TraceEventKind;

namespace {

// Section 3 recovery requests expire after surviving this many round closes
// unanswered (>= 2 guarantees at least one full reply window), and a burst
// retries at most this many times with doubling backoff before cooling off.
constexpr std::uint32_t kRecoveryTimeoutRounds = 2;
constexpr std::uint32_t kMaxRecoveryAttempts = 3;
constexpr std::uint32_t kMaxRecoveryBackoffRounds = 8;

// Absolute slack in the cross-round equivocation budget, covering float
// noise in the clock arithmetic (the budget itself covers all honest
// physics: error bounds, declared drift, and sampling uncertainty).
constexpr core::Duration kEquivocationSlack{1e-6};

}  // namespace

ProtocolEngine::ProtocolEngine(ServerId id, std::unique_ptr<core::Clock> clock,
                               const ServerSpec& spec, runtime::Runtime& rt,
                               sim::Trace* trace, sim::Rng rng)
    : id_(id),
      clock_(std::move(clock)),
      tracker_(spec.claimed_delta, spec.initial_error,
               clock_ ? clock_->read(rt.now()) : 0.0),
      spec_(spec),
      sync_(spec.algo == SyncAlgorithm::kNone
                ? nullptr
                : core::make_sync_function(spec.algo)),
      chaos_(spec.chaos.active()
                 ? std::make_unique<runtime::FaultInjector>(rt, spec.chaos)
                 : nullptr),
      rt_(chaos_ != nullptr ? chaos_.get() : &rt),
      trace_(trace),
      rng_(rng),
      current_period_(spec.poll_period),
      next_tag_(1),
      peers_(PeerTableOptions{.health = spec.health,
                              .sample_filter = spec.use_sample_filter,
                              .monitor_rates = spec.monitor_rates,
                              .own_delta = spec.claimed_delta},
             &rng_) {
  assert(clock_ != nullptr);
  if (chaos_ != nullptr) {
    chaos_->set_state_corruptor(
        [this](std::uint64_t nonce) { corrupt_state(nonce); });
  }
  if (peers_.health_on()) {
    peers_.set_transition_hook(
        [this](ServerId peer, PeerState from, PeerState to) {
          if (to == PeerState::kDead) ++counters_.peer_deaths;
          if (to == PeerState::kQuarantined) ++counters_.quarantines;
          if (to == PeerState::kProbation) ++counters_.probations;
          if (to == PeerState::kHealthy && from == PeerState::kProbation) {
            ++counters_.rehabilitations;
          }
          if (to == PeerState::kHealthy &&
              (from == PeerState::kSuspect || from == PeerState::kDead)) {
            ++counters_.peer_recoveries;
          }
          record(rt_->now(), TraceEventKind::kPeerState, peer,
                 static_cast<double>(static_cast<int>(to)));
        });
  }
}

ProtocolEngine::~ProtocolEngine() {
  if (running_) stop();
}

void ProtocolEngine::start(const std::vector<ServerId>& neighbors) {
  neighbors_ = neighbors;
  peers_.reserve(neighbors_.size());
  for (ServerId peer : neighbors_) {
    if (peer != id_) peers_.row(peer);
  }
  running_ = true;
  rt_->open(id_, [this](RealTime t, const ServiceMessage& msg) {
    handle(t, msg);
  });
  record(rt_->now(), TraceEventKind::kJoin, core::kInvalidServer, 0.0);
  // First publication: the serving plane answers from the start-up state
  // until the first round lands a reset.
  publish_snapshot(rt_->now());
  if (sync_ != nullptr && !neighbors_.empty()) {
    // Jitter the first round so the service's rounds don't run in lockstep.
    schedule_next_poll(rng_.uniform(core::Duration{0.0}, spec_.poll_period));
  }
}

void ProtocolEngine::stop() {
  running_ = false;
  rt_->close();
  if (poll_timer_ != runtime::kInvalidTimer) {
    rt_->cancel(poll_timer_);
    poll_timer_ = runtime::kInvalidTimer;
  }
  pending_.clear();
  peers_.clear_memories();  // a restart must not compare across incarnations
  awaiting_recovery_ = false;
  round_open_ = false;
  if (degraded_) set_degraded(false);
  recovery_attempts_ = 0;
  recovery_wait_rounds_ = 0;
  record(rt_->now(), TraceEventKind::kLeave, core::kInvalidServer, 0.0);
}

void ProtocolEngine::add_neighbor(ServerId peer) {
  if (peer == id_) return;
  if (std::find(neighbors_.begin(), neighbors_.end(), peer) ==
      neighbors_.end()) {
    neighbors_.push_back(peer);
    peers_.row(peer);
    // A previously isolated server starts polling once it has a neighbour.
    if (running_ && sync_ != nullptr && neighbors_.size() == 1) {
      schedule_next_poll(rng_.uniform(core::Duration{0.0}, spec_.poll_period));
    }
  }
}

void ProtocolEngine::set_gossip_peers(const std::vector<ServerId>& peers) {
  gossip_peers_.clear();
  for (ServerId peer : peers) {
    if (peer != id_) gossip_peers_.push_back(peer);
  }
}

ClockTime ProtocolEngine::read_clock(RealTime t) { return clock_->read(t); }

core::Duration ProtocolEngine::current_error(RealTime t) {
  return tracker_.error_at(clock_->read(t));
}

core::Offset ProtocolEngine::true_offset(RealTime t) {
  return core::offset_from_true(clock_->read(t), t);
}

bool ProtocolEngine::correct(RealTime t) {
  return abs(true_offset(t)) <= current_error(t) + Duration{1e-12};
}

// mtds:no-alloc
void ProtocolEngine::schedule_next_poll(Duration own_clock_delay) {
  // The poll timer is driven by the server's own oscillator, so a drifting
  // clock polls slightly faster or slower in real time.  A (faulty) stopped
  // clock would never fire its timer; cap the conversion so the simulation
  // still terminates, which models a hardware timer that keeps ticking.
  // One chain per engine: a pending poll (say, from before an isolation)
  // is replaced, never run alongside.
  const double rate = std::max(clock_->rate(rt_->now()), 0.1);
  if (poll_timer_ != runtime::kInvalidTimer) rt_->cancel(poll_timer_);
  poll_timer_ = rt_->after(own_clock_delay / rate, [this] {
    poll_timer_ = runtime::kInvalidTimer;
    if (running_) begin_round();
  });
}

// mtds:no-alloc
void ProtocolEngine::begin_round() {
  if (!running_) return;
  // A still-open round (possible when tau is close to the reply wait) is
  // closed before a new one starts.
  if (round_open_) end_round();

  ++counters_.rounds;
  if (awaiting_recovery_) ++counters_.recovery_rounds;
  round_open_ = true;
  round_replies_.clear();
  // A previous round's close timer may still be pending (overlapping
  // rounds happen when a fast/racing clock polls quicker than the reply
  // wait); it must not close the round we are about to open.
  if (round_end_timer_ != runtime::kInvalidTimer) {
    rt_->cancel(round_end_timer_);
    round_end_timer_ = runtime::kInvalidTimer;
  }

  const RealTime now = rt_->now();
  const ClockTime local = clock_->read(now);

  // One request per target, each with its own tag.  Peer-health filter:
  // healthy and suspect peers are polled every round; dead peers only when
  // their backoff countdown expires (a probe); quarantined peers never.
  // Without the health layer every neighbour is a target.
  ServiceMessage req;
  req.type = ServiceMessage::Type::kTimeRequest;
  req.from = id_;
  for (ServerId peer : neighbors_) {
    if (peer == id_) continue;
    if (peers_.health_on()) {
      const PeerTable::Row row = peers_.find(peer);  // start()/add_neighbor()
      const bool probe = peers_.state(row) == PeerState::kDead;
      if (!peers_.should_poll(row)) {
        ++counters_.polls_suppressed;
        continue;
      }
      if (probe) ++counters_.probes_sent;
    }
    req.to = peer;
    req.tag = next_tag_++;
    // mtds:alloc-ok(in-flight request list bounded by the neighbour count; entries are erased on reply and the capacity persists)
    pending_.push_back(Pending{req.tag, peer, local, /*recovery=*/false});
    ++counters_.requests_sent;
    rt_->send(peer, req);
  }

  // Cross-notes ride the round boundary: what we learned first-hand last
  // round fans out before this round's replies land, so every receiver can
  // cross-check this round's first-hand story against it.
  if (!gossip_peers_.empty()) send_gossip(local);

  // Close the round once every reply had time to arrive: a full round trip
  // is at most twice the one-way bound.  Keep strictly inside tau so rounds
  // do not overlap.
  const Duration wait =
      std::min(2.0 * rt_->max_one_way_delay() * 1.5 + 1e-6,
               current_period_ * 0.9);
  round_end_timer_ = rt_->after(wait, [this] {
    if (running_) end_round();
  });

  if (spec_.adaptive.enabled) {
    // Extension: spend messages only when the error budget demands it.
    const Duration error = tracker_.error_at(local);
    if (error > spec_.adaptive.error_target) {
      current_period_ = std::max(spec_.adaptive.min_period,
                                 current_period_ / 2.0);
    } else if (error < spec_.adaptive.error_target / 2.0) {
      current_period_ = std::min(spec_.adaptive.max_period,
                                 current_period_ * 2.0);
    }
  }
  schedule_next_poll(current_period_);
}

// mtds:no-alloc
void ProtocolEngine::send_gossip(ClockTime local) {
  // One message per (target, note): single notes keep ServiceMessage small
  // enough that a message in flight fills one cache-line record of the
  // simulator's delivery pool (see sim/network.h).  A note is sent while
  // its reading is fresh (within two poll periods); a self-note always goes
  // out, which doubles as a second-hand sync channel - after a star's hub is
  // quarantined, the leaves keep each other synchronized purely through
  // these notes.
  const Duration horizon = 2.0 * current_period_;
  const Duration self_error = tracker_.error_at(local);
  for (ServerId to : gossip_peers_) {
    ServiceMessage note;
    note.type = ServiceMessage::Type::kReadingGossip;
    note.from = id_;
    note.to = to;
    note.tag = counters_.rounds;
    note.source = id_;
    note.c = local;
    note.e = self_error;
    note.age = Duration{0.0};
    note.rtt = Duration{0.0};
    rt_->send(to, note);
    ++counters_.gossip_sent;
    for (PeerTable::Row row : peers_.first_hand_rows()) {
      if (peers_.id(row) == to) continue;  // the target knows its own clock
      const PeerTable::Memory& mem = peers_.first_hand(row);
      const Duration age = local - mem.local;
      if (age < Duration{0.0} || age > horizon) continue;
      note.source = peers_.id(row);
      note.c = mem.c;
      note.e = mem.e;
      note.age = age;
      note.rtt = mem.rtt;
      rt_->send(to, note);
      ++counters_.gossip_sent;
    }
  }
}

// mtds:no-alloc
void ProtocolEngine::handle_gossip(RealTime t, const ServiceMessage& msg) {
  ++counters_.gossip_received;
  if (msg.from == id_ || msg.source == id_) return;  // nothing to learn
  if (msg.age < Duration{0.0} || msg.e < Duration{0.0} ||
      msg.rtt < Duration{0.0}) {
    return;  // out-of-range tuple (sim plane; the wire decoder rejects too)
  }
  if (peers_.health_on()) {
    // Notes relayed by a convict (quarantined or still on probation) are
    // exactly the claims we stopped trusting; drop them wholesale.
    const PeerState via = peers_.peer_state(msg.from);
    if (via == PeerState::kQuarantined || via == PeerState::kProbation) {
      return;
    }
  }

  const ClockTime local = clock_->read(t);
  const Duration transit = rt_->max_one_way_delay();
  // mtds:alloc-ok(first note about a server outside the neighbour list adds its row, once)
  const PeerTable::Row row = peers_.row(msg.source);

  // Cross-check: does the gossiper's note about `source` agree with what
  // `source` told us first-hand?  Both samples are honest readings of the
  // same clock, so their difference must match the time between the two
  // collection instants - ours `a_i` ago, the gossiper's `a_g` ago (plus
  // transit) - within the stated uncertainties.  A TwoFaced hub that tells
  // each victim a different story cannot satisfy every victim pair at once:
  // the per-victim stories differ by twice the magnitude while the budget
  // only covers errors, drift and delays.
  const Duration horizon = 4.0 * current_period_;
  if (peers_.has_first_hand(row)) {
    const PeerTable::Memory& mem = peers_.first_hand(row);
    const Duration a_i = local - mem.local;
    const Duration a_g = msg.age;
    const Duration advance = msg.c - mem.c;
    const Duration gap = abs(advance - (a_i - a_g));
    const Duration budget = mem.e + msg.e +
                            2.0 * spec_.claimed_delta * (a_i + a_g) + mem.rtt +
                            msg.rtt + 2.0 * transit + kEquivocationSlack;
    // A stale first-hand reading is no evidence.
    if (a_i >= Duration{0.0} && a_i <= horizon && gap > budget) {
      ++counters_.gossip_convictions;
      const Duration excess = gap - budget;
      record(rt_->now(), TraceEventKind::kGossipConviction, msg.source,
             excess.seconds());
      if (peers_.health_on()) peers_.note_byzantine(row);
    }
  }

  // Remember the freshest second-hand reading per source: BYZ rounds merge
  // these in for sources we have no first-hand reply from.  The gossiped
  // uncertainty is aged by the drift budget over its age plus our transit
  // bound, so a merged note is never tighter than the physics allows.
  const ClockTime collected = local - msg.age;
  if (peers_.has_second_hand(row) &&
      collected <= peers_.second_hand(row).local) {
    return;  // an older collection instant than what we already hold
  }
  // mtds:alloc-ok(first note about a source; later notes overwrite its row in place)
  peers_.set_second_hand(
      row, {msg.c, msg.e + 2.0 * spec_.claimed_delta * msg.age + transit,
            collected, msg.rtt + transit});
}

// mtds:no-alloc
void ProtocolEngine::end_round() {
  if (!round_open_) return;
  round_open_ = false;

  // Expire outstanding non-recovery requests; late replies are discarded.
  // Each expired request is a missed poll for the health layer.  Recovery
  // requests instead age towards their own timeout (see below) - before
  // this they survived every round, so a recovery server that never
  // replied stalled recovery forever.  (Stable in-place compaction: the
  // survivors keep their tag order and the vector keeps its capacity.)
  {
    auto keep = pending_.begin();
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->recovery) {
        *keep++ = *it;
        continue;
      }
      if (peers_.health_on()) peers_.note_missed(peers_.find(it->to));
    }
    pending_.erase(keep, pending_.end());
  }
  age_recovery_requests();

  // Graceful degradation: with every neighbour dead or quarantined there is
  // no reading to synchronize against; announce it explicitly (the clock
  // free runs and the error report grows at the drift bound until a reply
  // arrives - see note_peer_replied for the exit).
  if (peers_.health_on() && !degraded_ && !neighbors_.empty() &&
      peers_.reachable_count(neighbors_) == 0) {
    set_degraded(true);
  }

  if (sync_ == nullptr || sync_->mode() != SyncMode::kPerRound) {
    round_replies_.clear();
    // Per-reply modes reset (and publish) from handle(); the round close
    // still refreshes published_at so serving-plane staleness is bounded
    // by the poll period, not by reply luck.
    publish_snapshot(rt_->now());
    return;
  }

  const RealTime now = rt_->now();
  std::span<const TimeReading> round_input = round_replies_;
  if (peers_.filter_on()) {
    // Serve the filtered best per neighbour instead of the raw replies.
    // This also sustains rounds whose replies were all lost: recent cached
    // samples (aged by the drift budget) are still sound inputs.
    peers_.best_all_into(clock_->read(now), spec_.claimed_delta,
                         filter_scratch_);
    round_input = filter_scratch_;
  }
  // BYZ merges gossiped second-hand readings for sources the round has no
  // first-hand reply from - the step that lets a star's leaves trim the hub
  // (and keep each other synchronized after quarantining it) even though
  // the hub owns every first-hand link.  Runs before the empty check: a
  // round with only second-hand input is still a sync round.
  if (spec_.algo == SyncAlgorithm::kBYZ && !peers_.second_hand_rows().empty()) {
    const ClockTime local = clock_->read(now);
    const Duration horizon = 2.0 * current_period_;
    merged_replies_.clear();
    // mtds:alloc-ok(round scratch; clear() keeps capacity, so these pushes only allocate while the reply/source population is still growing)
    merged_replies_.assign(round_input.begin(), round_input.end());
    for (PeerTable::Row row : peers_.second_hand_rows()) {
      const PeerTable::Memory& sh = peers_.second_hand(row);
      const ServerId source = peers_.id(row);
      const Duration age = local - sh.local;
      if (age < Duration{0.0} || age > horizon) continue;
      const PeerState state = peers_.state(row);
      if (state == PeerState::kQuarantined || state == PeerState::kProbation) {
        continue;  // untrusted source: its relayed claims are too
      }
      bool have_first_hand = false;
      for (const TimeReading& r : round_input) {
        if (r.from == source) {
          have_first_hand = true;
          break;
        }
      }
      if (have_first_hand) continue;
      TimeReading reading;
      reading.from = source;
      reading.c = sh.c;
      reading.e = sh.e;
      reading.rtt_own = sh.rtt;
      reading.local_receive = sh.local;
      merged_replies_.push_back(reading);  // mtds:alloc-ok(same retained-capacity scratch as the assign above)
    }
    round_input = merged_replies_;
  }
  if (round_input.empty()) {
    round_replies_.clear();
    publish_snapshot(now);
    return;
  }
  const auto outcome = sync_->on_round(local_state(now), round_input);
  if (outcome.reset) {
    apply_reset(*outcome.reset, now, /*is_recovery=*/false);
  }
  if (peers_.health_on() && !outcome.round_inconsistent) {
    // Section 4 consistency streaks: on a round that produced a trusted
    // region, every contributor either extends its inconsistency streak
    // (below, via note_inconsistency) or resets it here.  A failed round
    // credits nobody: with no quorum there is no basis to call any single
    // contributor consistent.
    for (const auto& reading : round_input) {
      if (std::find(outcome.inconsistent_with.begin(),
                    outcome.inconsistent_with.end(),
                    reading.from) == outcome.inconsistent_with.end()) {
        peers_.note_consistent(peers_.find(reading.from));
      }
    }
  }
  if (outcome.reset && !outcome.inconsistent_with.empty()) {
    // Servers excluded by a successful Marzullo cover: the round reset went
    // ahead on the quorum region and these peers' intervals were outside
    // it.  Their note_inconsistent streak (via note_inconsistency below) is
    // what escalates a persistent liar to quarantine.
    counters_.marzullo_exclusions += outcome.inconsistent_with.size();
  }
  if (outcome.round_inconsistent || !outcome.inconsistent_with.empty()) {
    ++counters_.inconsistencies;
    note_inconsistency(outcome.inconsistent_with);
  }
  round_replies_.clear();
  // Round complete (apply_reset already published the post-reset state if
  // one landed; this refresh re-stamps published_at either way).
  publish_snapshot(rt_->now());
}

// mtds:no-alloc
void ProtocolEngine::age_recovery_requests() {
  auto keep = pending_.begin();
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (!it->recovery || ++it->age < kRecoveryTimeoutRounds) {
      *keep++ = *it;
      continue;
    }
    // The recovery server never answered: expire the request and back off
    // before the next attempt (doubling per attempt, bounded burst).
    ++counters_.recovery_timeouts;
    if (peers_.health_on()) peers_.note_missed(peers_.find(it->to));
    recovery_wait_rounds_ = std::min(
        kMaxRecoveryBackoffRounds,
        recovery_attempts_ > 0 ? (1u << (recovery_attempts_ - 1)) : 1u);
  }
  pending_.erase(keep, pending_.end());
  if (recovery_wait_rounds_ > 0 && --recovery_wait_rounds_ == 0) {
    if (recovery_attempts_ >= kMaxRecoveryAttempts) {
      // Burst exhausted; cool off - a later inconsistency starts afresh.
      recovery_attempts_ = 0;
    } else if (recovery_attempts_ > 0) {
      request_recovery(recovery_exclude_);  // bounded retry
    }
  }
}

void ProtocolEngine::set_degraded(bool degraded) {
  if (degraded_ == degraded) return;
  degraded_ = degraded;
  if (degraded) ++counters_.degraded_entries;
  record(rt_->now(), TraceEventKind::kDegraded, core::kInvalidServer,
         degraded ? 1.0 : 0.0);
}

// mtds:no-alloc
void ProtocolEngine::note_peer_replied(PeerTable::Row row) {
  if (!peers_.health_on()) return;
  peers_.note_reply(row);
  if (degraded_ && peers_.reachable_count(neighbors_) > 0) {
    set_degraded(false);
  }
}

// mtds:no-alloc
void ProtocolEngine::handle(RealTime t, const ServiceMessage& msg) {
  if (!running_) return;
  switch (msg.type) {
    case ServiceMessage::Type::kTimeRequest: {
      // Rule MM-1 / IM-1: respond with the pair <C_i(t), E_i(t)>.
      ServiceMessage resp;
      resp.type = ServiceMessage::Type::kTimeResponse;
      resp.from = id_;
      resp.to = msg.from;
      resp.tag = msg.tag;
      resp.c = clock_->read(t);
      resp.e = tracker_.error_at(resp.c);
      // Count before sending: a fast client must never observe its own
      // reply while the counter still reads the old value.
      ++counters_.responses_sent;
      rt_->send(msg.from, resp);
      return;
    }
    case ServiceMessage::Type::kTimeResponse: {
      // Pair by (tag, sender): a reply from any server other than the one
      // polled under that tag is not an answer to it.
      const auto it = std::find_if(
          pending_.begin(), pending_.end(), [&msg](const Pending& p) {
            return p.tag == msg.tag && p.to == msg.from;
          });
      if (it == pending_.end()) {
        return;  // stale, duplicate, or from a server we did not poll
      }
      const Pending pend = *it;
      pending_.erase(it);
      ++counters_.replies_received;
      // The one row lookup of this reply (every request's target has a row:
      // start(), add_neighbor() and request_recovery() add them).
      const PeerTable::Row row = peers_.find(msg.from);
      // Any paired reply is liveness evidence, even from a quarantined
      // peer - quarantine means untrusted, not unreachable.
      note_peer_replied(row);
      if (peers_.state(row) == PeerState::kQuarantined) {
        // Section 4: a peer outside our consistency group may be alive,
        // but its readings are discarded wholesale.
        return;
      }

      const ClockTime local = clock_->read(t);
      TimeReading reading;
      reading.from = msg.from;
      reading.c = msg.c;
      reading.e = msg.e;
      reading.rtt_own = std::max(Duration{0.0}, local - pend.sent_local);
      reading.local_receive = local;

      if (note_reading_impossible(row, reading) && peers_.health_on()) {
        // A proven equivocator is quarantined on the spot (the Section 4
        // group-exclusion path, skipping the statistical streak) and the
        // reading discarded.  Without the health layer the conviction is
        // recorded but the reading still faces the ordinary per-reading
        // consistency checks - existing configurations keep their behavior.
        peers_.note_byzantine(row);
        if (peers_.state(row) == PeerState::kQuarantined) return;
      }

      if (peers_.state(row) == PeerState::kProbation) {
        // Supervised release: the reply passed the equivocation check, so
        // it extends the probation streak - but the reading itself stays
        // discarded until the peer has re-earned healthy.
        peers_.note_probation_consistent(row);
        return;
      }

      if (peers_.rates_on()) peers_.observe(row, reading);
      if (pend.recovery) {
        // Third-server recovery (Section 3): reset unconditionally to the
        // third server's value, inheriting its error plus the round trip.
        ClockReset reset;
        reset.clock = reading.c;
        reset.error = reading.e + (1.0 + spec_.claimed_delta) * reading.rtt_own;
        reset.sources.push_back(reading.from);
        ++counters_.recoveries;
        recovery_attempts_ = 0;  // the burst succeeded
        recovery_wait_rounds_ = 0;
        apply_reset(reset, t, /*is_recovery=*/true);
        return;
      }
      process_reading(row, reading, t);
      return;
    }
    case ServiceMessage::Type::kReadingGossip: {
      handle_gossip(t, msg);
      return;
    }
  }
}

// mtds:no-alloc
bool ProtocolEngine::note_reading_impossible(PeerTable::Row row,
                                             const TimeReading& reading) {
  bool impossible = false;
  Duration excess{0.0};
  if (peers_.has_first_hand(row)) {
    const PeerTable::Memory& mem = peers_.first_hand(row);
    const Duration elapsed = reading.local_receive - mem.local;
    // Freshness guard: convict only against a recent previous reading.  A
    // stale one (backoff probes of long-dead peers, or memory scrambled by
    // a corrupt-state fault into the distant past/future) is not evidence -
    // peers polled every round, which is every adversary, always qualify.
    const Duration horizon = 4.0 * current_period_;
    if (elapsed >= 0 && elapsed <= horizon) {
      // An honest peer whose bound is valid satisfies |C_p - t| <= E_p at
      // both readings (even across its own resets), and our elapsed measure
      // is off by at most the declared drift budget of both parties plus
      // each reading's sampling uncertainty (its own-clock round trip).
      // An advance outside that envelope is physically impossible under the
      // declared bounds - the peer contradicted itself.
      const Duration advance = reading.c - mem.c;
      const Duration budget = mem.e + reading.e +
                              2.0 * spec_.claimed_delta * elapsed + mem.rtt +
                              reading.rtt_own + kEquivocationSlack;
      const Duration gap = abs(advance - elapsed);
      if (gap > budget) {
        impossible = true;
        excess = gap - budget;
      }
    }
  }
  // mtds:alloc-ok(the first reading from a peer joins the first-hand order list, once)
  peers_.set_first_hand(
      row, {reading.c, reading.e, reading.local_receive, reading.rtt_own});
  if (impossible) {
    ++counters_.byzantine_suspects;
    record(rt_->now(), TraceEventKind::kByzantineSuspect, reading.from,
           excess.seconds());
  }
  return impossible;
}

// mtds:no-alloc
void ProtocolEngine::process_reading(PeerTable::Row row,
                                     const TimeReading& reading, RealTime t) {
  if (sync_ == nullptr) return;
  if (peers_.filter_on()) peers_.add_sample(row, reading);
  if (sync_->mode() == SyncMode::kPerRound) {
    // mtds:alloc-ok(per-round reply buffer; clear() keeps its capacity, so after the first full round this never reallocates)
    if (round_open_) round_replies_.push_back(reading);
    return;
  }
  // Per-reply (algorithm MM): evaluate against the live state in arrival
  // order, exactly as rule MM-2 prescribes.  With the clock filter on, the
  // neighbour's lowest-delay recent sample stands in for the raw reply.
  TimeReading effective = reading;
  if (peers_.filter_on()) {
    if (auto best = peers_.best(row, reading.local_receive,
                                spec_.claimed_delta)) {
      effective = *best;
    }
  }
  const auto outcome = sync_->on_reply(local_state(t), effective);
  if (outcome.reset) {
    apply_reset(*outcome.reset, t, /*is_recovery=*/false);
  }
  if (!outcome.inconsistent_with.empty()) {
    ++counters_.inconsistencies;
    note_inconsistency(outcome.inconsistent_with);
  } else if (peers_.health_on()) {
    // Section 4 consistency streak: a clean reply resets it.
    peers_.note_consistent(row);
  }
}

// mtds:no-alloc
void ProtocolEngine::apply_reset(const ClockReset& reset, RealTime at,
                                 bool is_recovery) {
  // Outstanding requests recorded their send time on the pre-reset clock;
  // rebase them so xi^i_j (measured as C(recv) - C(send)) stays the elapsed
  // own-clock time rather than absorbing the jump.  Without this, a
  // backward reset makes later replies in the same round look instantaneous
  // and their inherited error underestimates the delay - a genuine
  // correctness leak.
  const Duration jump = reset.clock - clock_->read(at);
  for (Pending& pend : pending_) {
    pend.sent_local += jump;
  }
  // Every per-peer stamp lives on the same axis; rebase them too or every
  // peer would look like it jumped by -jump next round.
  peers_.rebase(jump);
  clock_->set(at, reset.clock);
  // The tracker records the *intended* post-reset state.  A faulty clock
  // that refuses the set (kStickyReset) leaves the server's bookkeeping
  // believing the reset happened - precisely the failure mode the paper
  // names; the invariant checkers surface the resulting incorrectness.
  tracker_.reset(reset.clock, reset.error);
  ++counters_.resets;
  record(at, is_recovery ? TraceEventKind::kRecovery : TraceEventKind::kReset,
         reset.sources.empty() ? core::kInvalidServer : reset.sources.front(),
         reset.error.seconds());
  // The serving plane must never answer from the pre-reset state longer
  // than one publication.
  publish_snapshot(at);
  // Self-stabilization accounting: the first reset that provably
  // re-contains true time ends the corrupt-state recovery window.
  if (awaiting_recovery_ && correct(at)) awaiting_recovery_ = false;
}

void ProtocolEngine::corrupt_state() {
  if (chaos_ != nullptr) {
    chaos_->corrupt_state();
  } else {
    corrupt_state(rng_.next_u64());
  }
}

void ProtocolEngine::corrupt_state(std::uint64_t nonce) {
  if (!running_) return;
  // splitmix64 over the nonce: the scramble is a pure function of it, so a
  // seeded FaultInjector reproduces the identical corruption every run -
  // which is what lets the chaos soak assert seed => identical recovery
  // ledgers and the determinism goldens pin the recovery trajectory.
  const auto next = [&nonce]() noexcept {
    nonce += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = nonce;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4B9B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  // Symmetric draw in [-mag, mag].
  const auto scramble = [&](double mag) {
    return mag * (static_cast<double>(next() % 2001) - 1000.0) / 1000.0;
  };
  const RealTime now = rt_->now();
  // The clock is thrown 1-30 s off - never less.  A macroscopic throw is
  // part of the fault model: BYZ's carried error arm is only sound while
  // the previous bound was (see core/byz_sync.cc), so the corruption must
  // be large enough that the first post-corruption round's fresh bound
  // wins the min() and re-anchors the tracker.  The tracker itself is
  // reset to a confidently tiny bogus error - the nastiest corruption
  // shape: wrong AND sure of itself.
  const double throw_mag =
      1.0 + 29.0 * static_cast<double>(next() % 2001) / 2000.0;
  clock_->set(now, clock_->read(now) +
                       core::Offset{next() % 2 == 0 ? throw_mag : -throw_mag});
  const ClockTime corrupted = clock_->read(now);
  tracker_.reset(corrupted,
                 Duration{static_cast<double>(next() % 1000 + 1) * 1e-6});
  // Peer memories are poisoned wholesale: claimed clocks, uncertainties
  // and receipt stamps all garbage.  The stamps land far outside the
  // conviction freshness window (at least 100 s off, against horizons of a
  // few poll periods), so a scrambled memory cannot mass-convict honest
  // peers on their next genuine reply - it simply ages out as stale.
  const auto throw_stamp = [&]() {
    return Duration{(next() % 2 == 0 ? 1.0 : -1.0) * (100.0 + scramble(400.0) + 400.0)};
  };
  const auto poison = [&](PeerTable::Memory& mem) {
    mem.c += Duration{scramble(50.0)};
    mem.e = Duration{static_cast<double>(next() % 1000) * 1e-4};
    mem.local += throw_stamp();
    mem.rtt = Duration{static_cast<double>(next() % 1000) * 1e-4};
  };
  for (PeerTable::Row row : peers_.first_hand_rows()) {
    poison(peers_.first_hand(row));
  }
  for (PeerTable::Row row : peers_.second_hand_rows()) {
    poison(peers_.second_hand(row));
  }
  // In-flight requests lose their send stamps too: the replies still
  // pairing this round will carry garbage round trips and correspondingly
  // fat inherited errors, which is sound - wide, not wrong.
  for (Pending& pend : pending_) {
    pend.sent_local += Duration{scramble(50.0)};
  }
  ++counters_.state_corruptions;
  awaiting_recovery_ = true;
  record(now, TraceEventKind::kStateCorrupt, core::kInvalidServer, 0.0);
  // The serving plane sees the corruption immediately - and the recovery
  // (the next reset) immediately after; hiding it would just mean stale
  // torn-looking answers instead of honest bad ones.
  publish_snapshot(now);
}

// Builds and publishes the affine snapshot the serving plane extrapolates
// from (see service/snapshot.h for why per-query engine access is not
// needed).  Single writer: every caller runs inside the runtime's
// serialization domain.
// mtds:no-alloc
void ProtocolEngine::publish_snapshot(RealTime now) {
  if (snapshot_sink_ == nullptr) return;
  ClockSnapshot snap;
  snap.base = clock_->read(now);
  snap.error = tracker_.error_at(snap.base);
  snap.published_at = now;
  snap.rate = clock_->rate(now);
  snap.delta = tracker_.delta();
  snap.server_id = id_;
  snapshot_sink_->publish_snapshot(snap);
}

// mtds:alloc-ok(trace buffers are pre-sized by TimeService::reserve_trace; alloc_test proves steady-state recording allocates nothing)
void ProtocolEngine::record(RealTime t, TraceEventKind kind, ServerId peer,
                            double detail) {
  if (trace_ != nullptr) trace_->record({t, id_, kind, peer, detail});
}

void ProtocolEngine::note_inconsistency(const core::ServerIdVec& peers) {
  record(rt_->now(), TraceEventKind::kInconsistent,
         peers.empty() ? core::kInvalidServer : peers.front(), 0.0);
  if (peers_.health_on()) {
    // Section 4: persistent disagreement eventually quarantines the peer -
    // the local model of "not in my consistency group".
    for (ServerId peer : peers) peers_.note_inconsistent(peers_.find(peer));
  }
  if (spec_.recovery == RecoveryPolicy::kThirdServer) {
    request_recovery(peers.empty() ? core::kInvalidServer : peers.front());
  }
}

// mtds:alloc-ok(recovery burst, not steady state; runs at most kMaxRecoveryAttempts times per §4 reset event and the candidate list is bounded by the pool size)
void ProtocolEngine::request_recovery(ServerId exclude) {
  // At most one recovery request in flight.
  for (const Pending& pend : pending_) {
    if (pend.recovery) return;
  }
  // Bounded retry: a timed-out request is retried at most
  // kMaxRecoveryAttempts times per burst, with doubling backoff between
  // attempts (see age_recovery_requests).
  if (recovery_wait_rounds_ > 0 ||
      recovery_attempts_ >= kMaxRecoveryAttempts) {
    return;
  }
  // "The original server resets to the value of any third server": prefer a
  // dedicated recovery pool (servers on another network), else any neighbour
  // other than the one we disagreed with.  Peers the health layer has
  // quarantined are never trusted as the third server.
  const auto usable = [&](ServerId s) {
    return s != id_ && s != exclude &&
           peers_.peer_state(s) != PeerState::kQuarantined;
  };
  std::vector<ServerId> candidates;
  for (ServerId s : spec_.recovery_pool) {
    if (usable(s)) candidates.push_back(s);
  }
  if (candidates.empty()) {
    for (ServerId s : neighbors_) {
      if (usable(s)) candidates.push_back(s);
    }
  }
  if (candidates.empty()) return;
  const ServerId target = candidates[rng_.uniform_index(candidates.size())];

  recovery_exclude_ = exclude;
  ++recovery_attempts_;
  peers_.row(target);  // a recovery-pool server may not be a neighbour

  ServiceMessage req;
  req.type = ServiceMessage::Type::kTimeRequest;
  req.from = id_;
  req.to = target;
  req.tag = next_tag_++;
  pending_.push_back(
      Pending{req.tag, target, clock_->read(rt_->now()), /*recovery=*/true});
  ++counters_.requests_sent;
  rt_->send(target, req);
}

// mtds:no-alloc
LocalState ProtocolEngine::local_state(RealTime t) {
  LocalState state;
  state.clock = clock_->read(t);
  state.error = tracker_.error_at(state.clock);
  state.delta = spec_.claimed_delta;
  return state;
}

}  // namespace mtds::service
