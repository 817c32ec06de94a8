#include "service/peer_table.h"

#include <algorithm>
#include <type_traits>

namespace mtds::service {

const char* to_string(PeerState state) noexcept {
  switch (state) {
    case PeerState::kHealthy: return "healthy";
    case PeerState::kSuspect: return "suspect";
    case PeerState::kDead: return "dead";
    case PeerState::kQuarantined: return "quarantined";
    case PeerState::kProbation: return "probation";
  }
  return "?";
}

PeerTable::PeerTable(const PeerTableOptions& options, sim::Rng* rng)
    : policy_(options.health),
      rng_(rng),
      filter_window_(std::max<std::size_t>(options.filter_window, 1)),
      filter_max_age_(options.filter_max_age),
      own_delta_(options.own_delta),
      health_on_(options.health.enabled),
      filter_on_(options.sample_filter),
      rate_on_(options.monitor_rates) {}

// --- rows -------------------------------------------------------------------

template <class F>
void PeerTable::each_column(F&& f) {
  f(flags_);
  f(first_);
  if (second_on_) f(second_);
  if (health_on_) f(health_);
  if (filter_on_) f(filter_);
  if (rate_on_) f(rate_);
}

// mtds:no-alloc
PeerTable::Row PeerTable::find(core::ServerId id) const {
  // Branch-free binary search (the step compiles to a conditional move):
  // replies arrive in no particular peer order, so a branching search
  // would mispredict at nearly every step.
  if (ids_.empty()) return kNoRow;
  const core::ServerId* base = ids_.data();
  for (std::size_t n = ids_.size(); n > 1; n -= n / 2) {
    base = base[n / 2] <= id ? base + n / 2 : base;
  }
  return *base == id ? static_cast<Row>(base - ids_.data()) : kNoRow;
}

PeerTable::Row PeerTable::row(core::ServerId id) {
  if (const Row found = find(id); found != kNoRow) return found;
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  const auto r = static_cast<Row>(it - ids_.begin());
  ids_.insert(it, id);
  each_column([r](auto& col) {
    using Value = typename std::decay_t<decltype(col)>::value_type;
    col.insert(col.begin() + r, Value{});
  });
  for (auto* order : {&first_order_, &second_order_}) {
    for (Row& o : *order) {
      if (o >= r) ++o;
    }
  }
  return r;
}

void PeerTable::reserve(std::size_t rows) {
  ids_.reserve(rows);
  each_column([rows](auto& col) { col.reserve(rows); });
  first_order_.reserve(rows);
}

// --- reading memories -------------------------------------------------------

void PeerTable::set_first_hand(Row r, const Memory& m) {
  if ((flags_[r] & kFirstHand) == 0) {
    flags_[r] |= kFirstHand;
    // mtds:alloc-ok(first reading from a peer; the order list is bounded by the row count and keeps its capacity)
    first_order_.push_back(r);
  }
  first_[r] = m;
}

void PeerTable::set_second_hand(Row r, const Memory& m) {
  if (!second_on_) {
    second_on_ = true;
    second_.resize(ids_.size());  // mtds:alloc-ok(the first gossip note turns the column on, once)
  }
  if ((flags_[r] & kSecondHand) == 0) {
    flags_[r] |= kSecondHand;
    // mtds:alloc-ok(first note about a source; bounded by the row count)
    second_order_.push_back(r);
  }
  second_[r] = m;
}

void PeerTable::clear_memories() {
  for (std::uint8_t& f : flags_) {
    f &= static_cast<std::uint8_t>(~(kFirstHand | kSecondHand));
  }
  first_order_.clear();
  second_order_.clear();
}

// mtds:no-alloc
void PeerTable::rebase(core::Duration jump) {
  // A stamp on the old local axis keeps its meaning on the new one when it
  // moves with the jump: offsets relative to the local clock (c - local),
  // which is what every consumer reads, are preserved.
  for (Memory& m : first_) m.local += jump;
  for (Memory& m : second_) m.local += jump;
  for (Window& w : filter_) {
    for (core::TimeReading& s : w.buf) s.local_receive += jump;
  }
  for (Rate& rate : rate_) rate.estimator.clear();
}

// --- health column ----------------------------------------------------------

PeerState PeerTable::peer_state(core::ServerId id) const {
  const Row r = find(id);
  return r == kNoRow ? PeerState::kHealthy : state(r);
}

void PeerTable::transition(Row r, PeerState to) {
  Health& entry = health_[r];
  const PeerState from = entry.state;
  if (from == to) return;
  entry.state = to;
  if (to == PeerState::kDead) {
    // First probe fires on the next round; the interval then doubles per
    // probe up to the cap, so a long-dead peer costs O(1/backoff_max) of
    // the full poll rate instead of one request per round.
    entry.probe_interval = std::max(1u, policy_.backoff_start);
    entry.rounds_until_probe = 0;
  }
  if (to == PeerState::kQuarantined) {
    // Fresh conviction (or re-conviction from probation): the release
    // countdown and any partial probation progress start over.
    entry.quarantine_rounds = 0;
    entry.probation_streak = 0;
  }
  if (to == PeerState::kProbation) entry.probation_streak = 0;
  if (hook_) hook_(ids_[r], from, to);
}

// mtds:no-alloc
bool PeerTable::should_poll(Row r) {
  Health& entry = health_[r];
  switch (entry.state) {
    case PeerState::kHealthy:
    case PeerState::kSuspect:
    case PeerState::kProbation:
      return true;
    case PeerState::kQuarantined:
      if (policy_.release_after == 0) return false;  // sticky quarantine
      ++entry.quarantine_rounds;
      if (entry.quarantine_rounds < policy_.release_after) return false;
      // Served the sentence: release into probation and poll immediately.
      // Readings stay discarded until the probation streak completes.
      transition(r, PeerState::kProbation);
      return true;
    case PeerState::kDead:
      break;
  }
  if (entry.rounds_until_probe > 0) {
    --entry.rounds_until_probe;
    return false;
  }
  // Probe now; schedule the next one further out, jittered so a fleet that
  // declared the same peer dead in the same round does not re-probe in
  // lockstep.
  const std::uint32_t interval = entry.probe_interval;
  entry.probe_interval =
      std::min(interval * 2, std::max(1u, policy_.backoff_max));
  std::uint32_t extra = 0;
  if (policy_.jitter > 0 && rng_ != nullptr) {
    const auto span =
        static_cast<std::uint64_t>(policy_.jitter * interval) + 1;
    extra = static_cast<std::uint32_t>(rng_->uniform_index(span));
  }
  entry.rounds_until_probe = interval - 1 + extra;
  return true;
}

// mtds:no-alloc
void PeerTable::note_reply(Row r) {
  Health& entry = health_[r];
  entry.miss_streak = 0;
  if (entry.state == PeerState::kSuspect || entry.state == PeerState::kDead) {
    transition(r, PeerState::kHealthy);
  }
}

// mtds:no-alloc
void PeerTable::note_missed(Row r) {
  Health& entry = health_[r];
  if (entry.state == PeerState::kQuarantined) return;
  if (entry.state == PeerState::kProbation) {
    // A missed probation round breaks the consecutive-consistency chain but
    // does not demote to suspect/dead: that path's note_reply heal would
    // let an unresponsive peer launder its way past probation.
    entry.probation_streak = 0;
    return;
  }
  ++entry.miss_streak;
  if (entry.miss_streak >= policy_.dead_after &&
      entry.state != PeerState::kDead) {
    transition(r, PeerState::kDead);
  } else if (entry.miss_streak >= policy_.suspect_after &&
             entry.state == PeerState::kHealthy) {
    transition(r, PeerState::kSuspect);
  }
}

void PeerTable::note_inconsistent(Row r) {
  Health& entry = health_[r];
  if (entry.state == PeerState::kProbation) {
    // Inconsistency during probation is not a streak to accumulate - the
    // peer is already a convict on supervised release.  Straight back.
    transition(r, PeerState::kQuarantined);
    return;
  }
  ++entry.inconsistent_streak;
  if (policy_.quarantine_after > 0 &&
      entry.inconsistent_streak >= policy_.quarantine_after &&
      entry.state != PeerState::kQuarantined) {
    transition(r, PeerState::kQuarantined);
  }
}

// mtds:no-alloc
void PeerTable::note_consistent(Row r) { health_[r].inconsistent_streak = 0; }

// mtds:no-alloc
void PeerTable::note_byzantine(Row r) {
  if (policy_.quarantine_after == 0) return;  // quarantine disabled by policy
  if (health_[r].state == PeerState::kQuarantined) return;
  transition(r, PeerState::kQuarantined);
}

// mtds:no-alloc
void PeerTable::note_probation_consistent(Row r) {
  Health& entry = health_[r];
  if (entry.state != PeerState::kProbation) return;
  ++entry.probation_streak;
  if (entry.probation_streak >= std::max(1u, policy_.probation_rounds)) {
    entry.miss_streak = 0;
    entry.inconsistent_streak = 0;
    transition(r, PeerState::kHealthy);
  }
}

// mtds:no-alloc
std::size_t PeerTable::reachable_count(
    const std::vector<core::ServerId>& peers) const {
  return static_cast<std::size_t>(
      std::count_if(peers.begin(), peers.end(), [this](core::ServerId p) {
        const PeerState s = peer_state(p);
        return s == PeerState::kHealthy || s == PeerState::kSuspect;
      }));
}

// --- filter column ----------------------------------------------------------

// mtds:no-alloc
void PeerTable::add_sample(Row r, const core::TimeReading& reading) {
  Window& w = filter_[r];
  if (w.buf.size() < filter_window_) {
    // mtds:alloc-ok(window warm-up; after `filter_window_` readings per peer the circular buffer overwrites in place forever)
    w.buf.push_back(reading);  // still filling; next stays at 0
    return;
  }
  w.buf[w.next] = reading;  // overwrite the oldest slot
  w.next = (w.next + 1) % filter_window_;
}

// mtds:no-alloc
std::optional<core::TimeReading> PeerTable::best(Row r,
                                                 core::ClockTime local_now,
                                                 double delta) const {
  const Window& w = filter_[r];
  const std::size_t n = w.buf.size();
  std::optional<core::TimeReading> best_reading;
  core::Duration best_width = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const core::TimeReading& s = w.buf[(w.next + i) % n];  // oldest first
    const core::Duration age = local_now - s.local_receive;
    if (age < 0 || age > filter_max_age_) continue;
    // Effective half-width of the aged interval this sample defines.
    const core::Duration width =
        s.e + 0.5 * (1.0 + delta) * s.rtt_own + delta * age;
    if (!best_reading || width < best_width) {
      // Age the sample: same offset relative to the local clock, error
      // grown by the local drift budget over the elapsed local time.
      core::TimeReading aged = s;
      aged.c = s.c + age;  // the peer's clock also advanced ~age
      aged.e = s.e + 2.0 * delta * age;  // both clocks wander: be safe
      aged.local_receive = local_now;
      best_reading = aged;
      best_width = width;
    }
  }
  return best_reading;
}

// mtds:no-alloc
void PeerTable::best_all_into(core::ClockTime local_now, double delta,
                              core::Readings& out) const {
  out.clear();
  for (Row r = 0; r < filter_.size(); ++r) {
    // mtds:alloc-ok(appends into the caller's round scratch; its capacity is retained across rounds and bounded by the peer count)
    if (auto s = best(r, local_now, delta)) out.push_back(*s);
  }
}

// --- rate column ------------------------------------------------------------

// mtds:no-alloc
void PeerTable::observe(Row r, const core::TimeReading& reading) {
  flags_[r] |= kObserved;
  core::RateObservation obs;
  obs.local = reading.local_receive;
  // The reply was generated somewhere in the round trip; credit half of it.
  obs.remote = reading.c + 0.5 * reading.rtt_own;
  obs.rtt_own = reading.rtt_own;
  rate_[r].estimator.add(obs);
}

void PeerTable::set_claimed_delta(core::ServerId id, double delta) {
  if (!rate_on_) return;
  Rate& rate = rate_[row(id)];
  rate.claimed = delta;
  rate.has_claim = true;
}

std::size_t PeerTable::rate_neighbours() const {
  return static_cast<std::size_t>(
      std::count_if(flags_.begin(), flags_.end(),
                    [](std::uint8_t f) { return (f & kObserved) != 0; }));
}

std::optional<core::TimeInterval> PeerTable::rate_interval(
    core::ServerId id) const {
  const Row r = find(id);
  if (!rate_on_ || r == kNoRow || (flags_[r] & kObserved) == 0) {
    return std::nullopt;
  }
  return rate_[r].estimator.rate_interval();
}

std::optional<core::TimeInterval> PeerTable::judged_interval(Row r) const {
  if ((flags_[r] & kObserved) == 0 || !rate_[r].has_claim) return std::nullopt;
  return rate_[r].estimator.rate_interval();
}

bool PeerTable::outside_bound(Row r,
                              const core::TimeInterval& interval) const {
  const double bound = rate_[r].claimed + own_delta_;
  return !interval.intersects(core::TimeInterval::from_center_error(0.0, bound));
}

std::vector<core::ServerId> PeerTable::dissonant() const {
  std::vector<core::ServerId> out;
  for (Row r = 0; r < rate_.size(); ++r) {
    const auto interval = judged_interval(r);
    if (interval && outside_bound(r, *interval)) out.push_back(ids_[r]);
  }
  return out;
}

std::optional<core::TimeInterval> PeerTable::refined_own_rate() const {
  // Peer j's measured relative rate r_j: if j's clock is accurate to
  // delta_j, our own rate error lies in -rate_interval(j) inflated by
  // delta_j.
  std::optional<core::TimeInterval> acc;
  for (Row r = 0; r < rate_.size(); ++r) {
    const auto interval = judged_interval(r);
    // Skip dissonant peers, as MM skips inconsistent replies.
    if (!interval || outside_bound(r, *interval)) continue;
    const auto own =
        core::TimeInterval::from_edges(-interval->hi(), -interval->lo())
            .inflated(rate_[r].claimed);
    if (!acc) {
      acc = own;
    } else {
      const auto next = acc->intersect(own);
      if (!next) return std::nullopt;  // consonant set disagrees
      acc = next;
    }
  }
  return acc;
}

}  // namespace mtds::service
