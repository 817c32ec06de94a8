// PeerTable: everything a server keeps about its peers, one row per peer.
//
// The paper's server remembers a little about each neighbour: the last
// reply it accepted (rules MM-2/IM-2, and the cross-round equivocation
// check), whether the neighbour is still in its Section 4 consistency group,
// and - for the Section 5 monitor - the evidence about its rate.  The table
// keeps all of it in one place: a sorted key column of ServerIds with
// parallel value columns, so a reply costs one binary search and a local
// clock reset one rebase.  A feature's column stays empty while the feature
// is off.
//
//   column              holds                                 present when
//   first-hand memory   last reading accepted from the peer    always
//   second-hand note    freshest gossip note about the peer    first note
//   health              reachability/consistency state         health.enabled
//   filter window       last `filter_window` readings          sample_filter
//   rate                relative-rate estimator + claimed δ    monitor_rates
//
// Rows for a server's neighbours are created up front (ProtocolEngine::start
// and add_neighbor); a reply or note from any other server adds its row on
// first contact.  Row indices stay valid until the next row is added.
//
// Health states (the per-peer state machine of the health column):
//
//   healthy     replying normally
//   suspect     a few consecutive polls unanswered
//   dead        persistently unreachable - probed on exponential backoff
//               (with jitter) instead of every round
//   quarantined persistently *inconsistent* (Section 4: a server whose
//               readings keep contradicting ours has left our consistency
//               group) - alive, but its readings are discarded and it is
//               no longer polled
//   probation   a quarantined peer working its way back: polled again, but
//               its readings stay discarded until it has produced
//               `probation_rounds` consecutive consistent replies - one
//               good reading never rehabilitates a convicted equivocator
//
// Transitions are driven purely by reply/miss/consistency evidence the
// engine already observes; the engine consults should_poll() when building
// each round's target list.  When no neighbour is reachable the engine
// enters an explicit degraded mode (see protocol_engine.h).
//
// Filter window: both algorithms charge a reply's full round trip against
// its inherited error (rule MM-2's (1+delta)*xi term; IM-2's leading edge).
// Network delay is noisy, so the *best* reply from a neighbour over a short
// window is the one observed through the fastest round trip - the insight
// behind ntpd's clock filter.  best() serves the sample with the smallest
// effective interval width e + (1+delta)*rtt/2, aged to the current local
// clock; a served reading's interval is every bit as valid as when it
// arrived, just less delay-inflated than the latest sample.
//
// Rate column: "There is not enough information in the static arrangement
// of the time server intervals to determine why the system is
// inconsistent.  Instead, the rates of the servers must be examined."  Each
// row's estimator ingests the replies the synchronization loop sees; the
// table answers which peers' measured rate intervals are dissonant with
// their claimed bounds, and what refined bound on this server's own rate
// the consonant peers jointly imply.  A local clock reset restarts every
// estimator (observations across it would corrupt the slope).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/consonance.h"
#include "core/interval.h"
#include "core/reading.h"
#include "core/time_types.h"
#include "sim/rng.h"

namespace mtds::service {

enum class PeerState : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kDead = 2,
  kQuarantined = 3,
  kProbation = 4,
};

const char* to_string(PeerState state) noexcept;

struct PeerHealthPolicy {
  bool enabled = false;
  std::uint32_t suspect_after = 2;  // consecutive unanswered polls -> suspect
  std::uint32_t dead_after = 4;     // consecutive unanswered polls -> dead
  std::uint32_t backoff_start = 2;  // first probe interval once dead (rounds)
  std::uint32_t backoff_max = 8;    // probe interval cap (rounds)
  double jitter = 0.25;             // extra rounds ~ U[0, jitter * interval]
  std::uint32_t quarantine_after = 0;  // consecutive inconsistencies before
                                       // quarantine; 0 = never quarantine
  std::uint32_t release_after = 0;     // quarantine rounds before probation;
                                       // 0 = sticky quarantine, never released
  std::uint32_t probation_rounds = 3;  // consecutive consistent probation
                                       // rounds required to re-earn healthy
};

// Which columns a table carries, and their parameters.
struct PeerTableOptions {
  PeerHealthPolicy health;  // health column when health.enabled
  bool sample_filter = false;
  std::size_t filter_window = 8;  // samples kept per peer (ntpd uses 8)
  // Samples older than this (local clock time) are not served: stale
  // offsets are only as good as their drift aging.
  core::Duration filter_max_age{120.0};
  bool monitor_rates = false;
  double own_delta = 0.0;  // this server's claimed bound: the reference rate
};

class PeerTable {
 public:
  using Row = std::uint32_t;
  static constexpr Row kNoRow = ~Row{0};

  // What a server remembers of one reading of a peer's clock, on its own
  // clock axis (rebased across local resets).
  struct Memory {
    core::ClockTime c{0.0};      // the peer's clock value
    core::Duration e{0.0};       // the peer's error bound
    core::ClockTime local{0.0};  // our clock at the reading
    core::Duration rtt{0.0};     // own-clock round trip of the reading
  };

  // Fires on every health transition, inside the engine's serialization
  // domain.
  using TransitionHook =
      std::function<void(core::ServerId, PeerState from, PeerState to)>;

  // Borrows the RNG (the engine's own stream) for probe jitter.
  PeerTable(const PeerTableOptions& options, sim::Rng* rng);

  void set_transition_hook(TransitionHook hook) { hook_ = std::move(hook); }

  // --- rows ---------------------------------------------------------------
  Row find(core::ServerId id) const;  // kNoRow when the peer has no row
  Row row(core::ServerId id);         // find, adding the row when missing
  void reserve(std::size_t rows);     // sizes every present column once
  core::ServerId id(Row r) const { return ids_[r]; }

  // --- reading memories ---------------------------------------------------
  // First-hand: the last reading accepted from the peer.  Second-hand: the
  // freshest gossip note about it.  The *_rows() spans list the rows that
  // hold one, in the order each first got it.
  bool has_first_hand(Row r) const { return (flags_[r] & kFirstHand) != 0; }
  Memory& first_hand(Row r) { return first_[r]; }
  void set_first_hand(Row r, const Memory& m);
  std::span<const Row> first_hand_rows() const noexcept { return first_order_; }

  bool has_second_hand(Row r) const { return (flags_[r] & kSecondHand) != 0; }
  Memory& second_hand(Row r) { return second_[r]; }
  void set_second_hand(Row r, const Memory& m);
  std::span<const Row> second_hand_rows() const noexcept {
    return second_order_;
  }

  // A restarted server must not compare across incarnations: drops both
  // memories (the other columns keep their state).
  void clear_memories();

  // Local clock reset by `jump` (= new clock - old clock): every stamp on
  // the local axis moves with it, and the rate estimators restart.
  void rebase(core::Duration jump);

  // --- health column ------------------------------------------------------
  bool health_on() const noexcept { return health_on_; }

  // kHealthy when the column is off or the peer has no row.
  PeerState state(Row r) const {
    return health_on_ ? health_[r].state : PeerState::kHealthy;
  }
  PeerState peer_state(core::ServerId id) const;

  // Round planning: whether this round should send to the peer.  Healthy,
  // suspect and probation peers are always polled; dead peers consume their
  // backoff countdown and are probed only when it expires; quarantined
  // peers are not polled, but with release_after > 0 each skipped round
  // counts toward release into probation.  Advances per-round probe state -
  // call exactly once per peer per round.
  bool should_poll(Row r);

  // Evidence (the column must be on).  note_reply is any paired reply
  // (liveness: dead/suspect -> healthy; quarantine is sticky - an
  // inconsistent server is alive, just untrusted).  note_missed is a poll
  // the peer failed to answer within the round.  note_inconsistent /
  // note_consistent track the Section 4 consistency streak that drives
  // quarantine.
  void note_reply(Row r);
  void note_missed(Row r);
  void note_inconsistent(Row r);
  void note_consistent(Row r);

  // Proof-grade evidence: the peer's successive readings were mutually
  // impossible under the declared drift bound (cross-round equivocation).
  // Unlike note_inconsistent - statistical suspicion that must accumulate a
  // streak - a physical impossibility quarantines immediately.  Policies
  // with quarantine_after == 0 ("never quarantine") are still honored.
  void note_byzantine(Row r);

  // Probation evidence: the peer answered a probation-round poll with a
  // reading consistent with everything we know.  After `probation_rounds`
  // consecutive such rounds the peer re-earns kHealthy; any byzantine or
  // inconsistent evidence in between re-quarantines it (the release
  // countdown starts over).  No-op unless the peer is on probation.
  void note_probation_consistent(Row r);

  // Peers a round can still draw readings from (healthy or suspect).
  std::size_t reachable_count(const std::vector<core::ServerId>& peers) const;

  // --- filter column ------------------------------------------------------
  bool filter_on() const noexcept { return filter_on_; }
  void add_sample(Row r, const core::TimeReading& reading);
  // mtds:test-api(sample_filter_test checks the window size)
  std::size_t samples(Row r) const {
    return filter_on_ ? filter_[r].buf.size() : 0;
  }

  // The best sample of the peer, aged to local clock time `local_now` for a
  // server with drift bound `delta`: its offset is preserved, its error
  // inflated by delta * (local_now - receipt).  nullopt when no usable
  // sample exists.
  std::optional<core::TimeReading> best(Row r, core::ClockTime local_now,
                                        double delta) const;

  // Clears `out` and refills it with the best sample of every peer that has
  // one, in ascending ServerId order (the caller keeps the buffer across
  // rounds, so its capacity is paid exactly once).
  void best_all_into(core::ClockTime local_now, double delta,
                     core::Readings& out) const;

  // --- rate column --------------------------------------------------------
  bool rates_on() const noexcept { return rate_on_; }

  // Feeds one reply; the peer's clock is midpoint-adjusted by half the
  // round trip before the offset is recorded.
  void observe(Row r, const core::TimeReading& reading);

  // Remembers a peer's claimed bound (from configuration or a directory);
  // consonance checks need it.
  void set_claimed_delta(core::ServerId id, double delta);

  // Peers observed at least once.
  // mtds:test-api(rate_monitor_test and time_server_test count observed peers)
  std::size_t rate_neighbours() const;

  // Measured relative-rate interval of one peer; nullopt until its window
  // spans enough local time.
  // mtds:test-api(rate_monitor_test checks the measured rate of one peer)
  std::optional<core::TimeInterval> rate_interval(core::ServerId id) const;

  // Peers, in ascending ServerId order, whose measured rate interval is
  // provably outside the consonance bound |rate| <= delta_j + delta_own.
  std::vector<core::ServerId> dissonant() const;

  // Intersection of the consonant peers' implied own-rate intervals: a
  // refined bound on this server's own drift.  nullopt when no peer has
  // produced an estimate, or the consonant set itself disagrees.
  std::optional<core::TimeInterval> refined_own_rate() const;

 private:
  enum : std::uint8_t { kFirstHand = 1, kSecondHand = 2, kObserved = 4 };

  struct Health {
    PeerState state = PeerState::kHealthy;
    std::uint32_t miss_streak = 0;
    std::uint32_t inconsistent_streak = 0;
    std::uint32_t probe_interval = 0;     // current backoff interval (rounds)
    std::uint32_t rounds_until_probe = 0; // countdown to the next probe
    std::uint32_t quarantine_rounds = 0;  // rounds spent quarantined
    std::uint32_t probation_streak = 0;   // consecutive consistent probation
                                          // rounds
  };

  // Fixed circular window (it reaches its full size once and then the
  // steady state touches no allocator).  While filling, `next` stays 0 and
  // slots 0..size-1 are oldest-first; once full, `next` is the oldest slot
  // and iteration runs (next + i) % size - oldest to newest, which best()'s
  // strict-< tie-break depends on.
  struct Window {
    std::vector<core::TimeReading> buf;
    std::size_t next = 0;  // overwrite cursor; the oldest slot when full
  };

  struct Rate {
    core::RateEstimator estimator = core::RateEstimator();
    double claimed = 0.0;  // the peer's claimed drift bound
    bool has_claim = false;
  };

  // Applies `f` to every value column that is present.
  template <class F>
  void each_column(F&& f);

  // The interval of an observed peer with a claimed bound, else nullopt.
  std::optional<core::TimeInterval> judged_interval(Row r) const;
  bool outside_bound(Row r, const core::TimeInterval& interval) const;

  void transition(Row r, PeerState to);

  PeerHealthPolicy policy_;
  sim::Rng* rng_;
  TransitionHook hook_;
  std::size_t filter_window_;
  core::Duration filter_max_age_;
  double own_delta_;
  bool health_on_;
  bool filter_on_;
  bool rate_on_;
  bool second_on_ = false;  // set by the first gossip note

  std::vector<core::ServerId> ids_;  // sorted ascending
  std::vector<std::uint8_t> flags_;
  std::vector<Memory> first_;
  std::vector<Memory> second_;
  std::vector<Health> health_;
  std::vector<Window> filter_;
  std::vector<Rate> rate_;
  std::vector<Row> first_order_;   // rows with a first-hand memory
  std::vector<Row> second_order_;  // rows with a second-hand note
};

}  // namespace mtds::service
