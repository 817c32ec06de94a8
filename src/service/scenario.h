// Scenario DSL: text descriptions of time-service experiments.
//
// Benches and tests build ServiceConfigs in C++; downstream users exploring
// the algorithms want to describe a service, its faults and a timeline of
// events without recompiling.  The format is line-based:
//
//   # a service of three servers, one of which lies about its bound
//   seed 42
//   delay 0 0.005            # one-way delay range [lo, hi] seconds
//   loss 0.05                # message loss probability
//   sample 1.0               # trace sampling period
//   shards 8                 # engine shard count (0 or 1 = one, default)
//   topology full            # full | ring | star | line
//   server algo=MM delta=1e-5 drift=2e-6 error=0.02 offset=0 tau=10
//   server algo=MM delta=1e-5 drift=-3e-6 error=0.03 tau=10 recovery=third pool=2
//   server algo=NONE delta=1.2e-5 drift=0.04 error=0.01 tau=10
//   fault 2 stopped 100      # server 2's clock stops at t=100
//   at 150 partition 0 1     # timeline events applied while running
//   at 250 heal 0 1
//   at 300 join algo=IM delta=1e-4 error=1.0 tau=10
//   at 400 leave 1           # a leave is a crash-stop (peers are not told)
//   at 420 loss 0.2          # network-wide loss probability becomes 0.2
//   at 450 crash 0           # server 0 crash-stops (peers are not told)
//   at 500 restart 0         # ... and restarts with its old neighbours
//   at 520 corrupt-state 0   # scramble server 0's volatile sync state
//   run 600                  # horizon
//
// `sync <ALGO>` sets the default algorithm for subsequent server/join
// lines (a spec's own algo= still wins), and `gossip on` turns on
// fleet-wide gossip cross-notes (an out-of-band channel - notes bypass the
// polling topology).  `threads 1` is accepted and changes nothing: shards
// always run on one thread, and any other count is an error.
//
// Server ids are 0..n-1 in `server` order, and each `at ... join` takes the
// next id in time order.  Every id an `at` action or a `pool=` list names
// must be below the count of servers plus joins, and an action may name a
// joiner only once its join has run: actions run in time order, and
// same-time actions in file order.
//
// A server spec (`server` and `join` lines, and parse_server_spec below) is
// a list of key=value pairs over a base spec; each key sets one ServerSpec
// field.  Booleans are 0|1|true|false.
//
//   algo=MM|IM|IMFT|BYZ|MAX|MEDIAN|MEAN|NONE   algo
//   delta=X          claimed_delta (>= 0): the drift bound it reports with
//   drift=X          simulated_drift: the clock's actual drift
//   error=X          initial_error (>= 0): epsilon at start
//   offset=X         initial_offset: C(start) - start
//   tau=X            poll_period (> 0)
//   recovery=ignore|third   recovery policy on inconsistency
//   pool=I,J,...     recovery_pool: third-server recovery ids
//   adaptive=X       adaptive polling on, error target X (> 0)
//   adaptive-min=X   adaptive.min_period (> 0, <= adaptive-max)
//   adaptive-max=X   adaptive.max_period (> 0)
//   filter=B         use_sample_filter: min-RTT sample per neighbour
//   monitor=B        monitor_rates: Section 5 rate monitor
//   health=B         peer-health layer on
//   quarantine=N     consecutive inconsistencies before quarantine
//                    (implies health=1)
//   release=N        quarantine rounds before probation (0 = sticky)
//   probation=N      consecutive consistent probation rounds to
//                    rehabilitate (>= 1)
//   chaos-drop=P     chaos plane: drop each copy w.p. P in [0, 1)
//   chaos-dup=P      ... duplicate w.p. P in [0, 1)
//   chaos-delay=P    ... hold for a delay spike w.p. P in [0, 1)
//   chaos-delay-max=X  delay spike upper bound, seconds (> 0)
//   chaos-corrupt=P  ... corrupt a field w.p. P in [0, 1)
//   chaos-seed=N     chaos RNG seed
//
// Byzantine adversaries (runtime/adversary.h) attach to declared servers:
//
//   adversary collusion 5 6 rate=0.002 error=0.005   # f colluding liars
//   adversary twofaced 4 magnitude=0.02 error=0.005  # equivocator
//   adversary drift 3 rate=0.001                     # rate-steering liar
//   adversary adaptive 4 margin=0.8 error=0.002      # lies inside bounds
//
// The directive must follow the `server` lines it names.  Strategies are
// deterministic (no randomness), so a seed replays an identical attack.
//
// parse_scenario() validates aggressively and reports the offending line;
// ScenarioRunner executes the timeline against a TimeService.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "service/time_service.h"

namespace mtds::service {

struct ScenarioAction {
  enum class Kind {
    kPartition,
    kHeal,
    kJoin,
    kLoss,
    kCrash,
    kRestart,
    kCorruptState
  };
  core::RealTime at = 0.0;
  Kind kind = Kind::kPartition;
  core::ServerId a = 0, b = 0;  // partition/heal endpoints; `a` for
                                // crash (and leave)/restart
  double value = 0.0;           // loss probability payload
  ServerSpec spec;              // join payload
};

struct Scenario {
  ServiceConfig config;
  std::vector<ScenarioAction> actions;  // sorted by `at`
  core::RealTime horizon = 0.0;         // from `run`; 0 = not specified
};

// Parses one server spec (the key=value list above, '#' starts a comment)
// over `base`; throws std::invalid_argument naming the bad key or value.
// The scenario DSL and examples/timeserverd both read servers through it.
ServerSpec parse_server_spec(const std::string& line, const ServerSpec& base);

// Parses the DSL; throws std::invalid_argument with "line N: ..." on any
// syntax or semantic error.
Scenario parse_scenario(const std::string& text);

// Builds the service and replays the timeline.  The returned service has
// been run to the scenario's horizon (or `override_horizon` if > 0).
class ScenarioRunner {
 public:
  explicit ScenarioRunner(Scenario scenario);

  // Runs to the horizon, applying timeline actions at their times.
  // Returns the (still inspectable) service.
  TimeService& run(core::RealTime override_horizon = 0.0);

  // mtds:test-api(adversary_test inspects the service of each runner it builds)
  TimeService& service() { return *service_; }

 private:
  Scenario scenario_;
  std::unique_ptr<TimeService> service_;
  std::size_t next_action_ = 0;
};

}  // namespace mtds::service
