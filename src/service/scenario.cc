#include "service/scenario.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "runtime/adversary.h"

namespace mtds::service {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + what);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') break;  // comment until end of line
    tokens.push_back(tok);
  }
  return tokens;
}

double parse_double(const std::string& s, std::size_t line) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') fail(line, "not a number: " + s);
  return v;
}

core::ServerId parse_server_id(const std::string& s, std::size_t line,
                               std::size_t limit) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v < 0) {
    fail(line, "not a server id: " + s);
  }
  if (limit > 0 && static_cast<std::size_t>(v) >= limit) {
    fail(line, "server id out of range: " + s);
  }
  return static_cast<core::ServerId>(v);
}

core::SyncAlgorithm parse_algo(const std::string& s, std::size_t line) {
  if (s == "MM") return core::SyncAlgorithm::kMM;
  if (s == "IM") return core::SyncAlgorithm::kIM;
  if (s == "IMFT") return core::SyncAlgorithm::kIMFT;
  if (s == "BYZ") return core::SyncAlgorithm::kBYZ;
  if (s == "MAX") return core::SyncAlgorithm::kMax;
  if (s == "MEDIAN") return core::SyncAlgorithm::kMedian;
  if (s == "MEAN") return core::SyncAlgorithm::kMean;
  if (s == "NONE") return core::SyncAlgorithm::kNone;
  fail(line, "unknown algorithm: " + s);
}

// Parses "key=value ..." pairs into a ServerSpec, starting from `base`
// (which carries scenario-level defaults such as the `sync` algorithm).
ServerSpec parse_server_spec(const std::vector<std::string>& tokens,
                             std::size_t first, std::size_t line,
                             const ServerSpec& base) {
  ServerSpec spec = base;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      fail(line, "expected key=value, got: " + tokens[i]);
    }
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    if (key == "algo") {
      spec.algo = parse_algo(value, line);
    } else if (key == "delta") {
      spec.claimed_delta = parse_double(value, line);
    } else if (key == "drift") {
      spec.actual_drift = parse_double(value, line);
    } else if (key == "error") {
      spec.initial_error = parse_double(value, line);
    } else if (key == "offset") {
      spec.initial_offset = core::Offset{parse_double(value, line)};
    } else if (key == "tau") {
      spec.poll_period = parse_double(value, line);
    } else if (key == "recovery") {
      if (value == "ignore") {
        spec.recovery = RecoveryPolicy::kIgnore;
      } else if (value == "third") {
        spec.recovery = RecoveryPolicy::kThirdServer;
      } else {
        fail(line, "unknown recovery policy: " + value);
      }
    } else if (key == "pool") {
      // Comma-separated server ids usable for third-server recovery.
      std::size_t pos = 0;
      while (pos < value.size()) {
        const auto comma = value.find(',', pos);
        const std::string item = value.substr(pos, comma - pos);
        if (!item.empty()) {
          spec.recovery_pool.push_back(parse_server_id(item, line, 0));
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (key == "monitor") {
      spec.monitor_rates = value != "0" && value != "false";
    } else if (key == "health") {
      spec.health.enabled = value != "0" && value != "false";
    } else if (key == "quarantine") {
      // Consecutive inconsistencies before quarantine; implies health=1.
      const double n = parse_double(value, line);
      if (n < 0) fail(line, "quarantine must be >= 0");
      spec.health.quarantine_after = static_cast<std::uint32_t>(n);
      if (spec.health.quarantine_after > 0) spec.health.enabled = true;
    } else if (key == "release") {
      // Rounds a quarantined peer serves before probation; 0 = sticky.
      const double n = parse_double(value, line);
      if (n < 0) fail(line, "release must be >= 0");
      spec.health.release_after = static_cast<std::uint32_t>(n);
    } else if (key == "probation") {
      // Consecutive consistent probation rounds needed to rehabilitate.
      const double n = parse_double(value, line);
      if (n < 1) fail(line, "probation must be >= 1");
      spec.health.probation_rounds = static_cast<std::uint32_t>(n);
    } else {
      fail(line, "unknown server attribute: " + key);
    }
  }
  if (spec.claimed_delta < 0 || spec.initial_error < 0 ||
      spec.poll_period <= 0) {
    fail(line, "server spec out of range (delta/error >= 0, tau > 0)");
  }
  return spec;
}

core::ClockFaultKind parse_fault_kind(const std::string& s, std::size_t line) {
  if (s == "stopped") return core::ClockFaultKind::kStopped;
  if (s == "racing") return core::ClockFaultKind::kRacing;
  if (s == "sticky") return core::ClockFaultKind::kStickyReset;
  fail(line, "unknown fault kind: " + s);
}

}  // namespace

Scenario parse_scenario(const std::string& text) {
  Scenario scenario;
  ServiceConfig& cfg = scenario.config;

  std::istringstream in(text);
  std::string raw;
  std::size_t line = 0;
  bool topology_set = false;
  ServerSpec default_spec;  // scenario-level defaults (`sync <ALGO>`)
  while (std::getline(in, raw)) {
    ++line;
    const auto tokens = tokenize(raw);
    if (tokens.empty()) continue;
    const std::string& cmd = tokens[0];

    if (cmd == "seed") {
      if (tokens.size() != 2) fail(line, "usage: seed <n>");
      cfg.seed = static_cast<std::uint64_t>(
          std::strtoull(tokens[1].c_str(), nullptr, 10));
    } else if (cmd == "delay") {
      if (tokens.size() != 3) fail(line, "usage: delay <lo> <hi>");
      cfg.delay_lo = parse_double(tokens[1], line);
      cfg.delay_hi = parse_double(tokens[2], line);
      if (cfg.delay_lo < 0 || cfg.delay_hi < cfg.delay_lo) {
        fail(line, "need 0 <= lo <= hi");
      }
    } else if (cmd == "loss") {
      if (tokens.size() != 2) fail(line, "usage: loss <p>");
      cfg.loss_probability = parse_double(tokens[1], line);
      if (cfg.loss_probability < 0 || cfg.loss_probability >= 1) {
        fail(line, "loss probability must be in [0, 1)");
      }
    } else if (cmd == "sample") {
      if (tokens.size() != 2) fail(line, "usage: sample <period>");
      cfg.sample_interval = parse_double(tokens[1], line);
    } else if (cmd == "shards") {
      // Shard count of the simulation engine; 0 and 1 both mean one shard.
      if (tokens.size() != 2) fail(line, "usage: shards <n>");
      const double n = parse_double(tokens[1], line);
      if (n < 0 || n > 4096) fail(line, "shards must be in [0, 4096]");
      cfg.sim_shards = static_cast<std::uint32_t>(n);
    } else if (cmd == "threads") {
      // Worker threads for the sharded engine; never affects results.
      if (tokens.size() != 2) fail(line, "usage: threads <n>");
      const double n = parse_double(tokens[1], line);
      if (n < 1 || n > 256) fail(line, "threads must be in [1, 256]");
      cfg.sim_threads = static_cast<std::uint32_t>(n);
    } else if (cmd == "topology") {
      if (tokens.size() != 2) fail(line, "usage: topology full|ring|star|line");
      topology_set = true;
      if (tokens[1] == "full") {
        cfg.topology = Topology::kFull;
      } else if (tokens[1] == "ring") {
        cfg.topology = Topology::kRing;
      } else if (tokens[1] == "star") {
        cfg.topology = Topology::kStar;
      } else if (tokens[1] == "line") {
        cfg.topology = Topology::kLine;
      } else {
        fail(line, "unknown topology: " + tokens[1]);
      }
    } else if (cmd == "sync") {
      // Default algorithm for subsequent `server` / `join` lines (a spec's
      // own algo= still wins).
      if (tokens.size() != 2) fail(line, "usage: sync <ALGO>");
      default_spec.algo = parse_algo(tokens[1], line);
    } else if (cmd == "gossip") {
      // Fleet-wide cross-notes switch (see ServiceConfig::gossip).
      if (tokens.size() != 2) fail(line, "usage: gossip on|off");
      if (tokens[1] == "on") {
        cfg.gossip = true;
      } else if (tokens[1] == "off") {
        cfg.gossip = false;
      } else {
        fail(line, "usage: gossip on|off");
      }
    } else if (cmd == "server") {
      cfg.servers.push_back(parse_server_spec(tokens, 1, line, default_spec));
    } else if (cmd == "fault") {
      if (tokens.size() < 4 || tokens.size() > 5) {
        fail(line, "usage: fault <server> stopped|racing|sticky <start> [param]");
      }
      const auto id = parse_server_id(tokens[1], line, cfg.servers.size());
      core::ClockFault fault;
      fault.kind = parse_fault_kind(tokens[2], line);
      fault.start = parse_double(tokens[3], line);
      fault.param = tokens.size() == 5 ? parse_double(tokens[4], line) : 2.0;
      cfg.servers[id].fault = fault;
    } else if (cmd == "adversary") {
      // Byzantine takeover of already-declared servers: the strategy
      // observes all their traffic and forges what they send (see
      // runtime/adversary.h).  Must follow the `server` lines it names.
      if (tokens.size() < 3) {
        fail(line, "usage: adversary <strategy> <server...> [key=value...]");
      }
      const std::string& strategy = tokens[1];
      std::vector<core::ServerId> ids;
      std::size_t tok = 2;
      for (; tok < tokens.size(); ++tok) {
        if (tokens[tok].find('=') != std::string::npos) break;
        ids.push_back(parse_server_id(tokens[tok], line, cfg.servers.size()));
      }
      if (ids.empty()) fail(line, "adversary needs at least one server id");
      double magnitude = 0.02;  // twofaced skew, seconds
      double rate = 0.002;      // drift/collusion lie growth, s/s
      double claimed = 0.005;   // claimed error bound on every lie
      double margin = 0.8;      // adaptive: fraction of the victim's bound
      for (; tok < tokens.size(); ++tok) {
        const auto eq = tokens[tok].find('=');
        if (eq == std::string::npos) {
          fail(line, "expected key=value, got: " + tokens[tok]);
        }
        const std::string key = tokens[tok].substr(0, eq);
        const double value = parse_double(tokens[tok].substr(eq + 1), line);
        if (key == "magnitude") {
          magnitude = value;
        } else if (key == "rate") {
          rate = value;
        } else if (key == "error") {
          claimed = value;
        } else if (key == "margin") {
          margin = value;
        } else {
          fail(line, "unknown adversary attribute: " + key);
        }
      }
      // Collusion: every listed server shares one immutable plan (so their
      // lies corroborate) but owns its private strategy instance (so
      // mutable per-endpoint state never crosses shard threads).
      std::shared_ptr<const runtime::CollusionPlan> plan;
      if (strategy == "collusion") {
        auto p = std::make_shared<runtime::CollusionPlan>();
        p->members = ids;
        p->rate = rate;
        p->claimed_error = core::Duration{claimed};
        plan = std::move(p);
      }
      for (core::ServerId id : ids) {
        auto& adversary = cfg.servers[id].chaos.adversary;
        if (strategy == "twofaced") {
          adversary = std::make_shared<runtime::TwoFaced>(
              core::Duration{magnitude}, core::Duration{claimed});
        } else if (strategy == "drift") {
          adversary = std::make_shared<runtime::DriftAmplifier>(
              rate, core::Duration{claimed});
        } else if (strategy == "collusion") {
          adversary = std::make_shared<runtime::Collusion>(plan);
        } else if (strategy == "adaptive") {
          adversary = std::make_shared<runtime::Adaptive>(
              margin, core::Duration{claimed});
        } else {
          fail(line, "unknown adversary strategy: " + strategy);
        }
      }
    } else if (cmd == "at") {
      if (tokens.size() < 3) fail(line, "usage: at <t> <action> ...");
      ScenarioAction action;
      action.at = parse_double(tokens[1], line);
      const std::string& what = tokens[2];
      if (what == "partition" || what == "heal") {
        if (tokens.size() != 5) fail(line, "usage: at <t> " + what + " <a> <b>");
        action.kind = what == "partition" ? ScenarioAction::Kind::kPartition
                                          : ScenarioAction::Kind::kHeal;
        action.a = parse_server_id(tokens[3], line, 0);
        action.b = parse_server_id(tokens[4], line, 0);
      } else if (what == "join") {
        action.kind = ScenarioAction::Kind::kJoin;
        action.spec = parse_server_spec(tokens, 3, line, default_spec);
      } else if (what == "leave") {
        if (tokens.size() != 4) fail(line, "usage: at <t> leave <server>");
        action.kind = ScenarioAction::Kind::kLeave;
        action.a = parse_server_id(tokens[3], line, 0);
      } else if (what == "loss") {
        if (tokens.size() != 4) fail(line, "usage: at <t> loss <p>");
        action.kind = ScenarioAction::Kind::kLoss;
        action.value = parse_double(tokens[3], line);
        if (action.value < 0 || action.value >= 1) {
          fail(line, "loss probability must be in [0, 1)");
        }
      } else if (what == "crash" || what == "restart") {
        if (tokens.size() != 4) {
          fail(line, "usage: at <t> " + what + " <server>");
        }
        action.kind = what == "crash" ? ScenarioAction::Kind::kCrash
                                      : ScenarioAction::Kind::kRestart;
        action.a = parse_server_id(tokens[3], line, 0);
      } else if (what == "corrupt-state") {
        if (tokens.size() != 4) {
          fail(line, "usage: at <t> corrupt-state <server>");
        }
        action.kind = ScenarioAction::Kind::kCorruptState;
        action.a = parse_server_id(tokens[3], line, 0);
      } else {
        fail(line, "unknown action: " + what);
      }
      scenario.actions.push_back(std::move(action));
    } else if (cmd == "run") {
      if (tokens.size() != 2) fail(line, "usage: run <horizon>");
      scenario.horizon = parse_double(tokens[1], line);
      if (scenario.horizon <= 0) fail(line, "horizon must be > 0");
    } else {
      fail(line, "unknown directive: " + cmd);
    }
  }

  if (cfg.servers.empty()) {
    throw std::invalid_argument("scenario declares no servers");
  }
  if (!topology_set) cfg.topology = Topology::kFull;
  std::stable_sort(scenario.actions.begin(), scenario.actions.end(),
                   [](const ScenarioAction& x, const ScenarioAction& y) {
                     return x.at < y.at;
                   });
  return scenario;
}

ScenarioRunner::ScenarioRunner(Scenario scenario)
    : scenario_(std::move(scenario)),
      service_(std::make_unique<TimeService>(scenario_.config)) {}

TimeService& ScenarioRunner::run(core::RealTime override_horizon) {
  const core::RealTime horizon =
      override_horizon > 0 ? override_horizon : scenario_.horizon;
  if (horizon <= 0) {
    throw std::invalid_argument("scenario has no horizon (add a `run` line)");
  }
  while (next_action_ < scenario_.actions.size() &&
         scenario_.actions[next_action_].at <= horizon) {
    const ScenarioAction& action = scenario_.actions[next_action_];
    service_->run_until(action.at);
    switch (action.kind) {
      case ScenarioAction::Kind::kPartition:
        service_->network().set_partitioned(action.a, action.b, true);
        break;
      case ScenarioAction::Kind::kHeal:
        service_->network().set_partitioned(action.a, action.b, false);
        break;
      case ScenarioAction::Kind::kJoin:
        service_->add_server(action.spec);
        break;
      case ScenarioAction::Kind::kLoss:
        service_->network().set_loss_probability(action.value);
        break;
      case ScenarioAction::Kind::kLeave:  // leaving is a crash-stop
      case ScenarioAction::Kind::kCrash:
        service_->crash_server(action.a);
        break;
      case ScenarioAction::Kind::kRestart:
        service_->restart_server(action.a);
        break;
      case ScenarioAction::Kind::kCorruptState:
        service_->corrupt_server_state(action.a);
        break;
    }
    ++next_action_;
  }
  service_->run_until(horizon);
  return *service_;
}

}  // namespace mtds::service
