#include "service/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "runtime/adversary.h"

namespace mtds::service {
namespace {

// Parse errors carry no line number; parse_scenario() prefixes the line.
[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument(what);
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

double parse_double(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) {
    fail("not a number: " + s);
  }
  return v;
}

std::uint64_t parse_u64(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || s[0] == '-' || *end != '\0') {
    fail("not an unsigned integer: " + s);
  }
  return v;
}

core::ServerId parse_server_id(const std::string& s, std::size_t limit) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v < 0) {
    fail("not a server id: " + s);
  }
  if (static_cast<unsigned long>(v) >= core::kInvalidServer ||
      (limit > 0 && static_cast<std::size_t>(v) >= limit)) {
    fail("server id out of range: " + s);
  }
  return static_cast<core::ServerId>(v);
}

bool parse_bool(const std::string& key, const std::string& s) {
  if (s == "1" || s == "true") return true;
  if (s == "0" || s == "false") return false;
  fail(key + " must be 0|1|true|false, got: '" + s + "'");
}

// A probability in [0, 1).
double parse_probability(const std::string& key, const std::string& s) {
  const double p = parse_double(s);
  if (!(p >= 0 && p < 1)) fail(key + " must be in [0, 1)");
  return p;
}

// A whole number in [lo, hi]; a fraction truncates.
std::uint32_t parse_count(const std::string& key, const std::string& s,
                          double lo, double hi = 1e9) {
  const double n = parse_double(s);
  if (!(n >= lo && n <= hi)) fail(key + " out of range: " + s);
  return static_cast<std::uint32_t>(n);
}

double parse_positive(const std::string& key, const std::string& s) {
  const double v = parse_double(s);
  if (!(v > 0)) fail(key + " must be > 0");
  return v;
}

core::SyncAlgorithm parse_algo(const std::string& s) {
  if (s == "MM") return core::SyncAlgorithm::kMM;
  if (s == "IM") return core::SyncAlgorithm::kIM;
  if (s == "IMFT") return core::SyncAlgorithm::kIMFT;
  if (s == "BYZ") return core::SyncAlgorithm::kBYZ;
  if (s == "MAX") return core::SyncAlgorithm::kMax;
  if (s == "MEDIAN") return core::SyncAlgorithm::kMedian;
  if (s == "MEAN") return core::SyncAlgorithm::kMean;
  if (s == "NONE") return core::SyncAlgorithm::kNone;
  fail("unknown algorithm: " + s);
}

// Parses tokens[first..] as "key=value" pairs over `base` (see scenario.h
// for the keys).
ServerSpec parse_spec_tokens(const std::vector<std::string>& tokens,
                             std::size_t first, const ServerSpec& base) {
  ServerSpec spec = base;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) fail("expected key=value, got: " + tokens[i]);
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    if (key == "algo") {
      spec.algo = parse_algo(value);
    } else if (key == "delta") {
      spec.claimed_delta = parse_double(value);
    } else if (key == "drift") {
      spec.simulated_drift = parse_double(value);
    } else if (key == "error") {
      spec.initial_error = parse_double(value);
    } else if (key == "offset") {
      spec.initial_offset = core::Offset{parse_double(value)};
    } else if (key == "tau") {
      spec.poll_period = parse_double(value);
    } else if (key == "recovery") {
      if (value == "ignore") {
        spec.recovery = RecoveryPolicy::kIgnore;
      } else if (value == "third") {
        spec.recovery = RecoveryPolicy::kThirdServer;
      } else {
        fail("unknown recovery policy: " + value);
      }
    } else if (key == "pool") {
      // Comma-separated server ids usable for third-server recovery.
      std::size_t pos = 0;
      while (pos < value.size()) {
        const auto comma = value.find(',', pos);
        const std::string item = value.substr(pos, comma - pos);
        if (!item.empty()) {
          spec.recovery_pool.push_back(parse_server_id(item, 0));
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (key == "adaptive") {
      spec.adaptive.enabled = true;
      spec.adaptive.error_target = parse_positive(key, value);
    } else if (key == "adaptive-min") {
      spec.adaptive.min_period = parse_positive(key, value);
    } else if (key == "adaptive-max") {
      spec.adaptive.max_period = parse_positive(key, value);
    } else if (key == "filter") {
      spec.use_sample_filter = parse_bool(key, value);
    } else if (key == "monitor") {
      spec.monitor_rates = parse_bool(key, value);
    } else if (key == "health") {
      spec.health.enabled = parse_bool(key, value);
    } else if (key == "quarantine") {  // implies health=1
      spec.health.quarantine_after = parse_count(key, value, 0);
      if (spec.health.quarantine_after > 0) spec.health.enabled = true;
    } else if (key == "release") {
      spec.health.release_after = parse_count(key, value, 0);
    } else if (key == "probation") {
      spec.health.probation_rounds = parse_count(key, value, 1);
    } else if (key == "chaos-drop") {
      spec.chaos.drop = parse_probability(key, value);
    } else if (key == "chaos-dup") {
      spec.chaos.duplicate = parse_probability(key, value);
    } else if (key == "chaos-delay") {
      spec.chaos.delay = parse_probability(key, value);
    } else if (key == "chaos-delay-max") {
      spec.chaos.delay_hi = parse_positive(key, value);
    } else if (key == "chaos-corrupt") {
      spec.chaos.corrupt = parse_probability(key, value);
    } else if (key == "chaos-seed") {
      spec.chaos.seed = parse_u64(value);
    } else {
      fail("unknown server attribute: " + key);
    }
  }
  if (spec.claimed_delta < 0 || spec.initial_error < 0 ||
      spec.poll_period <= 0) {
    fail("server spec out of range (delta/error >= 0, tau > 0)");
  }
  if (spec.adaptive.min_period > spec.adaptive.max_period) {
    fail("adaptive-min must be <= adaptive-max");
  }
  return spec;
}

core::ClockFaultKind parse_fault_kind(const std::string& s) {
  if (s == "stopped") return core::ClockFaultKind::kStopped;
  if (s == "racing") return core::ClockFaultKind::kRacing;
  if (s == "sticky") return core::ClockFaultKind::kStickyReset;
  fail("unknown fault kind: " + s);
}

// Applies one tokenized directive line; `default_spec` carries the
// scenario-level server defaults (`sync <ALGO>`).
void apply_directive(const std::vector<std::string>& tokens,
                     Scenario& scenario, ServerSpec& default_spec) {
  ServiceConfig& cfg = scenario.config;
  const std::string& cmd = tokens[0];
  if (cmd == "seed") {
    if (tokens.size() != 2) fail("usage: seed <n>");
    cfg.seed = parse_u64(tokens[1]);
  } else if (cmd == "delay") {
    if (tokens.size() != 3) fail("usage: delay <lo> <hi>");
    cfg.delay_lo = parse_double(tokens[1]);
    cfg.delay_hi = parse_double(tokens[2]);
    if (cfg.delay_lo < 0 || cfg.delay_hi < cfg.delay_lo) {
      fail("need 0 <= lo <= hi");
    }
  } else if (cmd == "loss") {
    if (tokens.size() != 2) fail("usage: loss <p>");
    cfg.loss_probability = parse_probability("loss probability", tokens[1]);
  } else if (cmd == "sample") {
    if (tokens.size() != 2) fail("usage: sample <period>");
    cfg.sample_interval = parse_double(tokens[1]);
  } else if (cmd == "shards") {
    // Shard count of the simulation engine; 0 and 1 both mean one shard.
    if (tokens.size() != 2) fail("usage: shards <n>");
    cfg.sim_shards = parse_count("shards", tokens[1], 0, 4096);
  } else if (cmd == "threads") {
    // Kept so scenarios that spell out one thread still parse.
    if (tokens.size() != 2 || parse_double(tokens[1]) != 1) {
      fail("threads must be 1: shards always run on one thread");
    }
  } else if (cmd == "topology") {
    if (tokens.size() != 2) fail("usage: topology full|ring|star|line");
    if (tokens[1] == "full") {
      cfg.topology = Topology::kFull;
    } else if (tokens[1] == "ring") {
      cfg.topology = Topology::kRing;
    } else if (tokens[1] == "star") {
      cfg.topology = Topology::kStar;
    } else if (tokens[1] == "line") {
      cfg.topology = Topology::kLine;
    } else {
      fail("unknown topology: " + tokens[1]);
    }
  } else if (cmd == "sync") {
    // Default algorithm for subsequent `server` / `join` lines (a spec's
    // own algo= still wins).
    if (tokens.size() != 2) fail("usage: sync <ALGO>");
    default_spec.algo = parse_algo(tokens[1]);
  } else if (cmd == "gossip") {
    // Fleet-wide cross-notes switch (see ServiceConfig::gossip).
    if (tokens.size() != 2) fail("usage: gossip on|off");
    if (tokens[1] == "on") {
      cfg.gossip = true;
    } else if (tokens[1] == "off") {
      cfg.gossip = false;
    } else {
      fail("usage: gossip on|off");
    }
  } else if (cmd == "server") {
    cfg.servers.push_back(parse_spec_tokens(tokens, 1, default_spec));
  } else if (cmd == "fault") {
    if (tokens.size() < 4 || tokens.size() > 5) {
      fail("usage: fault <server> stopped|racing|sticky <start> [param]");
    }
    const auto id = parse_server_id(tokens[1], cfg.servers.size());
    core::ClockFault fault;
    fault.kind = parse_fault_kind(tokens[2]);
    fault.start = parse_double(tokens[3]);
    fault.param = tokens.size() == 5 ? parse_double(tokens[4]) : 2.0;
    cfg.servers[id].fault = fault;
  } else if (cmd == "adversary") {
    // Byzantine takeover of already-declared servers: the strategy
    // observes all their traffic and forges what they send (see
    // runtime/adversary.h).  Must follow the `server` lines it names.
    if (tokens.size() < 3) {
      fail("usage: adversary <strategy> <server...> [key=value...]");
    }
    const std::string& strategy = tokens[1];
    std::vector<core::ServerId> ids;
    std::size_t tok = 2;
    for (; tok < tokens.size(); ++tok) {
      if (tokens[tok].find('=') != std::string::npos) break;
      ids.push_back(parse_server_id(tokens[tok], cfg.servers.size()));
    }
    if (ids.empty()) fail("adversary needs at least one server id");
    double magnitude = 0.02;  // twofaced skew, seconds
    double rate = 0.002;      // drift/collusion lie growth, s/s
    double claimed = 0.005;   // claimed error bound on every lie
    double margin = 0.8;      // adaptive: fraction of the victim's bound
    for (; tok < tokens.size(); ++tok) {
      const auto eq = tokens[tok].find('=');
      if (eq == std::string::npos) {
        fail("expected key=value, got: " + tokens[tok]);
      }
      const std::string key = tokens[tok].substr(0, eq);
      const double value = parse_double(tokens[tok].substr(eq + 1));
      if (key == "magnitude") {
        magnitude = value;
      } else if (key == "rate") {
        rate = value;
      } else if (key == "error") {
        claimed = value;
      } else if (key == "margin") {
        margin = value;
      } else {
        fail("unknown adversary attribute: " + key);
      }
    }
    // Collusion: every listed server shares one immutable plan (so their
    // lies corroborate) but owns its private strategy instance (its
    // mutable state is per endpoint).
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
        fail("unknown adversary strategy: " + strategy);
      }
    }
  } else if (cmd == "at") {
    if (tokens.size() < 3) fail("usage: at <t> <action> ...");
    ScenarioAction action;
    action.at = parse_double(tokens[1]);
    const std::string& what = tokens[2];
    if (what == "partition" || what == "heal") {
      if (tokens.size() != 5) fail("usage: at <t> " + what + " <a> <b>");
      action.kind = what == "partition" ? ScenarioAction::Kind::kPartition
                                        : ScenarioAction::Kind::kHeal;
      action.a = parse_server_id(tokens[3], 0);
      action.b = parse_server_id(tokens[4], 0);
    } else if (what == "join") {
      action.kind = ScenarioAction::Kind::kJoin;
      action.spec = parse_spec_tokens(tokens, 3, default_spec);
    } else if (what == "loss") {
      if (tokens.size() != 4) fail("usage: at <t> loss <p>");
      action.kind = ScenarioAction::Kind::kLoss;
      action.value = parse_probability("loss probability", tokens[3]);
    } else if (what == "crash" || what == "leave" || what == "restart") {
      // Leaving is a crash-stop.
      if (tokens.size() != 4) fail("usage: at <t> " + what + " <server>");
      action.kind = what == "restart" ? ScenarioAction::Kind::kRestart
                                      : ScenarioAction::Kind::kCrash;
      action.a = parse_server_id(tokens[3], 0);
    } else if (what == "corrupt-state") {
      if (tokens.size() != 4) fail("usage: at <t> corrupt-state <server>");
      action.kind = ScenarioAction::Kind::kCorruptState;
      action.a = parse_server_id(tokens[3], 0);
    } else {
      fail("unknown action: " + what);
    }
    scenario.actions.push_back(std::move(action));
  } else if (cmd == "run") {
    if (tokens.size() != 2) fail("usage: run <horizon>");
    scenario.horizon = parse_double(tokens[1]);
    if (scenario.horizon <= 0) fail("horizon must be > 0");
  } else {
    fail("unknown directive: " + cmd);
  }
}

}  // namespace

ServerSpec parse_server_spec(const std::string& line, const ServerSpec& base) {
  return parse_spec_tokens(tokenize(line), 0, base);
}

Scenario parse_scenario(const std::string& text) {
  Scenario scenario;
  std::istringstream in(text);
  std::string raw;
  std::size_t line = 0;
  ServerSpec default_spec;  // scenario-level defaults (`sync <ALGO>`)
  // The line of each server and action, for the id check below.
  std::vector<std::size_t> server_lines;
  std::vector<std::size_t> action_lines;
  while (std::getline(in, raw)) {
    ++line;
    const auto tokens = tokenize(raw);
    if (tokens.empty()) continue;
    try {
      apply_directive(tokens, scenario, default_spec);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("line " + std::to_string(line) + ": " +
                                  e.what());
    }
    server_lines.resize(scenario.config.servers.size(), line);
    action_lines.resize(scenario.actions.size(), line);
  }

  const std::vector<ServerSpec>& servers = scenario.config.servers;
  if (servers.empty()) {
    throw std::invalid_argument("scenario declares no servers");
  }
  // Actions and recovery pools may name a joiner, so their ids are checked
  // once every line is read: ids run below servers + joins.
  const std::size_t ids =
      servers.size() +
      static_cast<std::size_t>(std::count_if(
          scenario.actions.begin(), scenario.actions.end(),
          [](const ScenarioAction& a) {
            return a.kind == ScenarioAction::Kind::kJoin;
          }));
  const auto check_id = [ids](core::ServerId id, std::size_t at_line) {
    if (id >= ids) {
      throw std::invalid_argument(
          "line " + std::to_string(at_line) + ": server id " +
          std::to_string(id) + " out of range (" + std::to_string(ids) +
          " servers with joiners)");
    }
  };
  for (std::size_t i = 0; i < servers.size(); ++i) {
    for (core::ServerId id : servers[i].recovery_pool) {
      check_id(id, server_lines[i]);
    }
  }
  // The runner applies actions in time order, ties in file order, and a
  // join takes the next id when it runs, so an action may name a joiner
  // only once that joiner's join has run before it.
  std::vector<std::size_t> order(scenario.actions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&scenario](std::size_t x, std::size_t y) {
                     return scenario.actions[x].at < scenario.actions[y].at;
                   });
  std::size_t joined = servers.size();
  for (const std::size_t i : order) {
    const ScenarioAction& action = scenario.actions[i];
    const auto check_joined = [&](core::ServerId id) {
      check_id(id, action_lines[i]);
      if (id >= joined) {
        std::ostringstream msg;
        msg << "line " << action_lines[i] << ": server id " << id
            << " has not joined by t=" << action.at.seconds()
            << " (its join runs later)";
        throw std::invalid_argument(msg.str());
      }
    };
    switch (action.kind) {
      case ScenarioAction::Kind::kPartition:
      case ScenarioAction::Kind::kHeal:
        check_joined(action.b);
        [[fallthrough]];
      case ScenarioAction::Kind::kCrash:
      case ScenarioAction::Kind::kRestart:
      case ScenarioAction::Kind::kCorruptState:
        check_joined(action.a);
        break;
      case ScenarioAction::Kind::kJoin:
        for (core::ServerId id : action.spec.recovery_pool) {
          check_id(id, action_lines[i]);
        }
        ++joined;
        break;
      case ScenarioAction::Kind::kLoss:
        break;
    }
  }
  std::vector<ScenarioAction> sorted;
  sorted.reserve(order.size());
  for (const std::size_t i : order) {
    sorted.push_back(std::move(scenario.actions[i]));
  }
  scenario.actions = std::move(sorted);
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
