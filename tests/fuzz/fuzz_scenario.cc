// Fuzz entry for the scenario DSL parser.
//
// Contract under test: parse_scenario() either throws
// std::invalid_argument with a "line N:" diagnostic or returns a Scenario
// whose every number is finite - the horizon, each action time, the
// network's delay range, loss and sample period, and each server's (and
// each joiner's) delta, drift, initial error, offset and tau.  A NaN or
// infinite value that slips through makes a run spin forever or every
// interval check vacuous, so it aborts here like a crash.  The parser must
// never crash, hang, or trip a sanitizer on arbitrary bytes.  The committed
// scenarios/*.mtds files seed the corpus, so mutations start from inputs
// that reach deep into the grammar instead of dying at the first token.
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "service/scenario.h"

#include "fuzz/file_driver.h"

namespace {

void require_finite(double v) {
  if (!std::isfinite(v)) std::abort();
}

void require_finite(const mtds::service::ServerSpec& spec) {
  require_finite(spec.claimed_delta);
  require_finite(spec.simulated_drift);
  require_finite(spec.initial_error.seconds());
  require_finite(spec.initial_offset.seconds());
  require_finite(spec.poll_period.seconds());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  mtds::service::Scenario scenario;
  try {
    scenario = mtds::service::parse_scenario(text);
  } catch (const std::invalid_argument&) {
    // Rejection with a diagnostic is the documented behaviour for
    // malformed input; anything else escaping is a bug worth the crash.
    return 0;
  }
  require_finite(scenario.horizon.seconds());
  for (const auto& action : scenario.actions) {
    require_finite(action.at.seconds());
    if (action.kind == mtds::service::ScenarioAction::Kind::kJoin) {
      require_finite(action.spec);
    }
  }
  const auto& config = scenario.config;
  require_finite(config.delay_lo.seconds());
  require_finite(config.delay_hi.seconds());
  require_finite(config.loss_probability);
  require_finite(config.sample_interval.seconds());
  for (const auto& spec : config.servers) require_finite(spec);
  return 0;
}
