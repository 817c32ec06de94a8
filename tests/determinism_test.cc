// Determinism golden test: byte-identical traces, pinned by hash.
//
// Runs shipped scenarios through the simulator and hashes every sample and
// trace event (double fields by bit pattern, so "identical" means
// bit-for-bit).  Every service runs on the sharded engine; the scenarios'
// default (sim_shards = 0) is one shard, and the one-shard goldens were
// pinned on the single-queue engine that one shard replaced - they must hold
// at sim_shards = 1 too.  The pinned values freeze seeded behavior across
// rewrites of the simulation substrate: the EventQueue slab-heap, its
// delivery calendar ring and the dense Network tables were landed against these
// exact hashes, and any future "optimization" that silently reorders events
// or perturbs a single RNG draw fails here instead of in a downstream
// experiment.
//
// The sim touches no libm in these scenarios (uniform delays and the
// integer-based xoshiro RNG are multiply/add only), and the default x86-64
// target has no FMA contraction, so the hashes are stable across -O levels
// and compilers.  If a deliberate behavior change invalidates them, run
// with MTDS_PRINT_TRACE_HASH=1 to print the new values and re-pin, noting
// the change in the commit message.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "service/scenario.h"
#include "scenario_file.h"
#include "sim/trace.h"

namespace mtds::service {
namespace {

using test::read_scenario;

// FNV-1a over the trace's raw field bytes, doubles via their bit patterns.
class TraceHasher {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void mix(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t hash_trace(const sim::Trace& trace) {
  TraceHasher h;
  h.mix(static_cast<std::uint64_t>(trace.samples().size()));
  for (const auto& s : trace.samples()) {
    h.mix(s.t.seconds());
    h.mix(static_cast<std::uint64_t>(s.server));
    h.mix(s.clock.seconds());
    h.mix(s.error.seconds());
  }
  h.mix(static_cast<std::uint64_t>(trace.events().size()));
  for (const auto& e : trace.events()) {
    h.mix(e.t.seconds());
    h.mix(static_cast<std::uint64_t>(e.server));
    h.mix(static_cast<std::uint64_t>(e.kind));
    h.mix(static_cast<std::uint64_t>(e.peer));
    h.mix(e.detail);
  }
  return h.value();
}

std::uint64_t run_and_hash(const std::string& name) {
  ScenarioRunner runner(parse_scenario(read_scenario(name)));
  return hash_trace(runner.run().trace());
}

// Same scenario, forced onto S shards.  Multi-shard hashes differ from the
// one-shard ones by design (per-shard RNG streams draw differently from one
// stream), but they are their own goldens: a function of (scenario, shard
// count) only - the determinism contract of sim/sharded_engine.h.
std::uint64_t run_and_hash_sharded(const std::string& name,
                                   std::uint32_t shards) {
  Scenario scenario = parse_scenario(read_scenario(name));
  scenario.config.sim_shards = shards;
  ScenarioRunner runner(std::move(scenario));
  return hash_trace(runner.run().trace());
}

void check_sharded_golden(const std::string& name, std::uint32_t shards,
                          std::uint64_t expected) {
  const std::uint64_t got = run_and_hash_sharded(name, shards);
  if (std::getenv("MTDS_PRINT_TRACE_HASH") != nullptr) {
    printf("golden %s shards=%u = 0x%016llxull\n", name.c_str(), shards,
           static_cast<unsigned long long>(got));
  }
  EXPECT_EQ(got, expected)
      << name << " (shards=" << shards << "): sharded trace hash changed - "
      << "the engine no longer reproduces the pinned seeded run, or a "
      << "deliberate change needs a re-pin";
}

void check_golden(const std::string& name, std::uint64_t expected) {
  const std::uint64_t got = run_and_hash(name);
  if (std::getenv("MTDS_PRINT_TRACE_HASH") != nullptr) {
    printf("golden %s = 0x%016llxull\n", name.c_str(),
           static_cast<unsigned long long>(got));
  }
  EXPECT_EQ(got, expected)
      << name << ": trace hash changed - the simulation substrate no longer "
      << "reproduces the pinned seeded run (see file comment to re-pin "
      << "after a deliberate behavior change)";
  // Independent of the pinned value: the run reproduces itself in-process.
  EXPECT_EQ(run_and_hash(name), got) << name << ": run-to-run divergence";
  // Forcing one shard is the default engine.
  check_sharded_golden(name, 1, expected);
}

TEST(DeterminismGolden, BasicMM) {
  check_golden("basic_mm.mtds", 0x9b0068991ac02f81ull);
}

TEST(DeterminismGolden, Chaos) {
  check_golden("chaos.mtds", 0xaead831eaeffa401ull);
}

TEST(DeterminismGolden, BasicMMSharded) {
  check_sharded_golden("basic_mm.mtds", 8, 0x3eb12895ee90f253ull);
}

TEST(DeterminismGolden, ChaosSharded) {
  check_sharded_golden("chaos.mtds", 8, 0xbfdda371c84a1226ull);
}

// Byzantine runs are part of the determinism contract too: adversary
// strategies draw no randomness (lies are pure functions of observed
// traffic and the wall clock), so a seeded attack replays bit-for-bit -
// including the equivocation-detector convictions and quarantine
// transitions recorded in the trace.
TEST(DeterminismGolden, ByzantineIMFT) {
  check_golden("byzantine_collusion_imft.mtds", 0x38155ee1dc5ce3ecull);
}

TEST(DeterminismGolden, ByzantineAdaptive) {
  check_golden("byzantine_adaptive.mtds", 0x9c1c9d212edcff11ull);
}

TEST(DeterminismGolden, ByzantineIMFTSharded) {
  check_sharded_golden("byzantine_collusion_imft.mtds", 8,
                       0x77e8ab974c7190c9ull);
}

TEST(DeterminismGolden, ByzantineAdaptiveSharded) {
  check_sharded_golden("byzantine_adaptive.mtds", 8, 0x73da45987ca94569ull);
}

// The gossip trio extends the contract to cross-notes, gossip convictions
// and the corrupt-state fault: the scramble is a pure function of a
// FaultInjector nonce (and the probe/conviction/probation machinery draws
// no randomness of its own), so quarantine, probation and recovery
// trajectories replay bit-for-bit on both engines.
TEST(DeterminismGolden, GossipIMFTStar) {
  check_golden("byzantine_gossip_imft_star.mtds", 0x86a6fb5a322ba287ull);
}

TEST(DeterminismGolden, GossipByzStar) {
  check_golden("byzantine_gossip_byz_star.mtds", 0xc69257a35337d6d1ull);
}

TEST(DeterminismGolden, GossipRecover) {
  check_golden("byzantine_gossip_recover.mtds", 0x97ee309931e4cd16ull);
}

TEST(DeterminismGolden, GossipIMFTStarSharded) {
  check_sharded_golden("byzantine_gossip_imft_star.mtds", 8,
                       0x3176428ea10d4900ull);
}

TEST(DeterminismGolden, GossipByzStarSharded) {
  check_sharded_golden("byzantine_gossip_byz_star.mtds", 8,
                       0x0b83bb2dcb70ddcdull);
}

TEST(DeterminismGolden, GossipRecoverSharded) {
  check_sharded_golden("byzantine_gossip_recover.mtds", 8,
                       0xc2ab7250d876f49aull);
}

}  // namespace
}  // namespace mtds::service
