// MICRO: google-benchmark microbenchmarks of the core algorithms and the
// simulation substrate - throughput numbers for the library's hot paths.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/im_sync.h"
#include "core/marzullo.h"
#include "core/mm_sync.h"
#include "service/message.h"
#include "service/time_service.h"
#include "sim/delay_model.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/rng.h"

namespace {

using namespace mtds;
using core::TimeInterval;

std::vector<TimeInterval> random_intervals(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<TimeInterval> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = rng.uniform(-1.0, 1.0);
    out.push_back(TimeInterval::from_center_error(c, rng.uniform(0.1, 2.0)));
  }
  return out;
}

void BM_MarzulloBestIntersection(benchmark::State& state) {
  // Steady state as IMFT runs it: one selection per round against a
  // long-lived scratch workspace, so the sweep allocates nothing.
  const auto intervals = random_intervals(
      static_cast<std::size_t>(state.range(0)), 99);
  core::MarzulloScratch scratch;
  core::BestIntersection best;
  for (auto _ : state) {
    core::best_intersection(intervals, scratch, best);
    benchmark::DoNotOptimize(best.coverage);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MarzulloBestIntersection)->Range(4, 4096);

void BM_ConsistencyGroups(benchmark::State& state) {
  const auto intervals = random_intervals(
      static_cast<std::size_t>(state.range(0)), 7);
  core::MarzulloScratch scratch;
  for (auto _ : state) {
    auto groups = core::consistency_groups(intervals, scratch);
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConsistencyGroups)->Range(4, 256);

void BM_MMDecision(benchmark::State& state) {
  core::MinMaxErrorSync mm;
  core::LocalState local{100.0, 0.5, 1e-5};
  core::TimeReading reading{1, 100.01, 0.1, 0.004, 100.0};
  for (auto _ : state) {
    auto out = mm.on_reply(local, reading);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MMDecision);

void BM_IMRound(benchmark::State& state) {
  core::IntersectionSync im;
  core::LocalState local{100.0, 0.5, 1e-5};
  sim::Rng rng(3);
  std::vector<core::TimeReading> replies;
  for (int i = 0; i < state.range(0); ++i) {
    replies.push_back({static_cast<core::ServerId>(i),
                       100.0 + rng.uniform(-0.1, 0.1),
                       rng.uniform(0.05, 0.5), rng.uniform(0.0, 0.01),
                       100.0});
  }
  for (auto _ : state) {
    auto out = im.on_round(local, replies);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IMRound)->Range(2, 512);

void BM_EventQueueSchedulePop(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.at(static_cast<double>((i * 7919) % 1000), [] {});
    }
    q.run_all();
    benchmark::DoNotOptimize(q.now());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueSchedulePop);

void BM_EventQueueDrain(benchmark::State& state) {
  // The timer half of the sim's queue: n self-rescheduling timers (one
  // poll timer per simulated server), so the queue sits at a steady depth
  // of n and every fired event schedules its successor.  A TimeService
  // round also schedules one delivery per message, which outnumber its
  // timers by two to three orders of magnitude and which this benchmark
  // does not exercise (BM_EngineRound runs both).  Repoll's 24-byte
  // capture is larger than std::function's 16-byte inline buffer, so each
  // schedule here allocates, which no simulator timer does.  Each
  // benchmark iteration drains one horizon of due timers.  Items = events
  // fired.
  const int n = static_cast<int>(state.range(0));
  sim::EventQueue q;
  std::uint64_t fired = 0;
  struct Repoll {
    sim::EventQueue* q;
    std::uint64_t* fired;
    double period;
    void operator()() const {
      ++*fired;
      q->after(period, Repoll{*this});
    }
  };
  for (int i = 0; i < n; ++i) {
    // Staggered periods keep the firing order shuffled round after round.
    const double period = 1.0 + static_cast<double>((i * 7919) % n) / n;
    q.after(period, Repoll{&q, &fired, period});
  }
  double t = 0.0;
  for (auto _ : state) {
    t += 1.5;
    q.run_until(t);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueDrain)->Range(512, 16384);

void BM_EventQueueScheduleCancel(benchmark::State& state) {
  // Timer churn as the protocol engine produces it: every round schedules a
  // reply-window timer and cancels it when the round completes early.
  const int n = static_cast<int>(state.range(0));
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(n));
  sim::EventQueue q;
  for (auto _ : state) {
    const double base = q.now().seconds();
    for (int i = 0; i < n; ++i) {
      ids[static_cast<std::size_t>(i)] =
          q.at(base + static_cast<double>((i * 7919) % n), [] {});
    }
    for (int i = 0; i < n; i += 2) {
      q.cancel(ids[static_cast<std::size_t>(i)]);
    }
    q.run_all();
    benchmark::DoNotOptimize(q.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleCancel)->Range(256, 16384);

void BM_NetworkFanout(benchmark::State& state) {
  // A poll round's fan-out through the simulated network, as the engine
  // sends it: one sender, one Network::send per target except itself, then
  // drain the deliveries.  Items = copies delivered per second.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  sim::Rng rng(17);
  sim::FixedDelay delay(0.0);
  sim::Network<service::ServiceMessage> net(queue, delay, rng);
  std::uint64_t sink = 0;
  std::vector<core::ServerId> targets;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<core::ServerId>(i);
    net.register_node(id, [&sink](core::RealTime, const auto&) { ++sink; });
    targets.push_back(id);
  }
  constexpr core::ServerId kSender = 0;
  service::ServiceMessage msg;
  msg.type = service::ServiceMessage::Type::kTimeRequest;
  msg.tag = 1;
  for (auto _ : state) {
    for (core::ServerId to : targets) {
      if (to == kSender) continue;
      net.send(kSender, to, msg);
    }
    queue.run_all();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_NetworkFanout)->Range(8, 1024);

void BM_EngineRound(benchmark::State& state) {
  // Full protocol rounds through the sim runtime: n MM servers, one poll
  // round per server per iteration.  Items = server-rounds per second.
  const int n = static_cast<int>(state.range(0));
  service::ServiceConfig cfg;
  cfg.seed = 11;
  cfg.delay_hi = 0.001;
  cfg.sample_interval = 0.0;
  for (int i = 0; i < n; ++i) {
    service::ServerSpec s;
    s.algo = core::SyncAlgorithm::kMM;
    s.claimed_delta = 1e-5;
    s.simulated_drift = (i % 2 ? 1 : -1) * 5e-6;
    s.initial_error = 0.01;
    s.poll_period = 10.0;
    cfg.servers.push_back(s);
  }
  service::TimeService service(cfg);
  double t = 0.0;
  for (auto _ : state) {
    t += 10.0;
    service.run_until(t);
  }
  benchmark::DoNotOptimize(service.now());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineRound)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_ShardedEngineRound(benchmark::State& state) {
  // Full MM poll rounds through the sharded engine.  Args are {servers,
  // shards}: {n, 1} is the one-shard default every service runs on and the
  // in-family baseline; {n, 8} splits the same scenario over 8 shards, run
  // one after another in epoch windows.  The delay floor is positive so the
  // multi-shard rows get a real conservative-lookahead window instead of
  // degenerating to lockstep.  Items = server-rounds per wall second.  The
  // ratio between {n, 8} and {n, 1} is what the window loop and the
  // mailbox flush cost against the smaller per-shard heaps.
  const int n = static_cast<int>(state.range(0));
  service::ServiceConfig cfg;
  cfg.seed = 11;
  cfg.delay_lo = 0.0005;
  cfg.delay_hi = 0.002;
  cfg.sample_interval = 0.0;
  cfg.sim_shards = static_cast<std::uint32_t>(state.range(1));
  for (int i = 0; i < n; ++i) {
    service::ServerSpec s;
    s.algo = core::SyncAlgorithm::kMM;
    s.claimed_delta = 1e-5;
    s.simulated_drift = (i % 2 ? 1 : -1) * 5e-6;
    s.initial_error = 0.01;
    s.poll_period = 10.0;
    cfg.servers.push_back(s);
  }
  service::TimeService service(cfg);
  double t = 0.0;
  for (auto _ : state) {
    t += 10.0;
    service.run_until(t);
  }
  benchmark::DoNotOptimize(service.now());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ShardedEngineRound)
    ->ArgsProduct({{128, 1024}, {1, 8}})
    ->UseRealTime();

void BM_ServiceSimulation(benchmark::State& state) {
  // End-to-end: how many simulated service-seconds per wall second.
  for (auto _ : state) {
    service::ServiceConfig cfg;
    cfg.seed = 5;
    cfg.delay_hi = 0.002;
    cfg.sample_interval = 0.0;
    for (int i = 0; i < state.range(0); ++i) {
      service::ServerSpec s;
      s.algo = core::SyncAlgorithm::kMM;
      s.claimed_delta = 1e-5;
      s.simulated_drift = (i % 2 ? 1 : -1) * 5e-6;
      s.initial_error = 0.01;
      s.poll_period = 10.0;
      cfg.servers.push_back(s);
    }
    service::TimeService service(cfg);
    service.run_until(100.0);
    benchmark::DoNotOptimize(service.now());
  }
  // Items = simulated service-seconds.
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ServiceSimulation)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
