#include "sim/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mtds::sim {

const char* to_string(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kReset: return "reset";
    case TraceEventKind::kInconsistent: return "inconsistent";
    case TraceEventKind::kRecovery: return "recovery";
    case TraceEventKind::kJoin: return "join";
    case TraceEventKind::kLeave: return "leave";
    case TraceEventKind::kPeerState: return "peer-state";
    case TraceEventKind::kDegraded: return "degraded";
    case TraceEventKind::kByzantineSuspect: return "byzantine-suspect";
    case TraceEventKind::kGossipConviction: return "gossip-conviction";
    case TraceEventKind::kStateCorrupt: return "state-corrupt";
  }
  return "?";
}

std::size_t Trace::count_events(TraceEventKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const TraceEvent& e) { return e.kind == kind; }));
}

std::size_t Trace::count_events(ServerId id, TraceEventKind kind) const {
  return static_cast<std::size_t>(std::count_if(
      events_.begin(), events_.end(), [id, kind](const TraceEvent& e) {
        return e.server == id && e.kind == kind;
      }));
}

std::vector<RealTime> Trace::sample_times() const {
  std::vector<RealTime> times;
  times.reserve(samples_.size());
  for (const auto& s : samples_) times.push_back(s.t);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

std::vector<Sample> Trace::samples_at(RealTime t, double tol) const {
  std::vector<Sample> out;
  for (const auto& s : samples_) {
    if (abs(s.t - t) <= Duration{tol}) out.push_back(s);
  }
  return out;
}

void Trace::clear() {
  samples_.clear();
  events_.clear();
}

TraceMerger::TraceMerger(std::vector<Trace*> shards)
    : shards_(std::move(shards)), pos_(shards_.size(), 0) {}

namespace {

// Appends the sorted runs run(0..n-1) to `out` in (t, run index) order;
// `pos` is per-run cursor scratch.  A linear scan over runs per emitted
// entry: S is small (single digits by default), so this beats a heap's
// bookkeeping in practice.
template <typename Run>
void merge_runs(std::vector<std::size_t>& pos, Run run, Trace& out) {
  const std::size_t n = pos.size();
  std::fill(pos.begin(), pos.end(), 0);
  for (;;) {
    std::size_t best = n;
    for (std::size_t k = 0; k < n; ++k) {
      if (pos[k] >= run(k).size()) continue;
      if (best == n || run(k)[pos[k]].t < run(best)[pos[best]].t) {
        best = k;  // strict <: ties resolve to the lowest shard index
      }
    }
    if (best == n) break;
    out.record(run(best)[pos[best]++]);
  }
}

}  // namespace

void TraceMerger::merge_into(Trace& out) {
  merge_runs(
      pos_, [this](std::size_t k) -> auto& { return shards_[k]->samples(); },
      out);
  merge_runs(
      pos_, [this](std::size_t k) -> auto& { return shards_[k]->events(); },
      out);
  for (Trace* shard : shards_) shard->clear();
}

std::string Trace::samples_csv() const {
  std::string out = "t,server,clock,error,offset\n";
  char buf[160];
  for (const auto& s : samples_) {
    std::snprintf(buf, sizeof(buf), "%.9g,%u,%.9g,%.9g,%.9g\n", s.t.seconds(),
                  s.server, s.clock.seconds(), s.error.seconds(),
                  core::offset_from_true(s.clock, s.t).seconds());
    out += buf;
  }
  return out;
}

}  // namespace mtds::sim
