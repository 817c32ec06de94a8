#include "sim/sharded_engine.h"

#include <limits>
#include <stdexcept>

namespace mtds::sim {

ShardedEngine::ShardedEngine(std::vector<EventQueue*> queues)
    : queues_(std::move(queues)) {
  if (queues_.empty()) {
    throw std::invalid_argument("ShardedEngine: no shard queues");
  }
}

// mtds:no-alloc
void ShardedEngine::run_until(RealTime t_target, Duration lookahead) {
  // One shard has no cross-shard link, hence no lookahead bound.
  const Duration L = queues_.size() == 1
                         ? Duration{std::numeric_limits<double>::infinity()}
                     : lookahead < Duration{0.0} ? Duration{0.0}
                                                 : lookahead;
  last_windows_ = 0;
  for (;;) {
    RealTime t_min{std::numeric_limits<double>::infinity()};
    for (EventQueue* q : queues_) {
      const RealTime t = q->next_time();
      if (t < t_min) t_min = t;
    }
    if (t_min > t_target) break;

    ++last_windows_;
    if (L > Duration{0.0} && t_min + L <= t_target) {
      // Exclusive window [t_min, t_min + L): cross-shard arrivals land at
      // >= t_min + L, past the window end, so shards are independent.
      const RealTime w_end = t_min + L;
      for (EventQueue* q : queues_) q->run_before(w_end);
    } else if (L > Duration{0.0}) {
      // Final stretch: horizon closer than one window (always, at S = 1).
      // Every remaining event at u <= t_target sends cross-shard arrivals
      // at >= t_min + L > t_target, beyond this run entirely - drain to the
      // horizon in one pass.
      for (EventQueue* q : queues_) q->run_until(t_target);
    } else {
      // Zero lookahead: lockstep over one timestamp.  Each shard runs its
      // events at exactly t_min; their cross-shard sends arrive at >= t_min
      // and are scheduled by the barrier hook for later rounds, matching a
      // single queue's FIFO processing of same-time arrivals after their
      // senders.
      for (EventQueue* q : queues_) q->run_at(t_min);
    }
    if (barrier_hook_) barrier_hook_();
  }
  // All pending events now lie beyond t_target; align every shard clock so
  // barrier-time observations and membership actions see a consistent now.
  for (EventQueue* q : queues_) q->advance_to(t_target);
}

}  // namespace mtds::sim
