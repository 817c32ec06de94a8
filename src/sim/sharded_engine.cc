#include "sim/sharded_engine.h"

#include <limits>
#include <stdexcept>

namespace mtds::sim {

ShardedEngine::ShardedEngine(std::vector<EventQueue*> queues,
                             unsigned num_threads)
    : queues_(std::move(queues)) {
  if (queues_.empty()) {
    throw std::invalid_argument("ShardedEngine: no shard queues");
  }
  stride_ = num_threads == 0 ? 1 : num_threads;  // read-only once helpers run
  helpers_.reserve(stride_ - 1);
  for (unsigned h = 1; h < stride_; ++h) {
    helpers_.emplace_back([this, h] { helper_loop(h); });
  }
}

ShardedEngine::~ShardedEngine() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

// Static shard-cyclic schedule: thread h owns shards h, h+T, h+2T, ...  The
// assignment affects load balance only, never results - each shard's window
// is self-contained.
void ShardedEngine::run_shards(unsigned thread,
                               const std::function<void(std::size_t)>& job) {
  for (std::size_t s = thread; s < queues_.size(); s += stride_) job(s);
}

void ShardedEngine::helper_loop(unsigned thread) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      util::MutexLock lock(mu_);
      while (!stop_ && generation_ == seen) work_ready_.wait(mu_);
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    run_shards(thread, *job);
    {
      util::MutexLock lock(mu_);
      if (--remaining_ == 0) work_done_.notify_one();
    }
  }
}

// mtds:no-alloc
void ShardedEngine::run_window(const std::function<void(std::size_t)>& job) {
  if (helpers_.empty()) {
    run_shards(0, job);
    return;
  }
  {
    util::MutexLock lock(mu_);
    job_ = &job;
    remaining_ = helpers_.size();
    ++generation_;
  }
  work_ready_.notify_all();
  run_shards(0, job);
  util::MutexLock lock(mu_);
  while (remaining_ != 0) work_done_.wait(mu_);
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
      run_window([&](std::size_t s) { queues_[s]->run_before(w_end); });
    } else if (L > Duration{0.0}) {
      // Final stretch: horizon closer than one window (always, at S = 1).
      // Every remaining event at u <= t_target sends cross-shard arrivals
      // at >= t_min + L > t_target, beyond this run entirely - drain to the
      // horizon in one pass.
      run_window([&](std::size_t s) { queues_[s]->run_until(t_target); });
    } else {
      // Zero lookahead: lockstep over one timestamp.  Events at exactly
      // t_min run in parallel across shards; their cross-shard sends arrive
      // at >= t_min and are scheduled at the barrier for later rounds,
      // matching a single queue's FIFO processing of same-time arrivals
      // after their senders.
      run_window([&](std::size_t s) { queues_[s]->run_at(t_min); });
    }
    if (barrier_hook_) barrier_hook_();
  }
  // All pending events now lie beyond t_target; align every shard clock so
  // barrier-time observations and membership actions see a consistent now.
  for (EventQueue* q : queues_) q->advance_to(t_target);
}

}  // namespace mtds::sim
