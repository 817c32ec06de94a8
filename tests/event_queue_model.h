// Reference model for sim::EventQueue's execution order.
//
// QueueModel drives an EventQueue - timers and sink deliveries - beside a
// std::set of the (time, seq) keys of every pending event, the order one
// sorted set of all events gives, and records the first event that runs
// out of that order, the first run count, now() or next_time() that
// disagrees with the set, and the first cancel() whose answer does.  The
// model mirrors the queue's one seq counter: at() and deliver() both take
// the next seq, so every schedule goes through the model, including those
// events make while they run.
//
// An operation stream drives it: event_queue_test feeds a seeded stream,
// and fuzz/fuzz_event_queue.cc one decoded from bytes.  Delays are drawn
// relative to the queue's ring span, so a stream reaches every tier: the
// overflow heap, the run, the bucket lists and the keys beyond one turn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace mtds::sim::model {

enum class OpKind : std::uint8_t {
  kAt,         // timer at now + delay
  kCancel,     // cancel the timer `index` picks (it may have run)
  kDeliver,    // one delivery at now + delay
  kBurst,      // 1 + index % 64 deliveries, delays drawn from `delay` on
  kStep,       // step()
  kRunBefore,  // run_before(now + delay)
  kRunUntil,   // run_until(now + delay)
  kRunAt,      // run_at(next_time()) when anything is pending
  kNextTime,   // next_time()
  kCount
};

struct Operation {
  OpKind kind = OpKind::kStep;
  std::uint8_t delay = 0;  // delay code, see QueueModel::delay_of
  std::uint8_t child = 0;  // the event, run, delivers after delay_of(child)
                           // when child & 1 (a handler's send)
  std::uint8_t index = 0;
};

class QueueModel {
 public:
  // Pending events stop growing at this count, so a long stream stays
  // small.
  static constexpr std::size_t kMaxPending = 4096;

  explicit QueueModel(core::Duration span) : span_(span.seconds()) {
    queue_.set_delivery_sink(this, &QueueModel::sink, span);
  }

  QueueModel(const QueueModel&) = delete;
  QueueModel& operator=(const QueueModel&) = delete;

  // A delay of the ring's scale from one byte: zero, the span itself,
  // fractions of it (in one bucket, across the ring, on a grid that ties
  // times), and up to ten spans beyond it.  A zero span draws on a scale
  // of 1 ms.
  double delay_of(std::uint8_t code) const {
    const double scale = span_ > 0 ? span_ : 1e-3;
    const double frac = static_cast<double>(code >> 3) / 31.0;
    switch (code & 7) {
      case 0: return 0.0;
      case 1: return scale;
      case 2:
      case 3: return scale * frac;
      case 4: return scale * frac / 1024.0;
      case 5: return scale * static_cast<double>((code >> 3) & 3) / 4.0;
      case 6: return scale * (1.0 + 9.0 * frac);
      default: return scale * frac * 1.5;
    }
  }

  void apply(const Operation& op) {
    if (!error_.empty()) return;
    const double now = queue_.now().seconds();
    switch (op.kind) {
      case OpKind::kAt:
        schedule_timer(now + delay_of(op.delay), op.child);
        break;
      case OpKind::kCancel:
        cancel(op.index);
        break;
      case OpKind::kDeliver:
        schedule_delivery(now + delay_of(op.delay), op.child);
        break;
      case OpKind::kBurst: {
        const int n = 1 + op.index % 64;
        for (int i = 0; i < n; ++i) {
          const auto code = static_cast<std::uint8_t>(op.delay + 37 * i);
          schedule_delivery(now + delay_of(code), op.child);
        }
        break;
      }
      case OpKind::kStep: {
        const bool any = !pending_.empty();
        run_calls_ = 0;
        if (queue_.step() != any) fail("step() disagrees with emptiness");
        if (run_calls_ != (any ? 1u : 0u)) fail("step() ran a wrong count");
        break;
      }
      case OpKind::kRunBefore: {
        const double end = now + delay_of(op.delay);
        run_calls_ = 0;
        const std::size_t n = queue_.run_before(end);
        check_window(n, end, /*inclusive=*/false);
        break;
      }
      case OpKind::kRunUntil: {
        const double end = now + delay_of(op.delay);
        run_calls_ = 0;
        const std::size_t n = queue_.run_until(end);
        check_window(n, end, /*inclusive=*/true);
        break;
      }
      case OpKind::kRunAt: {
        if (pending_.empty()) break;
        const double t = pending_.begin()->first;
        if (queue_.next_time().seconds() != t) fail("next_time() at run_at");
        run_calls_ = 0;
        const std::size_t n = queue_.run_at(t);
        if (n != run_calls_) fail("run_at() miscounted");
        if (!pending_.empty() && pending_.begin()->first <= t) {
          fail("run_at() left an event at its time");
        }
        break;
      }
      case OpKind::kNextTime:
        check_next_time();
        break;
      case OpKind::kCount:
        break;
    }
    if (queue_.pending() != pending_.size()) fail("pending() disagrees");
  }

  // Drains the queue; the model must end empty.
  void finish() {
    if (!error_.empty()) return;
    run_calls_ = 0;
    const std::size_t n = queue_.run_all();
    if (n != run_calls_) fail("run_all() miscounted");
    if (!pending_.empty() || !queue_.empty()) fail("events left after run_all");
  }

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }
  std::size_t events_run() const noexcept { return events_run_; }
  std::size_t deliveries_run() const noexcept { return deliveries_run_; }

 private:
  struct Event {
    double time = 0.0;
    bool timer = false;
    std::uint32_t slot = 0;
    std::uint8_t child = 0;
  };

  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " (after " + std::to_string(events_run_) +
               " events, now " + std::to_string(queue_.now().seconds()) + ")";
    }
  }

  bool full() const noexcept { return pending_.size() >= kMaxPending; }

  void schedule_timer(double t, std::uint8_t child) {
    if (full()) return;
    const std::uint64_t seq = seq_++;
    const std::uint64_t id =
        queue_.at(t, [this, seq] { ran(seq); });
    events_[seq] = Event{t, true, 0, child};
    pending_.emplace(t, seq);
    timers_.emplace_back(id, seq);
  }

  void schedule_delivery(double t, std::uint8_t child) {
    if (full()) return;
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(seq_by_slot_.size());
      seq_by_slot_.push_back(0);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    const std::uint64_t seq = seq_++;
    seq_by_slot_[slot] = seq;
    queue_.deliver(t, slot);
    events_[seq] = Event{t, false, slot, child};
    pending_.emplace(t, seq);
  }

  void cancel(std::uint8_t index) {
    if (timers_.empty()) return;
    // Mostly recent timers, sometimes long-run ones.
    const std::size_t pick =
        index < 192 ? timers_.size() - 1 - index % std::min<std::size_t>(
                                                  timers_.size(), 16)
                    : index % timers_.size();
    const auto [id, seq] = timers_[pick];
    const auto it = events_.find(seq);
    const bool live = it != events_.end();
    if (queue_.cancel(id) != live) fail("cancel() disagrees");
    if (live) {
      pending_.erase({it->second.time, seq});
      events_.erase(it);
    }
  }

  static void sink(void* self, std::uint32_t slot) {
    auto* model = static_cast<QueueModel*>(self);
    const std::uint64_t seq = model->seq_by_slot_[slot];
    model->free_slots_.push_back(slot);
    ++model->deliveries_run_;
    model->ran(seq);
  }

  // Event `seq` runs: it must head the set, at now.
  void ran(std::uint64_t seq) {
    ++run_calls_;
    ++events_run_;
    const auto it = events_.find(seq);
    if (it == events_.end()) {
      fail("a cancelled or finished event ran");
      return;
    }
    const Event event = it->second;
    if (pending_.empty() || pending_.begin()->second != seq) {
      fail("event ran out of (time, seq) order");
    }
    if (queue_.now().seconds() != event.time) fail("now() is not its time");
    pending_.erase({event.time, seq});
    events_.erase(it);
    if (event.child & 1) {
      schedule_delivery(event.time + delay_of(event.child >> 1), 0);
    }
  }

  void check_window(std::size_t executed, double end, bool inclusive) {
    if (executed != run_calls_) fail("run window miscounted");
    if (!pending_.empty()) {
      const double head = pending_.begin()->first;
      if (inclusive ? head <= end : head < end) {
        fail("run window left an event inside it");
      }
    }
    if (queue_.now().seconds() < end) fail("run window did not advance now");
  }

  void check_next_time() {
    const double expect = pending_.empty()
                              ? std::numeric_limits<double>::infinity()
                              : pending_.begin()->first;
    if (queue_.next_time().seconds() != expect) fail("next_time() disagrees");
  }

  double span_;
  EventQueue queue_;
  std::uint64_t seq_ = 0;  // mirrors the queue's counter
  std::set<std::pair<double, std::uint64_t>> pending_;  // (time, seq)
  std::map<std::uint64_t, Event> events_;               // pending, by seq
  std::vector<std::pair<std::uint64_t, std::uint64_t>> timers_;  // (id, seq)
  std::vector<std::uint64_t> seq_by_slot_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t run_calls_ = 0;
  std::size_t events_run_ = 0;
  std::size_t deliveries_run_ = 0;
  std::string error_;
};

}  // namespace mtds::sim::model
