// Unit tests for util::SlabHeap (generation-tagged slab + 4-ary heap), the
// timer queue behind the EventQueue and the UDP runtime.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "util/slab_heap.h"

namespace mtds::util {
namespace {

struct Pri {
  double t;
  std::uint64_t seq;
  bool operator<(const Pri& o) const noexcept {
    if (t != o.t) return t < o.t;
    return seq < o.seq;
  }
};

TEST(SlabHeap, PopsInPriorityOrder) {
  SlabHeap<Pri, int> h;
  std::uint64_t seq = 0;
  for (const double t : {5.0, 1.0, 3.0, 4.0, 2.0, 0.5, 6.0}) {
    h.push(Pri{t, seq++}, static_cast<int>(t * 10));
  }
  std::vector<int> out;
  while (h.peek() != nullptr) out.push_back(h.pop());
  EXPECT_EQ(out, (std::vector<int>{5, 10, 20, 30, 40, 50, 60}));
  EXPECT_TRUE(h.empty());
}

TEST(SlabHeap, EqualPrioritiesBreakTiesBySeq) {
  SlabHeap<Pri, int> h;
  for (int i = 0; i < 32; ++i) {
    h.push(Pri{1.0, static_cast<std::uint64_t>(i)}, i);
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(h.pop(), i);
}

TEST(SlabHeap, CancelKillsEntryAndRejectsStaleHandles) {
  SlabHeap<Pri, int> h;
  const auto a = h.push(Pri{1.0, 0}, 1);
  const auto b = h.push(Pri{2.0, 1}, 2);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_TRUE(h.cancel(a));
  EXPECT_FALSE(h.cancel(a));  // double cancel
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.pop(), 2);
  EXPECT_FALSE(h.cancel(b));  // already popped
  EXPECT_TRUE(h.empty());
}

TEST(SlabHeap, ReusedSlotGetsFreshGeneration) {
  SlabHeap<Pri, int> h;
  const auto a = h.push(Pri{1.0, 0}, 1);
  ASSERT_NE(h.peek(), nullptr);
  h.pop();
  // The slot is reused, so the new id must differ from the stale one.
  const auto b = h.push(Pri{1.0, 1}, 2);
  EXPECT_NE(a, b);
  EXPECT_FALSE(h.cancel(a));  // stale handle must not kill the new entry
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.pop(), 2);
}

TEST(SlabHeap, CancelReleasesPayloadImmediately) {
  SlabHeap<Pri, std::shared_ptr<int>> h;
  auto payload = std::make_shared<int>(7);
  std::weak_ptr<int> watch = payload;
  const auto id = h.push(Pri{1.0, 0}, std::move(payload));
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(h.cancel(id));
  // Eager destruction: the closure's resources do not wait for the lazy
  // heap purge.
  EXPECT_TRUE(watch.expired());
}

TEST(SlabHeap, SurvivesChurn) {
  SlabHeap<Pri, int> h;
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      ids.push_back(h.push(Pri{double((i * 37) % 20), seq++}, i));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) h.cancel(ids[i]);
    int last = -1;
    while (h.peek() != nullptr) {
      Pri pri{};
      h.pop(&pri);
      EXPECT_GE(pri.t, last);
      last = static_cast<int>(pri.t);
    }
    EXPECT_TRUE(h.empty());
    ids.clear();
  }
}

// A popped payload owns nothing in the slab, so running it may push enough
// entries to reallocate the slot vector (as a timer that schedules timers
// does) without touching freed memory.
TEST(SlabHeap, PoppedPayloadMayGrowTheSlab) {
  SlabHeap<Pri, std::function<void()>> h;
  std::uint64_t seq = 0;
  int ran = 0;
  h.push(Pri{0.0, seq++}, [&] {
    for (int i = 0; i < 1000; ++i) h.push(Pri{1.0, seq++}, [&ran] { ++ran; });
  });
  h.pop()();
  EXPECT_EQ(h.size(), 1000u);
  while (!h.empty()) h.pop()();
  EXPECT_EQ(ran, 1000);
}

}  // namespace
}  // namespace mtds::util
