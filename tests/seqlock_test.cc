// util/seqlock.h: the serving plane's single-writer snapshot cell.
//
// The torn-read stress is the point of this file: a writer republishing a
// checksummed payload flat out while reader threads spin read().  Every
// successful read must return an internally-consistent payload (checksum
// matches, all words from the same generation).  The TSan CI job runs this
// binary too - the seqlock's claim is not just "no torn reads" but "no data
// race by the memory model", which the relaxed-atomic-word payload makes
// true where a memcpy seqlock would rely on folklore.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/serving_plane.h"
#include "service/snapshot.h"
#include "util/seqlock.h"

namespace mtds {
namespace {

// A payload wide enough to tear if the seqlock were broken: every field is
// derived from `gen`, so any mix of generations breaks the checksum.
struct Checked {
  std::uint64_t gen = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t sum = 0;

  static Checked make(std::uint64_t gen) {
    Checked v;
    v.gen = gen;
    v.a = gen * 0x9E3779B97F4A7C15ull;
    v.b = ~gen;
    v.c = gen ^ 0xA5A5A5A5A5A5A5A5ull;
    v.sum = v.gen + v.a + v.b + v.c;
    return v;
  }
  bool consistent() const { return sum == gen + a + b + c; }
};

TEST(Seqlock, UnpublishedReadsReturnFalse) {
  util::Seqlock<Checked> cell;
  Checked out = Checked::make(99);
  EXPECT_FALSE(cell.read(out));
  EXPECT_EQ(cell.version(), 0u);
  EXPECT_EQ(out.gen, 99u) << "a failed read must not touch the output";
}

TEST(Seqlock, ReadSeesLatestPublish) {
  util::Seqlock<Checked> cell;
  for (std::uint64_t gen = 1; gen <= 5; ++gen) {
    cell.publish(Checked::make(gen));
    Checked out;
    ASSERT_TRUE(cell.read(out));
    EXPECT_EQ(out.gen, gen);
    EXPECT_TRUE(out.consistent());
    EXPECT_EQ(cell.version(), gen);
  }
}

// The stress: one writer republishing as fast as it can, several readers
// validating every read.  Checksums catch torn payloads; monotone gen
// catches a reader handed an older snapshot after seeing a newer one; and
// version() read after a successful read must already count the
// publication that read returned (version = seq / 2 under contention).
TEST(Seqlock, TornReadStress) {
  util::Seqlock<Checked> cell;
  // mtds:lock-free(test handshake: writer sets stop after its last publish)
  std::atomic<bool> stop{false};
  // mtds:lock-free(test statistic: reads observed per reader, summed after join)
  std::atomic<std::uint64_t> total_reads{0};

  constexpr int kReaders = 4;
  constexpr std::uint64_t kPublishes = 200'000;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&cell, &stop, &total_reads] {
      std::uint64_t last_gen = 0;
      std::uint64_t reads = 0;
      Checked out;
      // On a single core the writer can finish its whole storm before this
      // thread first runs; insist on one validated read so the assertions
      // below always execute (the final publish guarantees read() succeeds).
      while (!stop.load(std::memory_order_acquire) || reads == 0) {
        if (!cell.read(out)) continue;
        ASSERT_TRUE(out.consistent())
            << "torn read: gen=" << out.gen << " sum=" << out.sum;
        ASSERT_GE(out.gen, last_gen) << "snapshot went backwards";
        ASSERT_GE(cell.version(), out.gen)
            << "version() lags a publication already read";
        last_gen = out.gen;
        ++reads;
      }
      total_reads.fetch_add(reads, std::memory_order_relaxed);
    });
  }

  for (std::uint64_t gen = 1; gen <= kPublishes; ++gen) {
    cell.publish(Checked::make(gen));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(cell.version(), kPublishes);
  Checked final;
  ASSERT_TRUE(cell.read(final));
  EXPECT_EQ(final.gen, kPublishes);
  EXPECT_GT(total_reads.load(), 0u);
}

// The production payload round-trips exactly: publish a ClockSnapshot,
// read it back, extrapolate - the serving plane's actual data path.
TEST(Seqlock, ClockSnapshotRoundTrip) {
  util::Seqlock<service::ClockSnapshot> cell;
  service::ClockSnapshot snap;
  snap.base = core::ClockTime{100.0};
  snap.error = core::ErrorBound{2e-3};
  snap.published_at = core::RealTime{50.0};
  snap.rate = 1.0 + 1e-4;
  snap.delta = 1e-4;
  snap.server_id = 7;
  cell.publish(snap);

  service::ClockSnapshot out;
  ASSERT_TRUE(cell.read(out));
  EXPECT_EQ(out.base.seconds(), snap.base.seconds());
  EXPECT_EQ(out.error.seconds(), snap.error.seconds());
  EXPECT_EQ(out.published_at.seconds(), snap.published_at.seconds());
  EXPECT_EQ(out.rate, snap.rate);
  EXPECT_EQ(out.delta, snap.delta);
  EXPECT_EQ(out.server_id, 7u);

  // One second later the clock advanced by rate and the bound by delta.
  core::ClockTime c{0.0};
  core::ErrorBound e{0.0};
  service::extrapolate(out, core::RealTime{51.0}, c, e);
  EXPECT_DOUBLE_EQ(c.seconds(), 100.0 + snap.rate);
  EXPECT_DOUBLE_EQ(e.seconds(), 2e-3 + snap.rate * snap.delta);

  // Time never flows backwards out of a snapshot: a query stamped before
  // published_at (clock skew between threads) clamps the advance to zero.
  service::extrapolate(out, core::RealTime{49.0}, c, e);
  EXPECT_DOUBLE_EQ(c.seconds(), 100.0);
  EXPECT_DOUBLE_EQ(e.seconds(), 2e-3);
}

}  // namespace
}  // namespace mtds
