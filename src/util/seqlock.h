// Sequence-counted cell for single-writer snapshot publication.
//
// The serving plane's contract: the sync plane (one writer, inside the
// runtime's serialization domain) publishes an immutable clock snapshot
// after every round/reset; N reader threads answer client queries from the
// latest snapshot with zero locks and zero allocations.  A mutex here would
// put the writer's (rare) publication on every reader's (hot) path; the
// seqlock inverts that: readers pay two loads of one counter and a small
// copy, and retry only if a publication overlaps their copy.
//
// One counter guards one payload.  The writer makes it odd, stores the
// words, then makes it even again; a reader copies the words between two
// loads of the counter and keeps the copy only if both loads saw the same
// even value.  Publication happens about once per poll period, so a retry
// is rare, and with a single counter a reader can never pick up an older
// snapshot than one it has already seen.
//
// The payload is stored as std::atomic words, not raw bytes, and the
// ordering is fence-free (Boehm, "Can seqlocks get along with programming
// language memory models?", MSPC 2012): the writer stores the counter odd
// (relaxed), each word with release, then the counter even with release;
// the reader loads the counter with acquire, each word with acquire, then
// reloads the counter relaxed.  A reader that sees any word of a newer
// publication synchronizes with that word's store, so its reload cannot
// return the old even counter, and it retries.  On x86-64 every one of these
// is a plain mov.  Unlike the traditional memcpy seqlock, whose racing
// payload reads are "benign" only by folklore, and unlike a fence-based
// one, whose std::atomic_thread_fence gcc's ThreadSanitizer does not model,
// the race detector sees every ordering edge here.
//
// What the stress test (seqlock_test, run 20 times under TSan in CI) can
// catch: torn copies, a reader going backwards, and compiler reordering.
// It cannot catch hardware reordering: x86-64 is TSO, so the test would
// still pass there with every ordering above weakened to relaxed.
#pragma once

// mtds:lock-free(single-writer seqlock: seq odd while mid-write, release stores of the words and of the even seq; readers copy acquire-loaded words between an acquire load of seq and a relaxed reload, and retry on change)
#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace mtds::util {

template <typename T>
class Seqlock {
  static_assert(std::is_trivially_copyable_v<T>,
                "Seqlock payloads are copied word-by-word");

 public:
  Seqlock() = default;

  Seqlock(const Seqlock&) = delete;
  Seqlock& operator=(const Seqlock&) = delete;

  // Writer side - at most one thread at a time (the engine's runtime
  // serialization domain provides this; see ProtocolEngine).  Never blocks
  // readers: a reader that overlaps the write retries.
  // mtds:no-alloc
  void publish(const T& value) noexcept {
    WordArray words;
    // void* casts: T is statically trivially copyable (see static_assert);
    // gcc's -Wclass-memaccess would otherwise flag the NSDMI default ctor.
    std::memcpy(words.data(), static_cast<const void*>(&value), sizeof(T));
    const std::uint64_t seq = seq_.load(std::memory_order_relaxed);
    seq_.store(seq + 1, std::memory_order_relaxed);  // odd: mid-write
    for (std::size_t i = 0; i < kWords; ++i) {
      words_[i].store(words[i], std::memory_order_release);
    }
    seq_.store(seq + 2, std::memory_order_release);  // even: complete
  }

  // Reader side - any number of threads, lock-free, allocation-free.
  // Returns false until the first publish completes (out is untouched
  // then).
  // mtds:no-alloc
  bool read(T& out) const noexcept {
    WordArray words;
    for (;;) {
      const std::uint64_t seq1 = seq_.load(std::memory_order_acquire);
      if (seq1 < 2) return false;     // first publication not complete
      if ((seq1 & 1) != 0) continue;  // mid-write
      for (std::size_t i = 0; i < kWords; ++i) {
        words[i] = words_[i].load(std::memory_order_acquire);
      }
      if (seq_.load(std::memory_order_relaxed) == seq1) break;
    }
    std::memcpy(static_cast<void*>(&out), words.data(), sizeof(T));
    return true;
  }

  // Number of completed publications (0 = nothing published yet).  Readers
  // can poll this to detect fresh snapshots without copying one out.
  // mtds:no-alloc
  std::uint64_t version() const noexcept {
    return seq_.load(std::memory_order_acquire) / 2;
  }

 private:
  static constexpr std::size_t kWords =
      (sizeof(T) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);
  using WordArray = std::array<std::uint64_t, kWords>;

  // Counter and payload share a cache line: a reader needs both, and the
  // writer's stores reach readers once per publication either way.
  alignas(64) std::atomic<std::uint64_t> seq_{0};
  std::array<std::atomic<std::uint64_t>, kWords> words_{};
};

}  // namespace mtds::util
