#include "bench_util.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <new>

// ---- allocation counter ---------------------------------------------------
//
// Replacing the global allocation functions in this binary counts every
// allocation made by the mtds libraries and by the benchmark alike.  The
// counter is one relaxed atomic: the steady states this is meant to expose
// are the zero-allocation ones, where it is never touched.

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// ---- clocks ---------------------------------------------------------------

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

// ---- statistics -----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// Bucket layout: values below 2^kSubBits ns map one-to-one; above that, the
// power of two e (>= kSubBits) and the next kSubBits bits below the leading
// one select the bucket.
LatencyHistogram::LatencyHistogram()
    : buckets_((kMaxExp - kSubBits + 2) << kSubBits, 0) {}

std::size_t LatencyHistogram::bucket_of(std::uint64_t ns) noexcept {
  constexpr std::uint64_t kSub = 1ull << kSubBits;
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const int e = 63 - __builtin_clzll(ns);  // ns in [2^e, 2^(e+1))
  if (e > kMaxExp) return ((kMaxExp - kSubBits + 2) << kSubBits) - 1;
  const std::uint64_t sub = (ns >> (e - kSubBits)) & (kSub - 1);
  return static_cast<std::size_t>(((e - kSubBits + 1) << kSubBits) + sub);
}

double LatencyHistogram::bucket_low_ns(std::size_t b) noexcept {
  constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  if (b < kSub) return static_cast<double>(b);
  const int e = static_cast<int>(b >> kSubBits) + kSubBits - 1;
  const double sub = static_cast<double>(b & (kSub - 1));
  return std::ldexp(1.0 + sub / static_cast<double>(kSub), e);
}

void LatencyHistogram::record_ns(std::int64_t ns) noexcept {
  buckets_[bucket_of(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))] += 1;
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

void LatencyHistogram::clear() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

double LatencyHistogram::quantile_us(double q) const {
  if (count_ == 0) return 0;
  const double target = q * static_cast<double>(count_);
  double seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const auto c = static_cast<double>(buckets_[i]);
    if (c > 0 && seen + c >= target) {
      const double lo = bucket_low_ns(i);
      const double hi = i + 1 < buckets_.size() ? bucket_low_ns(i + 1) : lo;
      return (lo + (hi - lo) * (target - seen) / c) * 1e-3;
    }
    seen += c;
  }
  return bucket_low_ns(buckets_.size() - 1) * 1e-3;
}

// ---- process and host probes ----------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

unsigned online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto s = line.substr(colon + 1);
        s.erase(0, s.find_first_not_of(' '));
        return s;
      }
    }
  }
  return "unknown";
}

CpuTicks read_cpu_ticks() {
  // Plain read(2) into a stack buffer: this runs once per measured round,
  // and must not show up in the allocation count.
  CpuTicks t;
  char buf[512];
  const int fd = ::open("/proc/stat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return t;
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 4 || std::strncmp(buf, "cpu ", 4) != 0) return t;
  buf[n] = '\0';
  // user nice system idle iowait irq softirq steal
  char* p = buf + 4;
  for (int field = 0; field < 8; ++field) {
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(p, &end, 10);
    if (end == p) break;
    t.total += v;
    if (field == 7) t.steal = v;
    p = end;
  }
  return t;
}

void PhaseProbe::begin() {
  ticks0_ = read_cpu_ticks();
  alloc0_ = allocations();
  cpu0_ = process_cpu_ns();
  wall0_ = wall_ns();
}

void PhaseProbe::end() {
  wall1_ = wall_ns();
  cpu1_ = process_cpu_ns();
  alloc1_ = allocations();
  ticks1_ = read_cpu_ticks();
}

double PhaseProbe::steal_share() const {
  const auto total = ticks1_.total - ticks0_.total;
  return total > 0
             ? static_cast<double>(ticks1_.steal - ticks0_.steal) /
                   static_cast<double>(total)
             : 0.0;
}

// ---- spans ----------------------------------------------------------------

std::int32_t SpanRecorder::open(const char* name, std::int32_t parent,
                                std::int64_t batch, std::int64_t start_ns) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, start_ns, start_ns, parent, batch});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::close(std::int32_t index, std::int64_t end_ns) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanRecorder*>& recorders) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t r = 0; r < recorders.size(); ++r) {
    const auto& spans = recorders[r]->spans();
    const auto self = recorders[r]->self_ns();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                   "\"batch\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"self_ns\":%lld}\n",
                   r, i, s.name, s.parent, static_cast<long long>(s.batch),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
  }
  return std::fclose(f) == 0;
}

SpanSummary summarize(const std::vector<const SpanRecorder*>& recorders,
                      const std::string& name) {
  SpanSummary out;
  std::vector<double> durations_us;
  for (const SpanRecorder* rec : recorders) {
    const auto self = rec->self_ns();
    const auto& spans = rec->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (name != spans[i].name) continue;
      const auto d = spans[i].end_ns - spans[i].start_ns;
      ++out.count;
      out.total_ms += static_cast<double>(d) * 1e-6;
      out.self_total_ms += static_cast<double>(self[i]) * 1e-6;
      durations_us.push_back(static_cast<double>(d) * 1e-3);
    }
  }
  out.median_us = median(durations_us);
  return out;
}

// ---- results --------------------------------------------------------------

void Result::note(const std::string& key, double value) {
  note(key, format_double(value));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string join(const std::vector<double>& values) {
  std::string out;
  char buf[64];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, "%s%.6f", out.empty() ? "" : ",", v);
    out += buf;
  }
  return out;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
