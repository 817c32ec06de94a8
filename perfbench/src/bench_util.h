// Shared measurement plumbing for the perfbench workloads: wall and CPU
// clocks, robust statistics, the allocation counter, host-noise probes, the
// in-memory span recorder and the result record every workload fills in.
//
// Everything here observes the program from outside: spans are recorded by
// the benchmark around its own calls into the mtds layers, allocations are
// counted by replacing the global operator new of this binary, and host
// noise is read from /proc.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- clocks ---------------------------------------------------------------

std::int64_t wall_ns();         // steady clock
std::int64_t process_cpu_ns();  // CPU time of every thread of this process
std::int64_t thread_cpu_ns();   // CPU time of the calling thread

// ---- statistics -----------------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for an
// empty sample.  Takes a copy so callers keep their order.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Log-linear latency histogram: 128 linear sub-buckets per power of two of
// nanoseconds (under 1% relative width) up to about 34 s.  Recording never
// allocates and the whole table is 37 KB, so generator threads keep one each
// for the whole measured phase without moving the process's memory figures.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record_ns(std::int64_t ns) noexcept;
  void merge(const LatencyHistogram& other);
  void clear() noexcept;
  std::uint64_t count() const noexcept { return count_; }
  // Quantile in microseconds, interpolated inside the bucket.
  double quantile_us(double q) const;

 private:
  static constexpr int kSubBits = 7;  // 128 sub-buckets
  static constexpr int kMaxExp = 35;  // 2^35 ns
  static std::size_t bucket_of(std::uint64_t ns) noexcept;
  static double bucket_low_ns(std::size_t b) noexcept;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

// ---- allocation counter ---------------------------------------------------

// Number of global operator new calls since process start (all threads).
std::uint64_t allocations();

// ---- process and host probes ----------------------------------------------

double peak_rss_mb();
std::uint64_t minor_faults();  // page faults served without I/O, so far
unsigned online_cpus();
std::string cpu_model();

// Steal and total jiffies from the aggregate "cpu" line of /proc/stat.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();

// Wall, process-CPU, steal and allocation readings at the two ends of a
// measured phase.
class PhaseProbe {
 public:
  void begin();
  void end();
  double wall_s() const { return static_cast<double>(wall1_ - wall0_) * 1e-9; }
  double cpu_s() const { return static_cast<double>(cpu1_ - cpu0_) * 1e-9; }
  double cpu_per_wall() const { return wall_s() > 0 ? cpu_s() / wall_s() : 0; }
  // Share of all CPU jiffies the hypervisor stole during the phase.
  double steal_share() const;
  std::uint64_t allocs() const { return alloc1_ - alloc0_; }

 private:
  std::int64_t wall0_ = 0, wall1_ = 0, cpu0_ = 0, cpu1_ = 0;
  CpuTicks ticks0_, ticks1_;
  std::uint64_t alloc0_ = 0, alloc1_ = 0;
};

// ---- spans ----------------------------------------------------------------

// One timed call into a layer, recorded by the benchmark around the call.
struct Span {
  const char* name = "";  // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same recorder, -1 = root
  std::int64_t batch = 0;    // round number or batch number
};

// Per-thread, append-only span log.  Capacity is reserved up front so
// recording inside the measured phase does not allocate; spans beyond the
// capacity are dropped and counted.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = 0) { spans_.reserve(capacity); }

  // Opens a span and returns its index (or -1 when full).
  std::int32_t open(const char* name, std::int32_t parent, std::int64_t batch,
                    std::int64_t start_ns = wall_ns());
  void close(std::int32_t index, std::int64_t end_ns = wall_ns());

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  // Per-span self time: duration minus the union of its children's
  // intervals (children of one parent never overlap here, so the sum is the
  // union).
  std::vector<std::int64_t> self_ns() const;

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// Writes every span (one JSON object per line, with its self time) to
// `path`, creating parent directories.  Returns false on I/O failure.
bool write_spans(const std::string& path,
                 const std::vector<const SpanRecorder*>& recorders);

// Summary of one span name across recorders: count, total and median
// duration, total self time.
struct SpanSummary {
  std::uint64_t count = 0;
  double total_ms = 0;
  double median_us = 0;
  double self_total_ms = 0;
};
SpanSummary summarize(const std::vector<const SpanRecorder*>& recorders,
                      const std::string& name);

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run of one workload reports.  Workloads add end-to-end and
// per-layer metrics alike; main() prints the set the run mode asks for.
// `diag` holds free-form key/value diagnostics (host, fingerprint, set-up
// samples) printed before the result line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> diag;
  std::vector<std::string> errors;  // why `correct` is false

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    diag.emplace_back(key, value);
  }
  void note(const std::string& key, double value);
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // span files, relative to the cwd
};

std::string json_escape(const std::string& s);
std::string format_double(double v);
std::string join(const std::vector<double>& values);  // "a,b,c", 6 decimals

// Deterministic 64-bit mixing (splitmix64), used to derive workload inputs
// from the seed.
std::uint64_t mix64(std::uint64_t x);

// Small seeded generator for workload inputs (independent of the program's
// own RNG so the program only ever sees the generated inputs).
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed)
      : state_(mix64(seed ^ 0x9E3779B97F4A7C15ull)) {}
  std::uint64_t next() { return state_ = mix64(state_); }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(next() >> 11) * 0x1.0p-53);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
