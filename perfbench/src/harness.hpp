// Measurement plumbing shared by the benchmark workloads: sample sets with
// percentiles, the in-memory span log of the traced run, and the report the
// driver turns into its result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/grid2d.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call in this process.
std::int64_t now_ns();

/// The steady-clock instant of a now_ns() reading (for sleep_until).
Clock::time_point clock_at(std::int64_t ns);

/// CPU time consumed by every thread of this process, nanoseconds
/// (CLOCK_PROCESS_CPUTIME_ID: the scheduler's runtime accounting, which
/// leaves out time the hypervisor stole from the guest).
std::int64_t process_cpu_ns();

/// Seconds between two now_ns() readings.
inline double seconds_between(std::int64_t begin, std::int64_t end) {
  return static_cast<double>(end - begin) * 1e-9;
}

/// Timing or count samples; percentiles by linear interpolation.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double percentile(double p) const;  ///< p in [0, 100]
  double median() const { return percentile(50.0); }
  double mean() const;
  double sum() const;
  /// Samples [begin, end) in insertion order.
  Samples slice(std::size_t begin, std::size_t end) const;
  /// Every `stride`-th sample from `offset` on, in insertion order.
  Samples strided(std::size_t offset, std::size_t stride) const;

 private:
  std::vector<double> values_;
};

/// Mean over `streams` interleaved streams (sample k belongs to stream
/// k % streams) of each stream's p-th percentile. Designs of unequal cost
/// then weigh the same, and a change to any one of them moves the figure.
double stream_percentile(const Samples& s, std::size_t streams, double p);

/// A p99 is reported only with at least this many samples (ten beyond it).
constexpr std::size_t kMinP99Samples = 1000;

/// Spans recorded by the benchmark around its calls into each layer:
/// name, start, end, parent span and request id. Kept in memory and written
/// out once, at exit. Disabled (every call a no-op) in untraced runs.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = 0;   ///< 0 = root
    std::int64_t request = 0;  ///< 0 = not tied to a request
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Record a finished span; returns its id (0 when disabled).
  std::int64_t add(const std::string& name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = 0,
                   std::int64_t request = 0);
  /// Reserve an id for a parent span whose end is not known yet.
  std::int64_t reserve_id();
  /// Record a span under a reserved id.
  void add_with_id(std::int64_t id, const std::string& name,
                   std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent = 0, std::int64_t request = 0);

  /// Durations (microseconds) of every span with this name.
  Samples durations_us(const std::string& name) const;
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::int64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// The process-wide span log.
SpanLog& spans();

/// Everything one run reports: named metrics with unit and sample count,
/// derived information, and the operation counts of the reference checks.
class Report {
 public:
  Report();

  void metric(const std::string& name, double value, const std::string& unit,
              std::int64_t samples);
  /// <prefix>.p50_ms and <prefix>.p99_ms of millisecond samples; a p99
  /// from fewer than kMinP99Samples is flagged in info.
  void timing(const std::string& prefix, const Samples& ms);
  pdnn::obs::JsonValue& info() { return info_; }

  /// Count `n` operations; `ok` false counts them failed.
  void count(bool ok, std::int64_t n = 1);
  /// Count one map compared with its reference; a mismatch also makes the
  /// run incorrect.
  void check(bool identical) {
    count(identical);
    if (!identical) correct_ = false;
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  /// A map that differs from its reference makes the run incorrect.
  void mismatch() { correct_ = false; }
  /// A failed check of the benchmark's own (listed in info.failed_checks)
  /// makes the run incorrect too.
  void fail_check(const std::string& name);
  bool correct() const { return correct_; }

  pdnn::obs::JsonValue to_json() const;

 private:
  pdnn::obs::JsonValue metrics_;
  pdnn::obs::JsonValue info_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> failed_checks_;
};

/// Byte-for-byte equality of two maps (shape and every float's bits).
bool maps_identical(const pdnn::util::MapF& a, const pdnn::util::MapF& b);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Median per-call wall time (microseconds) of `fn`, called until at least
/// `min_seconds` have elapsed and at least `min_calls` calls were made, after
/// one untimed warm-up call.
template <typename Fn>
Samples time_calls(Fn&& fn, double min_seconds, int min_calls) {
  fn();
  Samples out;
  const std::int64_t begin = now_ns();
  while (static_cast<int>(out.size()) < min_calls ||
         seconds_between(begin, now_ns()) < min_seconds) {
    const std::int64_t t0 = now_ns();
    fn();
    out.add(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return out;
}

}  // namespace perfbench
