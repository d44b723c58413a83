#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

namespace perfbench {

namespace {
const Clock::time_point& epoch() {
  static const Clock::time_point e = Clock::now();
  return e;
}
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Clock::time_point clock_at(std::int64_t ns) {
  return epoch() + std::chrono::nanoseconds(ns);
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Samples Samples::slice(std::size_t begin, std::size_t end) const {
  Samples out;
  out.values_.assign(values_.begin() + static_cast<std::ptrdiff_t>(begin),
                     values_.begin() + static_cast<std::ptrdiff_t>(end));
  return out;
}

Samples Samples::strided(std::size_t offset, std::size_t stride) const {
  Samples out;
  for (std::size_t k = offset; k < values_.size(); k += stride) {
    out.values_.push_back(values_[k]);
  }
  return out;
}

double stream_percentile(const Samples& s, std::size_t streams, double p) {
  double total = 0.0;
  for (std::size_t k = 0; k < streams; ++k) {
    total += s.strided(k, streams).percentile(p);
  }
  return total / static_cast<double>(streams);
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

std::int64_t SpanLog::add(const std::string& name, std::int64_t start_ns,
                          std::int64_t end_ns, std::int64_t parent,
                          std::int64_t request) {
  if (!enabled_) return 0;
  const std::int64_t id = reserve_id();
  add_with_id(id, name, start_ns, end_ns, parent, request);
  return id;
}

std::int64_t SpanLog::reserve_id() {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::add_with_id(std::int64_t id, const std::string& name,
                          std::int64_t start_ns, std::int64_t end_ns,
                          std::int64_t parent, std::int64_t request) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
}

Samples SpanLog::durations_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  Samples out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.add(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  // One span per line: cheap to stream and to grep.
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << pdnn::obs::JsonValue::escape(s.name)
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

Report::Report()
    : metrics_(pdnn::obs::JsonValue::object()),
      info_(pdnn::obs::JsonValue::object()) {}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::int64_t samples) {
  pdnn::obs::JsonValue m = pdnn::obs::JsonValue::object();
  m.set("value", value);
  m.set("unit", unit);
  m.set("samples", samples);
  metrics_.set(name, std::move(m));
}

void Report::timing(const std::string& prefix, const Samples& ms) {
  const auto n = static_cast<std::int64_t>(ms.size());
  metric(prefix + ".p50_ms", ms.median(), "ms", n);
  metric(prefix + ".p99_ms", ms.percentile(99.0), "ms", n);
  if (ms.size() < kMinP99Samples) {
    info_.set(prefix + ".p99_undersampled", n);
  }
}

void Report::count(bool ok, std::int64_t n) {
  attempted_ += n;
  if (!ok) failed_ += n;
}

void Report::fail_check(const std::string& name) {
  failed_checks_.push_back(name);
  correct_ = false;
}

pdnn::obs::JsonValue Report::to_json() const {
  pdnn::obs::JsonValue info = info_;
  if (!failed_checks_.empty()) {
    pdnn::obs::JsonValue names = pdnn::obs::JsonValue::array();
    for (const std::string& n : failed_checks_) names.push(n);
    info.set("failed_checks", std::move(names));
  }
  pdnn::obs::JsonValue out = pdnn::obs::JsonValue::object();
  out.set("correct", correct_);
  out.set("attempted", attempted_);
  out.set("failed", failed_);
  out.set("metrics", metrics_);
  out.set("info", std::move(info));
  return out;
}

bool maps_identical(const pdnn::util::MapF& a, const pdnn::util::MapF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
