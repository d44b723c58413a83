// The benchmark workloads (see perfbench/NOTES.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// serve-open's fixed absolute load: every number comes from BENCHMARK.json,
/// never from a rate measured in the same run.
struct ServeLoad {
  std::vector<double> ladder;  ///< offered rates, req/s, ascending
  double low = 0.0;            ///< rung reported as serve.low.*
  double high = 0.0;           ///< rung reported as serve.high.* and op.*
  double p99_limit_ms = 0.0;   ///< latency limit on a rung's p99
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;  ///< artifacts
  std::string out_dir;   ///< spans and report
  ServeLoad serve;
};

/// Each fills `report`; a map that fails its reference check marks it
/// incorrect.
void run_sweep(const RunConfig& config, bool int8, Report& report);
void run_serve_open(const RunConfig& config, Report& report);
void run_offline(const RunConfig& config, Report& report);

/// Nanoseconds from process start to now_ns()'s epoch (set in main).
void mark_process_start();
double seconds_since_start();

}  // namespace perfbench
