// Benchmark driver binary: runs one workload against the repository's
// libraries and prints its report as one JSON object on the last line of
// stdout. perfbench/run.py builds it, passes the serve-open load from
// BENCHMARK.json, and turns the report into the benchmark's result line.
//
//   perfbench --workload sweep-fp32 --seed 1 --seconds 20 --trace 0
//             --work-dir DIR --out-dir DIR
//             [--ladder 90,210,... --low 90 --high 210 --p99-limit-ms 40]
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include "linalg/kernels/registry.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    PDN_CHECK(arg.rfind("--", 0) == 0 && i + 1 < argc,
              "usage: flag '" + arg + "' needs a value");
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

const std::string& required(const std::map<std::string, std::string>& flags,
                            const std::string& name) {
  const auto it = flags.find(name);
  PDN_CHECK(it != flags.end(), "missing required flag --" + name);
  return it->second;
}

double number(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  PDN_CHECK(used == text.size() && used > 0,
            "--" + what + ": not a number: '" + text + "'");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  try {
    const auto flags = parse_flags(argc, argv);
    perfbench::RunConfig config;
    config.workload = required(flags, "workload");
    config.seed = static_cast<std::uint64_t>(
        number(required(flags, "seed"), "seed"));
    config.seconds = number(required(flags, "seconds"), "seconds");
    config.trace = required(flags, "trace") == "1";
    config.work_dir = required(flags, "work-dir");
    config.out_dir = required(flags, "out-dir");
    PDN_CHECK(config.seconds > 0.0, "--seconds must be positive");
    std::filesystem::create_directories(config.work_dir);
    std::filesystem::create_directories(config.out_dir);
    // Traced runs collect obs counters from set-up on; untraced runs keep
    // the program's instrumentation off.
    pdnn::obs::set_enabled(config.trace);

    perfbench::Report report;
    if (config.workload == "sweep-fp32" || config.workload == "sweep-int8") {
      perfbench::run_sweep(config, config.workload == "sweep-int8", report);
    } else if (config.workload == "serve-open") {
      std::stringstream ladder(required(flags, "ladder"));
      for (std::string rung; std::getline(ladder, rung, ',');) {
        config.serve.ladder.push_back(number(rung, "ladder"));
      }
      config.serve.low = number(required(flags, "low"), "low");
      config.serve.high = number(required(flags, "high"), "high");
      config.serve.p99_limit_ms =
          number(required(flags, "p99-limit-ms"), "p99-limit-ms");
      perfbench::run_serve_open(config, report);
    } else if (config.workload == "offline-d4") {
      perfbench::run_offline(config, report);
    } else {
      throw pdnn::util::CheckError("unknown workload '" + config.workload +
                                   "' (sweep-fp32|sweep-int8|serve-open|"
                                   "offline-d4)");
    }
    report.info().set("kernel_backend", pdnn::linalg::backend_name(
                                            pdnn::linalg::active_backend()));
    report.info().set("pool_threads",
                      pdnn::util::ThreadPool::global().num_threads());
    std::printf("%s\n", report.to_json().dump(0).c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
