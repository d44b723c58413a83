#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <thread>

#include "core/artifact.hpp"
#include "eval/metrics.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "rig.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"

namespace perfbench {

using namespace pdnn;

namespace {

// Set-up sizes of the cheap per-design models and of the swept trace pool
// (fixed accuracy traces plus traces from the run seed).
constexpr int kTrainVectors = 16;
constexpr int kTrainEpochs = 4;
constexpr int kAccuracyTraces = 16;
constexpr int kSweptTraces = 16;
constexpr int kNumDesigns = 4;

// The traced run splits its time: this share runs untraced (the tracing
// overhead baseline), the same again traced, the rest probes layers.
constexpr double kTracedShare = 0.3;
// At most this many op.* windows, each with at least this many samples (so
// a window's p90 rests on at least 15 samples beyond it).
constexpr int kOpWindows = 10;
constexpr std::size_t kMinWindowSamples = 150;
// Attempts at a rung before it is reported invalid.
constexpr int kRungAttempts = 3;
// A rung whose generator ran later than this share of the latency limit
// (p99 of submit lateness) is invalid and not reported.
constexpr double kLagShare = 0.2;
// Largest failed share (shed, timed out, non-OK, mismatched) a rung may have
// and still meet the limit.
constexpr double kMaxFailedFrac = 0.001;
// In the traced run, prepare() + infer() must account for predict() within
// this share, or the run fails.
constexpr double kAccountingTolerance = 0.1;

std::int64_t g_start_ns = 0;

std::vector<DesignRig> build_rigs(const RunConfig& config, Dtype dtype,
                                  SetupCosts& costs) {
  RigOptions options;
  options.dtype = dtype;
  options.train_vectors = kTrainVectors;
  options.train_epochs = kTrainEpochs;
  options.accuracy_traces = kAccuracyTraces;
  options.swept_traces = kSweptTraces;
  options.run_seed = config.seed;
  options.work_dir = config.work_dir;
  std::vector<DesignRig> rigs;
  const std::vector<pdn::DesignSpec> specs = pdn::all_designs(pdn::Scale::kSmall);
  for (int d = 0; d < kNumDesigns; ++d) {
    rigs.push_back(build_rig(specs[static_cast<std::size_t>(d)], d, options,
                             costs));
  }
  return rigs;
}

/// The paper's mean RE and 99% AE of the reference maps (which every timed
/// map equals) against the golden labels, over each rig's fixed accuracy
/// set or over its run-seed traces; `maps` counts the maps compared.
eval::AccuracyStats accuracy_of(const std::vector<const DesignRig*>& rigs,
                                bool fixed_set, std::int64_t& maps) {
  eval::MapEvaluator evaluator(rigs.front()->spec.vdd);
  maps = 0;
  for (const DesignRig* rig : rigs) {
    PDN_CHECK(rig->spec.vdd == rigs.front()->spec.vdd,
              "accuracy: designs disagree on vdd");
    const std::size_t begin = fixed_set ? 0 : rig->accuracy_count;
    const std::size_t end =
        fixed_set ? rig->accuracy_count : rig->reference.size();
    for (std::size_t i = begin; i < end; ++i) {
      evaluator.add(rig->reference[i], rig->truth[i]);
      ++maps;
    }
  }
  return evaluator.accuracy();
}

/// accuracy.* over the fixed accuracy set, which depends on the code alone;
/// the same figures over the run seed's traces go to info.accuracy_seeded.
void accuracy_metrics(const std::vector<const DesignRig*>& rigs,
                      Report& report) {
  std::int64_t maps = 0;
  const eval::AccuracyStats acc = accuracy_of(rigs, true, maps);
  report.metric("accuracy.mean_re_pct", acc.mean_re * 100.0, "%", maps);
  report.metric("accuracy.ae99_mv", acc.p99_ae * 1e3, "mV", maps);
  const eval::AccuracyStats seeded = accuracy_of(rigs, false, maps);
  if (maps == 0) return;
  obs::JsonValue j = obs::JsonValue::object();
  j.set("mean_re_pct", seeded.mean_re * 100.0);
  j.set("ae99_mv", seeded.p99_ae * 1e3);
  j.set("maps", maps);
  report.info().set("accuracy_seeded", std::move(j));
}

void common_metrics(Report& report, double setup_s, const SetupCosts& costs) {
  report.metric("setup_s", setup_s, "s", 1);
  report.metric("train.cpu_ms_per_sample",
                static_cast<double>(costs.train_cpu_ns) * 1e-6 /
                    static_cast<double>(costs.train_sample_visits),
                "ms", costs.train_sample_visits);
  obs::JsonValue parts = obs::JsonValue::object();
  parts.set("calibrate_s", costs.calibrate_s.sum());
  parts.set("factor_s", costs.factor_ms.sum() * 1e-3);
  parts.set("golden_s", costs.golden_seconds);
  parts.set("golden_vectors", costs.golden_vectors);
  parts.set("train_s", costs.train_seconds);
  parts.set("artifact_load_s", (costs.artifact_load_ms.sum() +
                                costs.artifact_load_int8_ms.sum()) * 1e-3);
  report.info().set("cost_parts", std::move(parts));
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  const double frac =
      report.attempted() > 0
          ? static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted())
          : 0.0;
  report.metric("failed_frac", frac, "ratio", report.attempted());
}

/// A range [begin, end) of samples.
struct Window {
  std::size_t begin = 0, end = 0;
};

/// op.p50_ms / op.p90_ms: the workload's unit of work (a predict() call, a
/// served request, a golden vector), named alike on every workload.
///
/// The samples, in time order, are cut into up to kOpWindows equal windows
/// and the window with the lowest median reports both figures. Interference
/// from outside the process (other tenants, hypervisor steal) only ever
/// adds time, and at the default pool width one descheduled worker stalls
/// every fork-join barrier; the least disturbed window is the steadiest
/// estimate of what the code itself costs. All windows are kept in
/// info.op_windows. Samples that come round-robin over `streams` designs
/// are cut on whole rounds, and each design's percentile weighs the same.
/// Returns the chosen window's sample range.
Window op_metrics(Report& report, const Samples& ms, std::size_t streams) {
  const std::size_t rounds = ms.size() / streams;
  const std::size_t windows = std::clamp<std::size_t>(
      rounds * streams / kMinWindowSamples, 1, kOpWindows);
  Window best;
  double best_p50 = 0.0, best_p90 = 0.0;
  obs::JsonValue all = obs::JsonValue::array();
  for (std::size_t w = 0; w < windows; ++w) {
    const Window win{rounds * w / windows * streams,
                     rounds * (w + 1) / windows * streams};
    const Samples part = ms.slice(win.begin, win.end);
    const double p50 = stream_percentile(part, streams, 50.0);
    all.push(p50);
    if (w == 0 || p50 < best_p50) {
      best = win;
      best_p50 = p50;
      best_p90 = stream_percentile(part, streams, 90.0);
    }
  }
  const auto per_window = static_cast<std::int64_t>(best.end - best.begin);
  report.metric("op.p50_ms", best_p50, "ms", per_window);
  report.metric("op.p90_ms", best_p90, "ms", per_window);
  report.info().set("op_windows", std::move(all));
  return best;
}

std::vector<const DesignRig*> pointers(const std::vector<DesignRig>& rigs) {
  std::vector<const DesignRig*> out;
  for (const DesignRig& r : rigs) out.push_back(&r);
  return out;
}

/// Layer figures every traced run reports, whatever the workload.
void common_layers(const std::vector<const DesignRig*>& rigs,
                   const DesignRig& replay_rig, const SetupCosts& costs,
                   double seconds, Report& report) {
  stage_probe(rigs, seconds, report);
  const core::PreparedRequest sample =
      replay_rig.pipeline->prepare(replay_rig.traces.front());
  conv_replay(replay_rig, sample.kept_steps, report);
  pool_dispatch(report);
  setup_layers(costs, report);
}

void write_spans(const RunConfig& config) {
  if (!spans().enabled()) return;
  const std::string path = config.out_dir + "/spans-" + config.workload +
                           "-" + std::to_string(config.seed) + ".jsonl";
  PDN_CHECK(spans().write(path), "cannot write spans to " + path);
}

}  // namespace

void mark_process_start() { g_start_ns = now_ns(); }

double seconds_since_start() { return seconds_between(g_start_ns, now_ns()); }

// ---------------------------------------------------------------------------
// sweep-fp32 / sweep-int8: one caller, closed loop, predict() round-robin.
// ---------------------------------------------------------------------------

void run_sweep(const RunConfig& config, bool int8, Report& report) {
  SetupCosts costs;
  std::vector<DesignRig> rigs =
      build_rigs(config, int8 ? Dtype::kInt8 : Dtype::kF32, costs);
  const std::vector<const DesignRig*> rig_ptrs = pointers(rigs);

  accuracy_metrics(rig_ptrs, report);
  if (int8) {
    // Served int8 maps against the same model's fp32 maps.
    double max_dev = 0.0;
    std::int64_t maps = 0;
    for (const DesignRig& r : rigs) {
      for (std::size_t i = 0; i < r.traces.size(); ++i) {
        const util::MapF fp32 = r.fp32_pipeline->predict(r.traces[i]);
        for (std::size_t k = 0; k < fp32.size(); ++k) {
          max_dev = std::max(
              max_dev, std::fabs(static_cast<double>(fp32.data()[k]) -
                                 r.reference[i].data()[k]));
        }
        ++maps;
      }
    }
    report.metric("quant.max_dev_mv", max_dev * 1e3, "mV", maps);
    report.metric("artifact.load_ms.int8", costs.artifact_load_int8_ms.median(),
                  "ms",
                  static_cast<std::int64_t>(costs.artifact_load_int8_ms.size()));
  }

  // Warm-up: one pass over every design's first traces.
  for (const DesignRig& r : rigs) {
    for (int i = 0; i < 4; ++i) r.pipeline->predict(r.traces[i]);
  }

  const bool traced = config.trace;
  if (traced) obs::set_enabled(false);
  const double setup_s = seconds_since_start();
  const double untraced_seconds =
      traced ? config.seconds * kTracedShare : config.seconds;

  Samples latency_ms, cpu_ms;
  std::vector<std::int64_t> starts;
  const std::int64_t begin = now_ns();
  for (std::int64_t i = 0;
       seconds_between(begin, now_ns()) < untraced_seconds; ++i) {
    const DesignRig& rig = rigs[static_cast<std::size_t>(i % kNumDesigns)];
    const auto t = static_cast<std::size_t>(i / kNumDesigns) % rig.traces.size();
    const std::int64_t c0 = process_cpu_ns();
    const std::int64_t t0 = now_ns();
    starts.push_back(t0);
    const util::MapF map = rig.pipeline->predict(rig.traces[t]);
    latency_ms.add(seconds_between(t0, now_ns()) * 1e3);
    cpu_ms.add(static_cast<double>(process_cpu_ns() - c0) * 1e-6);
    report.check(maps_identical(map, rig.reference[t]));
  }
  starts.push_back(now_ns());
  report.timing("predict", latency_ms);
  // Mean over D1-D4 of each design's median: the designs differ several-fold
  // in cost, and a pooled median would sit between the middle two and miss
  // a change to D1 or D4 alone.
  report.metric("op.cpu_ms", stream_percentile(cpu_ms, kNumDesigns, 50.0),
                "ms", static_cast<std::int64_t>(cpu_ms.size()));
  obs::JsonValue by_design = obs::JsonValue::object();
  for (int d = 0; d < kNumDesigns; ++d) {
    by_design.set(rigs[static_cast<std::size_t>(d)].spec.name,
                  cpu_ms.strided(static_cast<std::size_t>(d), kNumDesigns)
                      .median());
  }
  report.info().set("op_cpu_ms_by_design", std::move(by_design));
  // Calls per second over the same window op.* reports.
  const Window best = op_metrics(report, latency_ms, kNumDesigns);
  report.metric("throughput_per_s",
                static_cast<double>(best.end - best.begin) /
                    seconds_between(starts[best.begin], starts[best.end]),
                "1/s", static_cast<std::int64_t>(best.end - best.begin));
  report.info().set("op_is",
                    "one predict() call, mean of the D1-D4 medians");
  // Derived only (never a metric: a faster golden engine would read as a
  // regression): golden seconds per vector over predict seconds per vector.
  report.info().set("speedup_golden_over_predict",
                    costs.golden_seconds / costs.golden_vectors /
                        (latency_ms.mean() * 1e-3));

  if (traced) {
    // The same loop with tracing on: obs counters and program spans, and
    // the benchmark's own spans around prepare() and infer(). Each request
    // also runs as one predict() right beside its stages, so the stage
    // accounting compares like with like: same trace, same tracing state,
    // same moment of machine noise.
    obs::set_enabled(true);
    spans().set_enabled(true);
    Samples stages_ms, predict_ms;
    const std::int64_t tbegin = now_ns();
    for (std::int64_t i = 0;
         seconds_between(tbegin, now_ns()) < config.seconds * kTracedShare;
         ++i) {
      const DesignRig& rig = rigs[static_cast<std::size_t>(i % kNumDesigns)];
      const auto t =
          static_cast<std::size_t>(i / kNumDesigns) % rig.traces.size();
      // Whichever runs second finds the trace warm in cache; each design
      // alternates the order so neither side keeps that advantage.
      const bool predict_first = (i / kNumDesigns) % 2 == 1;
      const auto run_predict = [&] {
        const std::int64_t p0 = now_ns();
        const util::MapF whole = rig.pipeline->predict(rig.traces[t]);
        const std::int64_t p1 = now_ns();
        spans().add("sweep.predict", p0, p1, 0, i + 1);
        predict_ms.add(seconds_between(p0, p1) * 1e3);
        report.check(maps_identical(whole, rig.reference[t]));
      };
      if (predict_first) run_predict();
      const std::int64_t parent = spans().reserve_id();
      const std::int64_t t0 = now_ns();
      const core::PreparedRequest prepared = rig.pipeline->prepare(rig.traces[t]);
      const std::int64_t t1 = now_ns();
      const util::MapF map = rig.pipeline->infer(prepared);
      const std::int64_t t2 = now_ns();
      spans().add("sweep.prepare", t0, t1, parent, i + 1);
      spans().add("sweep.infer", t1, t2, parent, i + 1);
      spans().add_with_id(parent, "sweep.stages", t0, t2, 0, i + 1);
      stages_ms.add(seconds_between(t0, t2) * 1e3);
      report.check(maps_identical(map, rig.reference[t]));
      if (!predict_first) run_predict();
    }
    // prepare() + infer() must account for predict(): their summed time per
    // request against predict()'s, each the mean of the D1-D4 medians.
    const Samples prepare_us = spans().durations_us("sweep.prepare");
    const Samples infer_us = spans().durations_us("sweep.infer");
    const double stages_p50 = stream_percentile(stages_ms, kNumDesigns, 50.0);
    const double predict_p50 =
        stream_percentile(predict_ms, kNumDesigns, 50.0);
    const double gap = std::fabs(stages_p50 - predict_p50) / predict_p50;
    const double untraced_p50 =
        stream_percentile(latency_ms, kNumDesigns, 50.0);
    report.metric("bench.trace_overhead_ms", predict_p50 - untraced_p50, "ms",
                  static_cast<std::int64_t>(predict_ms.size()));
    obs::JsonValue acct = obs::JsonValue::object();
    acct.set("prepare_p50_ms",
             stream_percentile(prepare_us, kNumDesigns, 50.0) * 1e-3);
    acct.set("infer_p50_ms",
             stream_percentile(infer_us, kNumDesigns, 50.0) * 1e-3);
    acct.set("stages_p50_ms", stages_p50);
    acct.set("predict_p50_ms", predict_p50);
    acct.set("samples", static_cast<std::int64_t>(predict_ms.size()));
    acct.set("relative_gap", gap);
    acct.set("tolerance", kAccountingTolerance);
    report.info().set("stage_accounting", std::move(acct));
    if (gap > kAccountingTolerance) report.fail_check("stage_accounting");
    common_layers(rig_ptrs, rigs.back(), costs,
                  config.seconds * (1.0 - 2.0 * kTracedShare) * 0.5, report);
    write_spans(config);
  }
  common_metrics(report, setup_s, costs);
}

// ---------------------------------------------------------------------------
// serve-open: open-loop Poisson arrivals into a 4-shard fleet.
// ---------------------------------------------------------------------------

namespace {

struct Rung {
  double rate = 0.0;
  int requests = 0;
  int ok = 0, overloaded = 0, timed_out = 0, other = 0, mismatched = 0;
  Samples latency_ms;  ///< kOk requests, from due time to wait() returning
  Samples lag_ms;      ///< submit start minus due time
  Samples queue_ms, batch_ms, width;
  std::int64_t cpu_ns = 0;  ///< process CPU time while the rung ran
  double offered_rps = 0.0;
  double goodput_rps = 0.0;
  int queue_depth_max = 0;

  int failed() const { return requests - ok + mismatched; }
  double failed_frac() const {
    return static_cast<double>(failed()) / static_cast<double>(requests);
  }
};

/// Generator threads: half submit (and so run prepare()), half wait.
/// Their total never exceeds nproc.
int generator_threads() {
  return std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
}
int waiter_threads() { return generator_threads() - generator_threads() / 2; }

/// The distinct shards the designs are placed on, ascending.
std::vector<int> used_shards(const serve::NoiseServer& server,
                             const std::vector<serve::DesignId>& ids) {
  std::vector<int> used;
  for (const serve::DesignId& id : ids) used.push_back(server.shard_of(id));
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  return used;
}

Rung run_rung(serve::NoiseServer& server,
              const std::vector<serve::DesignId>& ids,
              const std::vector<DesignRig>& rigs, double rate, int requests,
              std::uint64_t seed, std::int64_t first_request_id,
              Report& report) {
  Rung rung;
  rung.rate = rate;
  rung.requests = requests;
  const auto n = static_cast<std::size_t>(requests);

  // The arrival schedule and the (design, trace) of each request.
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<std::int64_t> due_ns(n);
  std::vector<int> design(n), trace(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gap(rng);
    due_ns[i] = static_cast<std::int64_t>(t * 1e9);
    design[i] = static_cast<int>(i % rigs.size());
    trace[i] = static_cast<int>((i / rigs.size() + seed) %
                                rigs[static_cast<std::size_t>(design[i])]
                                    .traces.size());
  }

  const int waiters = waiter_threads();
  const int submitters = generator_threads() - waiters;
  // Each waiter owns whole shards, so within a waiter responses complete in
  // submission order. The shards in use are dealt out in turn, so while
  // there are at least as many waiters as used shards, a slow shard never
  // delays the reading of another shard's responses (info.waiter_of_shard).
  const std::vector<int> used = used_shards(server, ids);
  std::vector<std::vector<std::size_t>> owned(static_cast<std::size_t>(waiters));
  for (std::size_t i = 0; i < n; ++i) {
    const int shard = server.shard_of(ids[static_cast<std::size_t>(design[i])]);
    const auto slot = static_cast<std::size_t>(
        std::find(used.begin(), used.end(), shard) - used.begin());
    owned[slot % static_cast<std::size_t>(waiters)].push_back(i);
  }

  std::vector<serve::Ticket> tickets(n);
  std::vector<std::atomic<bool>> submitted(n);
  for (auto& f : submitted) f.store(false, std::memory_order_relaxed);
  std::vector<std::int64_t> lag_ns(n), done_ns(n);
  std::vector<serve::Response> responses(n);
  std::atomic<std::size_t> cursor{0};
  const bool traced = spans().enabled();

  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t start = now_ns() + 2'000'000;  // 2 ms to spin up
  std::vector<std::thread> pool;
  for (int s = 0; s < submitters; ++s) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        const std::int64_t due = start + due_ns[i];
        std::this_thread::sleep_until(clock_at(due));
        const std::int64_t t0 = now_ns();
        lag_ns[i] = t0 - due;
        const auto d = static_cast<std::size_t>(design[i]);
        tickets[i] = server.submit(
            ids[d], rigs[d].traces[static_cast<std::size_t>(trace[i])]);
        if (traced) {
          spans().add("serve.submit", t0, now_ns(), 0,
                      first_request_id + static_cast<std::int64_t>(i));
        }
        submitted[i].store(true, std::memory_order_release);
        submitted[i].notify_one();
      }
    });
  }
  for (int w = 0; w < waiters; ++w) {
    pool.emplace_back([&, w] {
      for (const std::size_t i : owned[static_cast<std::size_t>(w)]) {
        submitted[i].wait(false, std::memory_order_acquire);
        const std::int64_t t0 = now_ns();
        responses[i] = server.wait(tickets[i]);
        done_ns[i] = now_ns();
        if (traced) {
          spans().add("serve.wait", t0, done_ns[i], 0,
                      first_request_id + static_cast<std::int64_t>(i));
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  rung.cpu_ns = process_cpu_ns() - cpu0;

  std::int64_t last_done = start;
  for (std::size_t i = 0; i < n; ++i) {
    const serve::Response& r = responses[i];
    rung.lag_ms.add(static_cast<double>(lag_ns[i]) * 1e-6);
    last_done = std::max(last_done, done_ns[i]);
    switch (r.status) {
      case serve::Status::kOk: {
        ++rung.ok;
        rung.latency_ms.add(
            static_cast<double>(done_ns[i] - (start + due_ns[i])) * 1e-6);
        rung.queue_ms.add(r.queue_seconds * 1e3);
        rung.batch_ms.add(r.infer_seconds * 1e3);
        rung.width.add(r.batch_width);
        const auto d = static_cast<std::size_t>(design[i]);
        if (!maps_identical(r.noise,
                            rigs[d].reference[static_cast<std::size_t>(trace[i])])) {
          ++rung.mismatched;
          report.mismatch();
        }
        break;
      }
      case serve::Status::kOverloaded: ++rung.overloaded; break;
      case serve::Status::kTimedOut: ++rung.timed_out; break;
      default: ++rung.other; break;
    }
  }
  report.count(true, requests - rung.failed());
  report.count(false, rung.failed());
  const double schedule_s = static_cast<double>(due_ns[n - 1] - due_ns[0]) * 1e-9;
  rung.offered_rps = static_cast<double>(n - 1) / schedule_s;
  rung.goodput_rps = static_cast<double>(rung.ok) /
                     (static_cast<double>(last_done - (start + due_ns[0])) * 1e-9);
  return rung;
}

obs::JsonValue rung_json(const Rung& r, bool valid, bool meets) {
  obs::JsonValue j = obs::JsonValue::object();
  j.set("rate_rps", r.rate);
  j.set("attempted", r.requests);
  j.set("succeeded", r.ok - r.mismatched);
  j.set("failed", r.failed());
  j.set("overloaded", r.overloaded);
  j.set("timed_out", r.timed_out);
  j.set("other", r.other);
  j.set("mismatched", r.mismatched);
  j.set("offered_rps", r.offered_rps);
  j.set("goodput_rps", r.goodput_rps);
  j.set("p50_ms", r.latency_ms.median());
  j.set("p99_ms", r.latency_ms.percentile(99.0));
  j.set("latency_samples", static_cast<std::int64_t>(r.latency_ms.size()));
  j.set("gen_lag_p99_ms", r.lag_ms.percentile(99.0));
  j.set("valid", valid);
  j.set("meets_limit", meets);
  return j;
}

}  // namespace

void run_serve_open(const RunConfig& config, Report& report) {
  const ServeLoad& load = config.serve;
  PDN_CHECK(!load.ladder.empty() && load.p99_limit_ms > 0.0,
            "serve-open: ladder and p99 limit are required");
  PDN_CHECK(std::find(load.ladder.begin(), load.ladder.end(), load.low) !=
                    load.ladder.end() &&
                std::find(load.ladder.begin(), load.ladder.end(), load.high) !=
                    load.ladder.end(),
            "serve-open: low and high must be rungs of the ladder");
  PDN_CHECK(std::is_sorted(load.ladder.begin(), load.ladder.end()),
            "serve-open: ladder must ascend");

  SetupCosts costs;
  std::vector<DesignRig> rigs = build_rigs(config, Dtype::kF32, costs);
  const std::vector<const DesignRig*> rig_ptrs = pointers(rigs);
  accuracy_metrics(rig_ptrs, report);

  // Every rung gets enough requests for its p99; the high rung, whose
  // latency is op.*, gets half the run's seconds to average over more
  // arrival bursts.
  const auto rung_requests = [&](double rate) {
    const int floor = static_cast<int>(kMinP99Samples);
    return rate == load.high
               ? std::max(floor, static_cast<int>(config.seconds * 0.5 * rate))
               : floor;
  };

  serve::ServeOptions options;
  options.num_shards = 4;
  // A shard queue holds every request of a rung, so none is shed: a slow
  // stretch of the host shows as latency and backlog, never as failures.
  options.queue_capacity = static_cast<int>(kMinP99Samples);
  for (const double rate : load.ladder) {
    options.queue_capacity = std::max(options.queue_capacity,
                                      rung_requests(rate));
  }
  serve::NoiseServer server(options);
  std::vector<serve::DesignId> ids;
  obs::JsonValue placement = obs::JsonValue::object();
  for (DesignRig& r : rigs) {
    ids.push_back(server.add_design(r.spec.name, *r.grid,
                                    core::load_artifact(r.path)));
    placement.set(r.spec.name, server.shard_of(ids.back()));
  }
  report.info().set("shard_placement", std::move(placement));
  report.info().set("generator_threads", generator_threads());
  report.info().set("queue_capacity", options.queue_capacity);
  const std::vector<int> used = used_shards(server, ids);
  const auto waiters = static_cast<std::size_t>(waiter_threads());
  obs::JsonValue waiter_of = obs::JsonValue::object();
  for (std::size_t k = 0; k < used.size(); ++k) {
    waiter_of.set(std::to_string(used[k]),
                  static_cast<std::int64_t>(k % waiters));
  }
  report.info().set("waiter_of_shard", std::move(waiter_of));

  // Warm-up at the lowest rung; not reported.
  std::int64_t next_id = 1;
  {
    Report warmup;
    run_rung(server, ids, rigs, load.ladder.front(), 64, config.seed ^ 0xabc,
             next_id, warmup);
    next_id += 64;
    if (!warmup.correct()) report.mismatch();
  }
  const bool traced = config.trace;
  if (traced) obs::set_enabled(false);
  const double setup_s = seconds_since_start();

  const double lag_limit_ms = kLagShare * load.p99_limit_ms;
  double slo_rps = 0.0;
  std::int64_t slo_samples = 0;
  obs::JsonValue rungs = obs::JsonValue::array();
  for (std::size_t k = 0; k < load.ladder.size(); ++k) {
    const double rate = load.ladder[k];
    // A rung the generator could not keep on schedule is invalid; it is
    // measured again (with a fresh schedule) rather than reported.
    Rung rung;
    bool valid = false;
    int attempts = 0;
    while (!valid && attempts < kRungAttempts) {
      rung = run_rung(server, ids, rigs, rate, rung_requests(rate),
                      config.seed * 131 + k * kRungAttempts + attempts,
                      next_id, report);
      next_id += rung.requests;
      valid = rung.lag_ms.percentile(99.0) <= lag_limit_ms;
      ++attempts;
    }
    const bool backlog_ok = rung.goodput_rps >= 0.97 * rung.offered_rps;
    const bool meets = valid && backlog_ok &&
                       rung.latency_ms.size() >= kMinP99Samples &&
                       rung.latency_ms.percentile(99.0) <= load.p99_limit_ms &&
                       rung.failed_frac() <= kMaxFailedFrac;
    if (meets) {
      slo_rps = std::max(slo_rps, rate);
      slo_samples = rung.requests;
    }
    obs::JsonValue row = rung_json(rung, valid, meets);
    row.set("attempts", attempts);
    rungs.push(std::move(row));
    if (!valid) continue;  // an invalid rung is marked, not reported
    const std::string lag_name =
        "bench.gen_lag_ms.p99@" + std::to_string(static_cast<int>(rate));
    report.metric(lag_name, rung.lag_ms.percentile(99.0), "ms", rung.requests);
    for (const auto& [name, value] :
         {std::pair<std::string, double>{"low", load.low},
          std::pair<std::string, double>{"high", load.high}}) {
      if (rate != value) continue;
      report.timing("serve." + name, rung.latency_ms);
      if (name == "high") {
        op_metrics(report, rung.latency_ms, 1);
        report.metric("op.cpu_ms",
                      static_cast<double>(rung.cpu_ns) * 1e-6 / rung.requests,
                      "ms", rung.requests);
      }
    }
  }
  report.metric("serve.slo_rps", slo_rps, "1/s", slo_samples);
  report.metric("throughput_per_s", slo_rps, "1/s", slo_samples);
  report.info().set("rungs", std::move(rungs));
  report.info().set("p99_limit_ms", load.p99_limit_ms);
  report.info().set("gen_lag_limit_ms", lag_limit_ms);
  report.info().set("op_is",
                    "one served request at the high rate, from its due time");

  if (traced) {
    obs::set_enabled(true);
    spans().set_enabled(true);
    const serve::NoiseServer::Stats before = server.stats();
    const Rung rung = run_rung(server, ids, rigs, load.high,
                               static_cast<int>(kMinP99Samples),
                               config.seed * 131 + 977, next_id, report);
    const serve::NoiseServer::Stats after = server.stats();
    report.metric("serve.queue_ms.p50", rung.queue_ms.median(), "ms",
                  static_cast<std::int64_t>(rung.queue_ms.size()));
    report.metric("serve.queue_ms.p99", rung.queue_ms.percentile(99.0), "ms",
                  static_cast<std::int64_t>(rung.queue_ms.size()));
    report.metric("serve.batch_ms.p50", rung.batch_ms.median(), "ms",
                  static_cast<std::int64_t>(rung.batch_ms.size()));
    report.metric("serve.batch_width.mean", rung.width.mean(), "count",
                  static_cast<std::int64_t>(rung.width.size()));
    report.metric("serve.queue_depth_max", after.queue_depth_max, "count",
                  rung.requests);
    report.metric("serve.overloads",
                  static_cast<double>(after.overloads - before.overloads),
                  "count", rung.requests);
    report.metric("serve.timeouts",
                  static_cast<double>(after.timeouts - before.timeouts),
                  "count", rung.requests);
    report.metric("bench.gen_lag_ms.p99", rung.lag_ms.percentile(99.0), "ms",
                  rung.requests);
    common_layers(rig_ptrs, rigs.back(), costs, 1.0, report);
    write_spans(config);
  }
  server.shutdown();
  common_metrics(report, setup_s, costs);
}

// ---------------------------------------------------------------------------
// offline-d4: golden dataset, compile, train, held-out evaluation on D4.
// ---------------------------------------------------------------------------

namespace {
constexpr int kOfflineVectors = 96;
constexpr int kOfflineEpochs = 6;
// Traces from the run seed predicted through the reloaded artifact.
constexpr int kOfflineSeededTraces = 16;
}  // namespace

void run_offline(const RunConfig& config, Report& report) {
  SetupCosts costs;
  DesignRig rig = calibrated_rig(pdn::design_d4(pdn::Scale::kSmall), costs);
  const bool traced = config.trace;
  if (traced) obs::set_enabled(false);
  const double setup_s = seconds_since_start();
  if (traced) obs::set_enabled(true);

  // 1) Golden dataset (store off: every vector really simulated). It comes
  //    from D4's fixed accuracy stream, so the trained model and its
  //    accuracy depend on the code alone; the golden engine's cost does not
  //    depend on the vectors' values.
  vectors::TestVectorGenerator gen(*rig.grid, gen_params(), accuracy_seed(3));
  const core::RawDataset raw =
      golden_dataset(rig, gen, kOfflineVectors, costs);
  const double golden_s = costs.golden_seconds;
  // Per-vector golden cost as the engine reports it (a lockstep block's
  // solve time shared by its columns).
  Samples per_vector_ms;
  for (const core::RawSample& s : raw.samples) {
    per_vector_ms.add(s.sim_seconds * 1e3);
  }
  op_metrics(report, per_vector_ms, 1);
  report.metric("op.cpu_ms",
                static_cast<double>(costs.golden_cpu_ns) * 1e-6 /
                    kOfflineVectors,
                "ms", kOfflineVectors);
  report.metric("golden.ms_per_vector", golden_s / kOfflineVectors * 1e3, "ms",
                kOfflineVectors);

  // 2) Compile and train.
  const core::CompiledDataset data =
      core::compile_dataset(raw, temporal_options(), core::SplitOptions{});
  const std::unique_ptr<core::WorstCaseNoiseNet> trained =
      train_cheap_model(rig, data, kOfflineEpochs, costs);
  const core::WorstCaseNoiseNet& model = *trained;
  const double train_s = costs.train_seconds;
  report.metric("train.s_per_epoch", train_s / kOfflineEpochs, "s",
                kOfflineEpochs);
  const auto visits = static_cast<std::int64_t>(data.split.train.size()) *
                      kOfflineEpochs;
  report.metric("throughput_per_s", static_cast<double>(visits) / train_s,
                "1/s", visits);

  // 3) Held-out evaluation through a saved and reloaded artifact, then the
  //    run seed's traces through it too; every map must equal the in-memory
  //    model's.
  rig.path = config.work_dir + "/offline_D4_fp32.pdnb";
  core::save_artifact(*trained, temporal_options(), rig.path);
  const std::int64_t t0 = now_ns();
  rig.artifact = core::load_artifact(rig.path);
  costs.artifact_load_ms.add(seconds_between(t0, now_ns()) * 1e3);
  rig.pipeline = std::make_unique<core::WorstCasePipeline>(
      *rig.grid, *rig.artifact.model, core::PipelineOptions{temporal_options()});
  const core::WorstCasePipeline in_memory(
      *rig.grid, model, core::PipelineOptions{temporal_options()});
  vectors::TestVectorGenerator replay(*rig.grid, gen_params(), accuracy_seed(3));
  std::vector<vectors::CurrentTrace> traces;
  for (int i = 0; i < kOfflineVectors; ++i) traces.push_back(replay.generate());
  for (const int idx : data.split.test) {
    const int raw_index = data.samples[static_cast<std::size_t>(idx)].raw_index;
    const auto r = static_cast<std::size_t>(raw_index);
    const util::MapF map = rig.pipeline->predict(traces[r]);
    report.check(maps_identical(map, in_memory.predict(traces[r])));
    rig.traces.push_back(traces[r]);
    rig.truth.push_back(raw.samples[r].truth);
    rig.reference.push_back(map);
  }
  rig.accuracy_count = rig.traces.size();
  vectors::TestVectorGenerator seeded(*rig.grid, gen_params(),
                                      trace_seed(config.seed, 3));
  Samples predict_s;
  for (int i = 0; i < kOfflineSeededTraces; ++i) {
    const vectors::CurrentTrace trace = seeded.generate();
    const std::int64_t p0 = now_ns();
    const util::MapF map = rig.pipeline->predict(trace);
    predict_s.add(seconds_between(p0, now_ns()));
    report.check(maps_identical(map, in_memory.predict(trace)));
  }
  accuracy_metrics({&rig}, report);
  report.info().set("op_is", "golden simulation of one vector");
  report.info().set("throughput_is", "training sample visits per second");
  report.info().set("speedup_golden_over_predict",
                    golden_s / kOfflineVectors / predict_s.mean());

  if (traced) {
    spans().set_enabled(true);
    common_layers({&rig}, rig, costs, 1.0, report);
    write_spans(config);
  }
  common_metrics(report, setup_s, costs);
}

}  // namespace perfbench
