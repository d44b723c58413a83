#include "rig.hpp"

#include <cmath>

#include "core/trainer.hpp"
#include "obs/obs.hpp"
#include "quant/calibrate.hpp"
#include "sim/calibrate.hpp"
#include "util/check.hpp"

namespace perfbench {

using namespace pdnn;

vectors::VectorGenParams gen_params() {
  vectors::VectorGenParams p;
  p.num_steps = kTraceSteps;
  return p;
}

core::TemporalCompressionOptions temporal_options() {
  core::TemporalCompressionOptions t;
  t.rate = kCompressionRate;
  t.rate_step = kRateStep;
  return t;
}

std::uint64_t trace_seed(std::uint64_t run_seed, int design_index) {
  // splitmix64 of (seed, design): distinct designs and seeds get unrelated
  // streams, and none coincides with a design's own training stream.
  std::uint64_t z = run_seed * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(design_index + 1) *
                        0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t accuracy_seed(int design_index) {
  // A stream of its own, apart from every run seed's in practice and from
  // the design's training stream.
  constexpr std::uint64_t kAccuracyStream = 0x6163637572616379ull;
  return trace_seed(kAccuracyStream, design_index);
}

namespace {

double ms_since(std::int64_t t0) { return seconds_between(t0, now_ns()) * 1e3; }

core::ModelArtifact timed_load(const std::string& path, Samples& load_ms) {
  const std::int64_t t0 = now_ns();
  core::ModelArtifact art = core::load_artifact(path);
  load_ms.add(ms_since(t0));
  return art;
}

std::unique_ptr<core::WorstCasePipeline> make_pipeline(
    const pdn::PowerGrid& grid, const core::ModelArtifact& art) {
  return std::make_unique<core::WorstCasePipeline>(
      grid, *art.model, core::PipelineOptions{art.temporal});
}

}  // namespace

core::RawDataset golden_dataset(const DesignRig& rig,
                                vectors::TestVectorGenerator& generator,
                                int count, SetupCosts& costs) {
  const obs::CounterSnapshot before = obs::snapshot_counters();
  const std::int64_t c0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  core::RawDataset raw =
      core::simulate_dataset(*rig.grid, *rig.simulator, generator, count);
  costs.golden_seconds += seconds_between(t0, now_ns());
  costs.golden_cpu_ns += process_cpu_ns() - c0;
  costs.golden_vectors += count;
  const obs::CounterSnapshot after = obs::snapshot_counters();
  costs.golden_steps +=
      obs::counter_reading(before, after, obs::Counter::kSimSteps);
  costs.chol_solves +=
      obs::counter_reading(before, after, obs::Counter::kCholSolves);
  costs.chol_columns +=
      obs::counter_reading(before, after, obs::Counter::kCholSolveColumns);
  return raw;
}

std::unique_ptr<core::WorstCaseNoiseNet> train_cheap_model(
    const DesignRig& rig, const core::CompiledDataset& data, int epochs,
    SetupCosts& costs) {
  core::ModelConfig cfg;
  cfg.distance_channels = static_cast<int>(rig.grid->bumps().size());
  cfg.tile_rows = rig.spec.tile_rows;
  cfg.tile_cols = rig.spec.tile_cols;
  cfg.current_scale = data.current_scale;
  cfg.noise_scale = data.noise_scale;
  auto model = std::make_unique<core::WorstCaseNoiseNet>(cfg);
  // bench_common's schedule: lr 1e-3 decaying to lr/50 over the epochs.
  core::TrainOptions topt;
  topt.epochs = epochs;
  topt.lr = 1e-3f;
  topt.lr_decay = std::pow(0.02f, 1.0f / static_cast<float>(epochs));
  const obs::CounterSnapshot before = obs::snapshot_counters();
  const std::int64_t c0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  core::train_model(*model, data, topt);
  costs.train_seconds += seconds_between(t0, now_ns());
  costs.train_cpu_ns += process_cpu_ns() - c0;
  const obs::CounterSnapshot after = obs::snapshot_counters();
  costs.train_flops +=
      obs::counter_reading(before, after, obs::Counter::kGemmFlops);
  costs.train_sample_visits +=
      static_cast<std::int64_t>(data.split.train.size()) * epochs;
  return model;
}

void golden_label(const DesignRig& rig, std::uint64_t seed, int count,
                  std::vector<vectors::CurrentTrace>& traces,
                  std::vector<util::MapF>& truth, SetupCosts& costs) {
  vectors::TestVectorGenerator gen(*rig.grid, gen_params(), seed);
  core::RawDataset raw = golden_dataset(rig, gen, count, costs);
  vectors::TestVectorGenerator replay(*rig.grid, gen_params(), seed);
  for (int i = 0; i < count; ++i) {
    traces.push_back(replay.generate());
    truth.push_back(std::move(raw.samples[static_cast<std::size_t>(i)].truth));
  }
}

DesignRig calibrated_rig(const pdn::DesignSpec& base, SetupCosts& costs) {
  DesignRig rig;
  std::int64_t t0 = now_ns();
  rig.spec = sim::calibrate_design(base, gen_params());
  costs.calibrate_s.add(seconds_between(t0, now_ns()));
  rig.grid = std::make_unique<pdn::PowerGrid>(rig.spec);
  t0 = now_ns();
  rig.simulator = std::make_unique<sim::TransientSimulator>(
      *rig.grid, sim::TransientOptions{});
  costs.factor_ms.add(ms_since(t0));
  return rig;
}

DesignRig build_rig(const pdn::DesignSpec& base, int design_index,
                    const RigOptions& options, SetupCosts& costs) {
  DesignRig rig = calibrated_rig(base, costs);

  // The cheap model: trained on the design's own fixed stream, so the model
  // (and with it the accuracy figures) depends on the code, not the run
  // seed.
  vectors::TestVectorGenerator train_gen(*rig.grid, gen_params(),
                                         rig.spec.seed);
  const core::CompiledDataset data = core::compile_dataset(
      golden_dataset(rig, train_gen, options.train_vectors, costs),
      temporal_options(), core::SplitOptions{});
  const std::unique_ptr<core::WorstCaseNoiseNet> trained =
      train_cheap_model(rig, data, options.train_epochs, costs);
  core::WorstCaseNoiseNet& model = *trained;

  const std::string stem = options.work_dir + "/" + rig.spec.name;
  rig.fp32_path = stem + "_fp32.pdnb";
  core::save_artifact(model, temporal_options(), rig.fp32_path);
  if (options.dtype == Dtype::kInt8) {
    // Calibrate on the train split, as bench/quantize_artifact does: the
    // pipeline is built inside the scope so subnet 1 is observed too.
    quant::CalibrationResult calibration;
    {
      quant::ActivationCalibrator calibrator;
      const core::WorstCasePipeline calib(*rig.grid, model,
                                          core::PipelineOptions{
                                              temporal_options()});
      for (const int idx : data.split.train) {
        core::PreparedRequest request;
        request.currents =
            data.samples[static_cast<std::size_t>(idx)].currents;
        calib.infer(request);
      }
      calibration = calibrator.result();
    }
    rig.path = stem + "_int8.pdnb";
    core::save_artifact_int8(model, temporal_options(), calibration,
                             rig.path);
    rig.fp32_artifact = timed_load(rig.fp32_path, costs.artifact_load_ms);
    rig.fp32_pipeline = make_pipeline(*rig.grid, rig.fp32_artifact);
    rig.artifact = timed_load(rig.path, costs.artifact_load_int8_ms);
  } else {
    rig.path = rig.fp32_path;
    rig.artifact = timed_load(rig.path, costs.artifact_load_ms);
  }
  rig.pipeline = make_pipeline(*rig.grid, rig.artifact);

  golden_label(rig, accuracy_seed(design_index), options.accuracy_traces,
               rig.traces, rig.truth, costs);
  rig.accuracy_count = rig.traces.size();
  golden_label(rig, trace_seed(options.run_seed, design_index),
               options.swept_traces, rig.traces, rig.truth, costs);
  rig.reference.reserve(rig.traces.size());
  for (const vectors::CurrentTrace& trace : rig.traces) {
    rig.reference.push_back(rig.pipeline->predict(trace));
  }
  return rig;
}

}  // namespace perfbench
