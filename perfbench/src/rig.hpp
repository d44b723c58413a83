// Set-up of one design for the benchmark: calibrated grid, golden engine,
// a cheaply trained model saved and loaded back as a PDNB artifact, the
// swept traces (a fixed accuracy set and traces generated from the run
// seed), their golden labels, and the serial predict() reference every
// timed map is compared against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/artifact.hpp"
#include "core/dataset.hpp"
#include "core/pipeline.hpp"
#include "harness.hpp"
#include "pdn/design.hpp"
#include "pdn/power_grid.hpp"
#include "sim/transient.hpp"
#include "vectors/generator.hpp"

namespace perfbench {

enum class Dtype { kF32, kInt8 };

/// Fixed workload parameters (DESIGN.md §5 small-scale defaults).
constexpr int kTraceSteps = 80;
constexpr double kCompressionRate = 0.15;
constexpr double kRateStep = 0.025;

pdnn::vectors::VectorGenParams gen_params();
pdnn::core::TemporalCompressionOptions temporal_options();

/// Seed of the traces a run sweeps on one design: a function of the run
/// seed and the design, never of the model-training stream.
std::uint64_t trace_seed(std::uint64_t run_seed, int design_index);

/// Seed of the fixed traces the accuracy figures of one design are measured
/// on. It does not depend on the run seed, so accuracy.* depends on the
/// code alone and can be held to a tight bound.
std::uint64_t accuracy_seed(int design_index);

/// Set-up costs, gathered for the per-layer report.
struct SetupCosts {
  Samples calibrate_s;        ///< sim::calibrate_design per design
  Samples factor_ms;          ///< TransientSimulator construction per design
  Samples artifact_load_ms;   ///< fp32 load_artifact
  Samples artifact_load_int8_ms;
  double golden_seconds = 0.0;
  std::int64_t golden_cpu_ns = 0;  ///< process CPU time of the golden runs
  std::int64_t golden_vectors = 0;
  std::int64_t golden_steps = 0;
  std::int64_t chol_solves = 0;
  std::int64_t chol_columns = 0;
  double train_seconds = 0.0;
  std::int64_t train_cpu_ns = 0;   ///< process CPU time of training
  std::int64_t train_flops = 0;
  std::int64_t train_sample_visits = 0;
};

struct RigOptions {
  Dtype dtype = Dtype::kF32;
  int train_vectors = 0;   ///< golden vectors the cheap model is trained on
  int train_epochs = 0;
  int accuracy_traces = 0; ///< fixed traces, from accuracy_seed()
  int swept_traces = 0;    ///< further traces, from the run seed
  std::uint64_t run_seed = 0;
  std::string work_dir;    ///< where artifacts are written
};

/// One design ready to predict.
struct DesignRig {
  pdnn::pdn::DesignSpec spec;  ///< calibrated
  std::unique_ptr<pdnn::pdn::PowerGrid> grid;
  std::unique_ptr<pdnn::sim::TransientSimulator> simulator;
  std::string fp32_path;  ///< fp32 artifact (always written)
  std::string path;       ///< artifact served (fp32 or int8)
  pdnn::core::ModelArtifact artifact;
  std::unique_ptr<pdnn::core::WorstCasePipeline> pipeline;
  /// The fp32 model, kept for the int8 deviation figure (null for fp32).
  pdnn::core::ModelArtifact fp32_artifact;
  std::unique_ptr<pdnn::core::WorstCasePipeline> fp32_pipeline;
  /// The swept traces: the first `accuracy_count` are the fixed accuracy
  /// set, the rest come from the run seed.
  std::vector<pdnn::vectors::CurrentTrace> traces;
  std::size_t accuracy_count = 0;
  std::vector<pdnn::util::MapF> truth;      ///< golden labels
  std::vector<pdnn::util::MapF> reference;  ///< serial predict() maps
};

/// A design calibrated to its noise target, with its grid and factored
/// golden engine (the start of every rig).
DesignRig calibrated_rig(const pdnn::pdn::DesignSpec& base, SetupCosts& costs);

/// Calibrate, factor, train, save/load, generate, label and reference one
/// design. Counter-based costs need obs enabled (traced runs).
DesignRig build_rig(const pdnn::pdn::DesignSpec& base, int design_index,
                    const RigOptions& options, SetupCosts& costs);

/// simulate_dataset (store off) over `count` traces of `generator`, with
/// its wall time and solver counters added to `costs`.
pdnn::core::RawDataset golden_dataset(
    const DesignRig& rig, pdnn::vectors::TestVectorGenerator& generator,
    int count, SetupCosts& costs);

/// A model for `rig`'s design trained on `data`, with its time, GEMM FLOPs
/// and sample visits added to `costs`.
std::unique_ptr<pdnn::core::WorstCaseNoiseNet> train_cheap_model(
    const DesignRig& rig, const pdnn::core::CompiledDataset& data, int epochs,
    SetupCosts& costs);

/// Golden-simulate `count` traces of the stream seeded `seed`, returning the
/// traces and their labels.
void golden_label(const DesignRig& rig, std::uint64_t seed, int count,
                  std::vector<pdnn::vectors::CurrentTrace>& traces,
                  std::vector<pdnn::util::MapF>& truth, SetupCosts& costs);

}  // namespace perfbench
