// Per-layer measurements of the traced run. Every figure is taken from
// outside the program: spans around calls into each layer's public
// functions, obs counter deltas across those calls, and isolated replays of
// the production conv shapes through the public nn ops.
#pragma once

#include <vector>

#include "harness.hpp"
#include "rig.hpp"

namespace perfbench {

/// core.* and model.* stage spans, core.infer_batch, and the pool counters
/// per request, over the rigs' swept traces for about `seconds`.
void stage_probe(const std::vector<const DesignRig*>& rigs, double seconds,
                 Report& report);

/// The 14 fusion_net/prediction_net conv and deconv layers of `rig`'s model
/// replayed in isolation, fp32 and int8 (nn.<path>.us, .gflops, .s8.us),
/// with linalg.gemm.peak_gflops / linalg.gemm_s8.peak_gops measured in the
/// same run as the denominators. `fusion_batch` is the number of
/// compressed steps one request runs through fusion_net.
void conv_replay(const DesignRig& rig, int fusion_batch, Report& report);

/// pool.dispatch_us: one empty ThreadPool::run over nproc chunks.
void pool_dispatch(Report& report);

/// sim.*, cholesky.*, sparse.factor_ms, sim.calibrate_s, train.gflops and
/// artifact.load_ms from the set-up (or offline) costs.
void setup_layers(const SetupCosts& costs, Report& report);

}  // namespace perfbench
