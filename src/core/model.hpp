// The worst-case dynamic PDN noise prediction network (paper §3.4, Fig. 3).
//
// Three subnets:
//   1. Distance dimension reduction — a U-Net that squeezes the B-channel
//      bump-distance tensor down to a single distance map D~ (§3.4.1).
//   2. Current map fusion — a small 4-layer encoder-decoder applied to each
//      compressed time step independently (weights shared across time, so
//      any sequence length works), followed by the per-tile temporal
//      reductions I~max, I~mean, I~msd (§3.4.2).
//   3. Noise prediction — a U-Net over the concatenated 4 x m x n feature
//      stack producing the worst-case noise map V (§3.4.3).
//
// Published hyperparameters reproduced here: all down/up sampling layers use
// stride 2 and are each followed by a stride-1 convolution; skip connections
// join same-size features; convolutions use replication padding and
// deconvolutions zero padding; every layer is ReLU except the outputs;
// kernel counts C1 = C2 = 8, C3 = 16 (§4.1).
#pragma once

#include <cstdint>

#include "nn/module.hpp"
#include "nn/ops.hpp"

namespace pdnn::core {

/// Depth-2 U-Net used by the distance-reduction and noise-prediction subnets.
class UNet2 : public nn::Module {
 public:
  UNet2(int in_channels, int channels, int out_channels, util::Rng& rng);

  nn::Var forward(const nn::Var& x) const;

 private:
  nn::Conv2d in_conv_;
  nn::Conv2d down1_a_, down1_b_;
  nn::Conv2d down2_a_, down2_b_;
  nn::ConvTranspose2d up1_;
  nn::Conv2d up1_conv_;
  nn::ConvTranspose2d up2_;
  nn::Conv2d up2_conv_;
  nn::Conv2d out_conv_;
};

/// 4-layer encoder-decoder applied per time step (1 -> C2 -> C2 -> 1).
class FusionNet : public nn::Module {
 public:
  FusionNet(int channels, util::Rng& rng);

  /// x: [T, 1, m, n] -> fused per-step maps [T, 1, m, n].
  nn::Var forward(const nn::Var& x) const;

 private:
  nn::Conv2d enc1_, enc2_;
  nn::ConvTranspose2d dec1_;
  nn::Conv2d dec2_;
};

/// Everything needed to rebuild a model and interpret its inputs/outputs.
struct ModelConfig {
  int distance_channels = 0;  ///< B: number of power bumps
  int tile_rows = 0;          ///< m
  int tile_cols = 0;          ///< n
  int c1 = 8;                 ///< distance subnet kernels
  int c2 = 8;                 ///< fusion subnet kernels
  int c3 = 16;                ///< prediction subnet kernels
  float current_scale = 1.0f; ///< amperes mapped to 1.0 at the input
  float noise_scale = 1.0f;   ///< volts mapped to 1.0 at the output (= Vdd)
  std::uint64_t init_seed = 42;
};

/// The full three-subnet model.
///
/// Concurrency contract: every forward method is const and only reads the
/// registered parameters, so concurrent forward passes over one frozen model
/// are safe (the serving layer relies on this). Training mutates parameters
/// and must not overlap with concurrent inference on the same instance.
///
/// The staged methods expose the subnets individually so callers can reuse
/// stage outputs: the distance reduction depends only on the design (the
/// pipeline computes it once and reuses it for every prediction) and the
/// serving layer fuses many requests' current stacks through one batched
/// fuse_currents / predict_noise pass. forward() composes exactly these
/// stages, so the serial and batched paths share machine code and produce
/// bit-identical results.
class WorstCaseNoiseNet : public nn::Module {
 public:
  explicit WorstCaseNoiseNet(const ModelConfig& config);

  /// distance: [1, B, m, n]; currents: [T, 1, m, n] (any T >= 1).
  /// Returns the predicted normalized worst-case noise map [1, 1, m, n].
  nn::Var forward(const nn::Var& distance, const nn::Var& currents) const;

  /// Subnet 1: [1, B, m, n] bump distances -> [1, 1, m, n] reduced map D~.
  nn::Var reduce_distance(const nn::Var& distance) const;

  /// Subnet 2, conv part: [T, 1, m, n] current maps -> [T, 1, m, n] fused
  /// maps. T is a pure batch axis (weights are shared across time), so
  /// stacking several requests' steps into one call yields per-step results
  /// bit-identical to separate calls.
  nn::Var fuse_currents(const nn::Var& currents) const;

  /// Subnet 2, reduction part: fused [T, 1, m, n] -> [1, 3, m, n] stack of
  /// the temporal statistics I~max, I~mean, I~msd.
  static nn::Var temporal_stats(const nn::Var& fused);

  /// Subnet 3: [N, 4, m, n] stacked features (D~, I~max, I~mean, I~msd) ->
  /// [N, 1, m, n] normalized worst-case noise maps. N > 1 batches
  /// independent requests.
  nn::Var predict_noise(const nn::Var& stacked) const;

  const ModelConfig& config() const { return config_; }

 private:
  ModelConfig config_;
  util::Rng init_rng_;
  UNet2 distance_net_;
  FusionNet fusion_net_;
  UNet2 prediction_net_;
};

}  // namespace pdnn::core
