#include "core/model.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace pdnn::core {

using nn::PadMode;
using nn::Tensor;
using nn::Var;

namespace {

/// Flops of one sample through a 3x3 layer: 2 * 9 * cin * cout per position
/// of a conv's output grid, or of a transposed conv's input grid.
std::int64_t conv3x3_flops(int cin, int cout, int h, int w) {
  return std::int64_t{18} * cin * cout * h * w;
}

/// Side of a stride-2, pad-1 3x3 conv's output.
int half(int side) { return nn::conv_out_size(side, 3, 2, 1); }

}  // namespace

UNet2::UNet2(int in_channels, int channels, int out_channels, util::Rng& rng)
    : in_conv_(in_channels, channels, 3, 1, 1, PadMode::kReplicate, rng),
      down1_a_(channels, channels, 3, 2, 1, PadMode::kReplicate, rng),
      down1_b_(channels, channels, 3, 1, 1, PadMode::kReplicate, rng),
      down2_a_(channels, channels, 3, 2, 1, PadMode::kReplicate, rng),
      down2_b_(channels, channels, 3, 1, 1, PadMode::kReplicate, rng),
      up1_(channels, channels, 3, 2, 1, /*output_padding=*/1, rng),
      up1_conv_(2 * channels, channels, 3, 1, 1, PadMode::kReplicate, rng),
      up2_(channels, channels, 3, 2, 1, /*output_padding=*/1, rng),
      up2_conv_(2 * channels, channels, 3, 1, 1, PadMode::kReplicate, rng),
      out_conv_(channels, out_channels, 3, 1, 1, PadMode::kReplicate, rng) {
  register_module(&in_conv_, "in_conv");
  register_module(&down1_a_, "down1_a");
  register_module(&down1_b_, "down1_b");
  register_module(&down2_a_, "down2_a");
  register_module(&down2_b_, "down2_b");
  register_module(&up1_, "up1");
  register_module(&up1_conv_, "up1_conv");
  register_module(&up2_, "up2");
  register_module(&up2_conv_, "up2_conv");
  register_module(&out_conv_, "out_conv");
}

Var UNet2::forward(const Var& x) const {
  // Encoder: stride-2 conv + stride-1 conv per level, replication padding.
  const Var e0 = nn::relu(in_conv_.forward(x));                      // m x n
  const Var d1 = nn::relu(down1_b_.forward(nn::relu(down1_a_.forward(e0))));
  const Var d2 = nn::relu(down2_b_.forward(nn::relu(down2_a_.forward(d1))));

  // Decoder: stride-2 deconv (zero padding) + skip concat + stride-1 conv.
  // The deconv doubles the (possibly odd) encoder size; crop to the skip's.
  Var u1 = nn::relu(up1_.forward(d2));
  u1 = nn::crop2d(u1, d1.value().h(), d1.value().w());
  const Var m1 = nn::relu(up1_conv_.forward(nn::concat_channels({u1, d1})));

  Var u2 = nn::relu(up2_.forward(m1));
  u2 = nn::crop2d(u2, e0.value().h(), e0.value().w());
  const Var m2 = nn::relu(up2_conv_.forward(nn::concat_channels({u2, e0})));

  return out_conv_.forward(m2);  // linear output layer
}

FusionNet::FusionNet(int channels, util::Rng& rng)
    : enc1_(1, channels, 3, 1, 1, PadMode::kReplicate, rng),
      enc2_(channels, channels, 3, 2, 1, PadMode::kReplicate, rng),
      dec1_(channels, channels, 3, 2, 1, /*output_padding=*/1, rng),
      dec2_(channels, 1, 3, 1, 1, PadMode::kReplicate, rng) {
  register_module(&enc1_, "enc1");
  register_module(&enc2_, "enc2");
  register_module(&dec1_, "dec1");
  register_module(&dec2_, "dec2");
}

Var FusionNet::forward(const Var& x) const {
  const int h = x.value().h();
  const int w = x.value().w();
  Var y = nn::relu(enc1_.forward(x));
  y = nn::relu(enc2_.forward(y));
  y = nn::relu(dec1_.forward(y));
  y = nn::crop2d(y, h, w);
  return dec2_.forward(y);  // linear output layer
}

std::int64_t FusionNet::flops_per_sample(int h, int w) const {
  const int c = enc1_.out_channels();
  return conv3x3_flops(1, c, h, w) +                     // enc1
         2 * conv3x3_flops(c, c, half(h), half(w)) +     // enc2, dec1
         conv3x3_flops(c, 1, h, w);                      // dec2
}

WorstCaseNoiseNet::WorstCaseNoiseNet(const ModelConfig& config)
    : config_(config),
      init_rng_(config.init_seed),
      distance_net_(config.distance_channels, config.c1, 1, init_rng_),
      fusion_net_(config.c2, init_rng_),
      prediction_net_(4, config.c3, 1, init_rng_) {
  PDN_CHECK(config.distance_channels > 0, "WorstCaseNoiseNet: B must be > 0");
  PDN_CHECK(config.tile_rows > 0 && config.tile_cols > 0,
            "WorstCaseNoiseNet: empty tile grid");
  register_module(&distance_net_, "distance_net");
  register_module(&fusion_net_, "fusion_net");
  register_module(&prediction_net_, "prediction_net");
}

Var WorstCaseNoiseNet::forward(const Var& distance,
                               const Var& currents) const {
  // Subnet 1 -> subnet 2 (fuse + reduce) -> subnet 3, through the same
  // staged methods the serving layer batches over, so one request served
  // through the fused path reproduces forward() bit for bit.
  const Var d_tilde = reduce_distance(distance);
  const Var stats = temporal_stats(fuse_currents(currents));
  return predict_noise(nn::concat_channels({d_tilde, stats}));
}

Var WorstCaseNoiseNet::reduce_distance(const Var& distance) const {
  PDN_CHECK(distance.value().ndim() == 4 &&
                distance.value().c() == config_.distance_channels,
            "forward: distance tensor has wrong channel count");
  return distance_net_.forward(distance);
}

Var WorstCaseNoiseNet::fuse_currents(const Var& currents) const {
  PDN_CHECK(currents.value().ndim() == 4 && currents.value().c() == 1,
            "forward: currents tensor must be [T,1,m,n]");
  if (nn::NoGradGuard::enabled()) return fusion_net_.forward(currents);
  // Inference runs depth-first: one parallel_for over fixed chunks of time
  // steps, each chunk carrying its steps through every layer into a
  // disjoint slice of the output. The partition depends on the shape alone
  // and each step's convs run alone, so the bytes equal the layer-by-layer
  // forward at any pool width.
  const Tensor& x = currents.value();
  const int steps = x.n();
  const std::int64_t step_flops = fusion_net_.flops_per_sample(x.h(), x.w());
  if (steps * step_flops < util::kMinChunkFlops) {
    // The whole pass is less work than one chunk, so none of its layers
    // fans out either (D1's 12 kept steps at small scale).
    const util::SerialScope serial;
    return fusion_net_.forward(currents);
  }
  Tensor out(x.shape());
  const std::int64_t step_size = out.numel() / steps;
  util::parallel_for(
      steps, util::grain_for_flops(step_flops),
      [&](std::int64_t t0, std::int64_t t1) {
        // The guard's depth is thread_local: without its own guard a worker
        // would record a tape, and a quantized conv would throw.
        nn::NoGradGuard no_grad;
        const Var y = fusion_net_.forward(Var(x.narrow_n(
            static_cast<int>(t0), static_cast<int>(t1 - t0))));
        std::copy(y.value().data(), y.value().data() + y.value().numel(),
                  out.data() + t0 * step_size);
      });
  return Var(out);
}

Var WorstCaseNoiseNet::temporal_stats(const Var& fused) {
  const Var i_max = nn::batch_max(fused);
  const Var i_min = nn::batch_min(fused);
  const Var i_mean = nn::scale(nn::add(i_max, i_min), 0.5f);
  const Var i_msd = nn::batch_mean3sigma(fused);
  return nn::concat_channels({i_max, i_mean, i_msd});
}

Var WorstCaseNoiseNet::predict_noise(const Var& stacked) const {
  PDN_CHECK(stacked.value().ndim() == 4 && stacked.value().c() == 4,
            "forward: feature stack must be [N,4,m,n]");
  return prediction_net_.forward(stacked);
}

}  // namespace pdnn::core
