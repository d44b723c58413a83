// Per-parameter quantization state and the activation-observer hook.
//
// These are the two touch points the post-training-quantization subsystem
// (src/quant) needs inside the nn layer:
//
//   * ParamQuant — symmetric per-tensor int8 state a v2 artifact attaches to
//     a conv weight Parameter. When present, Conv2d::forward routes through
//     the int8 conv (quantized_conv2d below) instead of the fp32 lowering.
//   * The activation observer — a process-global callback the calibrator
//     installs while streaming the training set; Conv2d::forward reports
//     each layer's input absmax (keyed by the weight parameter's dotted
//     name) so the calibrator can derive static activation scales.
//
// Living in nn (not src/quant) keeps the dependency graph acyclic: nn knows
// nothing about artifacts or calibration policy, it only carries the state
// and fires the hook. The observer costs one relaxed atomic load per conv
// forward when disarmed — the same discipline as obs::enabled().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/conv.hpp"

namespace pdnn::nn {

/// Symmetric per-tensor int8 quantization of one conv weight, plus the
/// calibrated static scale of that layer's input activations.
///
///   w   ~= q * weight_scale          (q in [-127, 127])
///   x_q  = clamp(round(x / act_scale), -127, 127)
///   y    = (sum q * x_q) * weight_scale * act_scale + bias
struct ParamQuant {
  std::vector<std::int8_t> q;  ///< quantized weights, same layout as the
                               ///< fp32 tensor (cout x cin x kh x kw)
  float weight_scale = 1.0f;   ///< absmax(w) / 127
  float act_scale = 1.0f;      ///< absmax(calibration inputs) / 127
};

/// Install `fn` as the process-global activation observer. Conv2d::forward
/// calls it with (weight parameter name, absmax of the input tensor) for
/// every forward pass while installed. Pass nullptr to disarm. The callback
/// runs under an internal mutex, so a multi-threaded calibration workload
/// (e.g. batched inference on the pool) observes safely; calibration is not
/// a hot path.
void set_activation_observer(
    std::function<void(const std::string&, float)> fn);

namespace detail {

/// One relaxed load; true while an observer is installed.
bool activation_observer_armed();

/// Compute absmax(x) and deliver it to the installed observer (if any).
void observe_activation(const std::string& param_name, const Tensor& x);

}  // namespace detail

/// Quantized conv2d forward. Each input pixel is quantized once against the
/// calibrated static act_scale (linalg::quantize_s8: clamp to ±127 in float,
/// round half to even); int8 x int8 products accumulate exactly in int32;
/// the sums are dequantized as acc * (weight_scale * act_scale) + bias.
/// 3x3 / pad-1 layers run the kernel registry's fused conv3x3_s8, which
/// quantizes straight into padded int16 planes; other shapes, and backends
/// without that kernel, lower through an int8 im2col and gemm_s8.
/// Inference-only — it must run under a NoGradGuard (a quantized model
/// cannot produce gradients) and returns a leaf Var. Requires a finite
/// 1 / act_scale. Bit-deterministic at any thread count, batch width, and
/// kernel backend: quantization is elementwise and integer accumulation is
/// exact, so both lowerings produce the same bytes.
Var quantized_conv2d(const Var& x, const ParamQuant& quant, const Var& w,
                     const Var& b, int stride, int pad, PadMode mode);

}  // namespace pdnn::nn
