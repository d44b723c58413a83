// Symmetric per-tensor int8 quantization primitives (DESIGN.md §15).
//
// Scheme: scale = absmax / 127, q = clamp(round(x / scale), -127, 127),
// x ~= q * scale. Symmetric (no zero point) keeps the int8 GEMM a plain
// signed multiply-accumulate with no correction terms, and per-tensor (one
// scale per weight tensor / one static scale per activation) keeps the
// dequantize a single fused multiply per output — see DESIGN.md for why
// per-tensor comes before per-channel here.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace pdnn::quant {

/// Largest |x| over n values (0.0 for an empty or all-zero range).
float absmax(const float* data, std::int64_t n);

/// Symmetric scale mapping [-absmax, absmax] onto [-127, 127]. A zero or
/// non-finite absmax yields 1.0f so degenerate tensors quantize to zeros
/// instead of NaN scales.
float symmetric_scale(float absmax_value);

/// Quantize n values with the given scale: linalg::quantize_s8(x / scale),
/// computed as x * (1 / scale) — clamp to ±127 in float, then round half to
/// even; +inf saturates to +127, -inf and NaN to -127.
void quantize(const float* data, std::int64_t n, float scale,
              std::int8_t* out);

/// Dequantize n values: out[i] = q[i] * scale.
void dequantize(const std::int8_t* q, std::int64_t n, float scale,
                float* out);

/// One quantized tensor: the int8 payload plus its scale.
struct QuantizedTensor {
  std::vector<std::int8_t> q;
  float scale = 1.0f;
};

/// Quantize a whole tensor per-tensor symmetrically.
QuantizedTensor quantize_tensor(const nn::Tensor& t);

}  // namespace pdnn::quant
