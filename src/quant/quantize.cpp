#include "quant/quantize.hpp"

#include <cmath>

#include "linalg/gemm.hpp"

namespace pdnn::quant {

float absmax(const float* data, std::int64_t n) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(data[i]);
    if (a > m) m = a;
  }
  return m;
}

float symmetric_scale(float absmax_value) {
  if (!(absmax_value > 0.0f) || !std::isfinite(absmax_value)) return 1.0f;
  return absmax_value / 127.0f;
}

void quantize(const float* data, std::int64_t n, float scale,
              std::int8_t* out) {
  linalg::quantize_s8(data, n, 1.0f / scale, out);
}

void dequantize(const std::int8_t* q, std::int64_t n, float scale,
                float* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(q[i]) * scale;
  }
}

QuantizedTensor quantize_tensor(const nn::Tensor& t) {
  QuantizedTensor out;
  out.scale = symmetric_scale(absmax(t.data(), t.numel()));
  out.q.resize(static_cast<std::size_t>(t.numel()));
  quantize(t.data(), t.numel(), out.scale, out.q.data());
  return out;
}

}  // namespace pdnn::quant
