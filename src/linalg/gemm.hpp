// Dense matrix-multiply kernels (row-major, single precision).
//
// These three kernels are the computational backend of the CNN library: the
// im2col formulation of conv2d maps forward, weight-gradient, and
// input-gradient passes onto gemm_nn, gemm_nt, and gemm_tn respectively.
// They are cache-blocked and written so the inner loops auto-vectorize; on a
// single AVX2 core they sustain several GFLOP/s. Sufficiently large problems
// additionally fan out across the global util::ThreadPool by disjoint row
// panels of C. Every C element accumulates its k terms in a fixed order, so
// results are bit-identical for any thread count (including 1).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace pdnn::linalg {

/// C = alpha * A * B + beta * C.
/// A is MxK, B is KxN, C is MxN, all row-major with the given leading
/// dimensions (elements per row).
void gemm_nn(int m, int n, int k, float alpha, const float* a, int lda,
             const float* b, int ldb, float beta, float* c, int ldc);

/// C = alpha * A * B^T + beta * C.  A is MxK, B is NxK, C is MxN.
void gemm_nt(int m, int n, int k, float alpha, const float* a, int lda,
             const float* b, int ldb, float beta, float* c, int ldc);

/// C = alpha * A^T * B + beta * C.  A is KxM, B is KxN, C is MxN.
void gemm_tn(int m, int n, int k, float alpha, const float* a, int lda,
             const float* b, int ldb, float beta, float* c, int ldc);

/// C (int32) = A (int8) * B (int8); C is overwritten. A is MxK, B is KxN,
/// C is MxN, row-major. The quantized-inference workhorse: integer
/// accumulation is exact, so every backend and thread count computes the
/// same bytes (the float kernels need a fixed accumulation order for that;
/// this one gets it for free).
void gemm_s8(int m, int n, int k, const std::int8_t* a, int lda,
             const std::int8_t* b, int ldb, std::int32_t* c, int ldc);

/// The int8 rounding rule shared by weight quantization, activation
/// quantization and every int8 conv lowering: clamp v to [-127, 127] in
/// float, then round half to even. +inf and any large positive value
/// saturate to +127, -inf to -127; NaN fails both comparisons and lands on
/// -127. It is the scalar reference the AVX2 fused-conv pack reproduces.
inline std::int8_t quantize_s8(float v) {
  const float c = v > 127.0f ? 127.0f : (v >= -127.0f ? v : -127.0f);
  return static_cast<std::int8_t>(std::rint(c));
}

/// out[i] = quantize_s8(x[i] * inv_scale) over n values: static symmetric
/// quantization against a scale given by its reciprocal.
void quantize_s8(const float* x, std::int64_t n, float inv_scale,
                 std::int8_t* out);

/// y = alpha * x + y over n elements.
void axpy(int n, float alpha, const float* x, float* y);

/// Dot product over n elements (accumulated in double for stability).
double dot(int n, const float* x, const float* y);

}  // namespace pdnn::linalg
