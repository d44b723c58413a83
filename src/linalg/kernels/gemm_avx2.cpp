// AVX2 kernel backend: register-blocked GEMM microkernels over packed B
// panels, fused fp32 and int8 3x3 convolutions that skip im2col for the
// paper net's stride-1/stride-2 shapes, and a fused stride-2 transposed 3x3
// convolution that skips gemm_tn + col2im.
//
// Bit-identity with the scalar fallback is a hard contract (tests and the CI
// kernel-dispatch job memcmp the two backends): every output element
// accumulates its k terms in ascending order, each term as an explicit
// multiply (_mm256_mul_ps) then add (_mm256_add_ps) — the same two roundings
// the scalar loops perform — and this translation unit is compiled with
// -ffp-contract=off so the compiler cannot fuse the pair into an FMA. The
// speedup comes from keeping C tiles in ymm accumulators (the scalar kernel
// streams every C row through memory once per k step) and from packed
// contiguous B panels. The fused conv adds three more: it skips the 9x
// im2col materialization, its 4-channel register tile loads each tap's
// input once for four output channels, and masked stores finish column
// tails in vector code. The fused transposed conv gathers each output's taps
// instead of scattering them. None of it comes from reassociating the sum.
#include "linalg/kernels/kernel_common.hpp"
#include "linalg/kernels/registry.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/gemm.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace pdnn::linalg::detail {

namespace {

// ---------------------------------------------------------------------------
// GEMM: C = alpha * op(A) * B + beta * C over packed 8-column B tiles
// ---------------------------------------------------------------------------

/// A addressed row-major (gemm_nn): element (i, p) of the M x K operand.
struct NnAccess {
  const float* a;
  int lda;
  float at(int i, int p) const {
    return a[static_cast<std::ptrdiff_t>(i) * lda + p];
  }
};

/// A addressed transposed (gemm_tn): the operand is K x M.
struct TnAccess {
  const float* a;
  int lda;
  float at(int i, int p) const {
    return a[static_cast<std::ptrdiff_t>(p) * lda + i];
  }
};

/// Per-thread packing scratch. Workers reading a caller's panels receive the
/// data pointer through the parallel lambda, so each concurrent gemm caller
/// (e.g. conv batch workers) packs into its own buffer.
std::vector<float>& pack_scratch() {
  thread_local std::vector<float> buffer;
  return buffer;
}

/// Per-thread scratch for the alpha-scaled A panel (each panel worker packs
/// its own rows, so this is per worker, not per gemm call).
std::vector<float>& a_scratch() {
  thread_local std::vector<float> buffer;
  return buffer;
}

/// Stage B's full 8-column tiles contiguously: pack[(tile * k + p) * 8 + j]
/// = B[p][tile * 8 + j]. Pure data movement (tiles are disjoint), so packing
/// in parallel cannot perturb bits.
void pack_b(int n, int k, const float* b, int ldb, float* pack,
            bool parallel) {
  const int tiles = n / 8;
  const auto pack_tile = [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      float* dst = pack + t * k * 8;
      const float* src = b + t * 8;
      for (int p = 0; p < k; ++p) {
        const float* row = src + static_cast<std::ptrdiff_t>(p) * ldb;
        for (int j = 0; j < 8; ++j) dst[j] = row[j];
        dst += 8;
      }
    }
  };
  if (parallel && tiles > 1) {
    util::parallel_for(tiles, 8, pack_tile);
  } else {
    pack_tile(0, tiles);
  }
}

/// 2 x 4-tile microkernel: rows i0, i0+1 against 32 packed columns. The
/// accumulators seed from the beta-scaled C rows and sweep p ascending, so
/// each element sees exactly the scalar kernel's operation sequence. as0/as1
/// are the rows' alpha-prescaled A entries, so the per-term broadcast is a
/// pure load (vbroadcastss) that leaves both FP ports to the mul+add pairs.
void kernel_2x4(const float* as0, const float* as1, int k, const float* pack0,
                const float* pack1, const float* pack2, const float* pack3,
                std::ptrdiff_t bs, float* c0, float* c1) {
  __m256 a00 = _mm256_loadu_ps(c0 + 0), a01 = _mm256_loadu_ps(c0 + 8);
  __m256 a02 = _mm256_loadu_ps(c0 + 16), a03 = _mm256_loadu_ps(c0 + 24);
  __m256 a10 = _mm256_loadu_ps(c1 + 0), a11 = _mm256_loadu_ps(c1 + 8);
  __m256 a12 = _mm256_loadu_ps(c1 + 16), a13 = _mm256_loadu_ps(c1 + 24);
  for (int p = 0; p < k; ++p) {
    const __m256 t0 = _mm256_broadcast_ss(as0 + p);
    const __m256 t1 = _mm256_broadcast_ss(as1 + p);
    const __m256 b0 = _mm256_loadu_ps(pack0 + p * bs);
    const __m256 b1 = _mm256_loadu_ps(pack1 + p * bs);
    const __m256 b2 = _mm256_loadu_ps(pack2 + p * bs);
    const __m256 b3 = _mm256_loadu_ps(pack3 + p * bs);
    a00 = _mm256_add_ps(a00, _mm256_mul_ps(t0, b0));
    a01 = _mm256_add_ps(a01, _mm256_mul_ps(t0, b1));
    a02 = _mm256_add_ps(a02, _mm256_mul_ps(t0, b2));
    a03 = _mm256_add_ps(a03, _mm256_mul_ps(t0, b3));
    a10 = _mm256_add_ps(a10, _mm256_mul_ps(t1, b0));
    a11 = _mm256_add_ps(a11, _mm256_mul_ps(t1, b1));
    a12 = _mm256_add_ps(a12, _mm256_mul_ps(t1, b2));
    a13 = _mm256_add_ps(a13, _mm256_mul_ps(t1, b3));
  }
  _mm256_storeu_ps(c0 + 0, a00);
  _mm256_storeu_ps(c0 + 8, a01);
  _mm256_storeu_ps(c0 + 16, a02);
  _mm256_storeu_ps(c0 + 24, a03);
  _mm256_storeu_ps(c1 + 0, a10);
  _mm256_storeu_ps(c1 + 8, a11);
  _mm256_storeu_ps(c1 + 16, a12);
  _mm256_storeu_ps(c1 + 24, a13);
}

/// 1 x 4-tile microkernel (odd row remainder).
void kernel_1x4(const float* as0, int k, const float* pack0,
                const float* pack1, const float* pack2, const float* pack3,
                std::ptrdiff_t bs, float* c0) {
  __m256 a00 = _mm256_loadu_ps(c0 + 0), a01 = _mm256_loadu_ps(c0 + 8);
  __m256 a02 = _mm256_loadu_ps(c0 + 16), a03 = _mm256_loadu_ps(c0 + 24);
  for (int p = 0; p < k; ++p) {
    const __m256 t0 = _mm256_broadcast_ss(as0 + p);
    a00 = _mm256_add_ps(
        a00, _mm256_mul_ps(
                 t0, _mm256_loadu_ps(pack0 + p * bs)));
    a01 = _mm256_add_ps(
        a01, _mm256_mul_ps(
                 t0, _mm256_loadu_ps(pack1 + p * bs)));
    a02 = _mm256_add_ps(
        a02, _mm256_mul_ps(
                 t0, _mm256_loadu_ps(pack2 + p * bs)));
    a03 = _mm256_add_ps(
        a03, _mm256_mul_ps(
                 t0, _mm256_loadu_ps(pack3 + p * bs)));
  }
  _mm256_storeu_ps(c0 + 0, a00);
  _mm256_storeu_ps(c0 + 8, a01);
  _mm256_storeu_ps(c0 + 16, a02);
  _mm256_storeu_ps(c0 + 24, a03);
}

/// 2 x 1-tile microkernel (8-column groups past the last group of 4 tiles).
void kernel_2x1(const float* as0, const float* as1, int k, const float* pack0,
                std::ptrdiff_t bs, float* c0, float* c1) {
  __m256 a00 = _mm256_loadu_ps(c0);
  __m256 a10 = _mm256_loadu_ps(c1);
  for (int p = 0; p < k; ++p) {
    const __m256 b0 =
        _mm256_loadu_ps(pack0 + p * bs);
    a00 = _mm256_add_ps(a00, _mm256_mul_ps(_mm256_broadcast_ss(as0 + p), b0));
    a10 = _mm256_add_ps(a10, _mm256_mul_ps(_mm256_broadcast_ss(as1 + p), b0));
  }
  _mm256_storeu_ps(c0, a00);
  _mm256_storeu_ps(c1, a10);
}

void kernel_1x1(const float* as0, int k, const float* pack0,
                std::ptrdiff_t bs, float* c0) {
  __m256 a00 = _mm256_loadu_ps(c0);
  for (int p = 0; p < k; ++p) {
    a00 = _mm256_add_ps(
        a00, _mm256_mul_ps(
                 _mm256_broadcast_ss(as0 + p),
                 _mm256_loadu_ps(pack0 + p * bs)));
  }
  _mm256_storeu_ps(c0, a00);
}

/// Shared driver for gemm_nn / gemm_tn: pack B once, then sweep disjoint row
/// panels (in parallel for large problems, like the scalar backend). Tail
/// columns past the last full 8-wide tile read B directly with the same
/// ascending-p multiply-add sequence.
template <typename Access>
void avx2_gemm(const Access& access, int m, int n, int k, float alpha,
               const float* b, int ldb, float beta, float* c, int ldc) {
  obs::counter_add(obs::Counter::kGemmAvx2Calls, 1);
  const int tiles = n / 8;
  const std::int64_t flops =
      static_cast<std::int64_t>(m) * n * static_cast<std::int64_t>(k);
  const bool parallel = flops >= kParallelFlops;

  // Packing B costs one read+write of the whole operand, amortized over m/2
  // row-pair sweeps — a win only for tall C. Short C (the paper net's
  // conv-as-gemm shapes have m = cout = 8 or 16) reads B in place instead:
  // the microkernels take the B row stride as a parameter, and the packed
  // layout is just the bs == 8 special case. Either way every output element
  // sees identical values in identical order, so the choice cannot change
  // bits.
  const bool use_pack = m >= 32 && tiles > 0 && k > 0;
  std::vector<float>& pack = pack_scratch();
  const float* packed = b;
  std::ptrdiff_t bstride = ldb;
  std::ptrdiff_t tile_stride = 8;
  if (use_pack) {
    pack.resize(static_cast<std::size_t>(tiles) * k * 8);
    pack_b(n, k, b, ldb, pack.data(), parallel);
    packed = pack.data();
    bstride = 8;
    tile_stride = static_cast<std::ptrdiff_t>(k) * 8;
    obs::counter_add(obs::Counter::kKernelPackedBytes,
                     static_cast<std::int64_t>(tiles) * k * 8 *
                         static_cast<std::int64_t>(sizeof(float)));
  }
  for_each_row_panel(m, n, k, [&](int panel) {
    const int i0 = panel * kMB;
    const int i1 = std::min(m, i0 + kMB);
    scale_rows(i1 - i0, n, beta, c + static_cast<std::ptrdiff_t>(i0) * ldc,
               ldc);
    // Stage this panel's A rows prescaled by alpha: aip = alpha * a[i][p] is
    // the scalar kernel's single rounding, computed once per (i, p) here
    // instead of once per (i, p, column group) in the inner loops.
    std::vector<float>& ascaled = a_scratch();
    ascaled.resize(static_cast<std::size_t>(i1 - i0) *
                   static_cast<std::size_t>(k));
    for (int i = i0; i < i1; ++i) {
      float* row =
          ascaled.data() + static_cast<std::ptrdiff_t>(i - i0) * k;
      for (int p = 0; p < k; ++p) row[p] = alpha * access.at(i, p);
    }
    const auto arow = [&](int i) {
      return ascaled.data() + static_cast<std::ptrdiff_t>(i - i0) * k;
    };
    int jt = 0;
    for (; jt + 4 <= tiles; jt += 4) {
      const float* p0 = packed + jt * tile_stride;
      const float* p1 = p0 + tile_stride;
      const float* p2 = p1 + tile_stride;
      const float* p3 = p2 + tile_stride;
      float* ctile = c + jt * 8;
      int i = i0;
      for (; i + 2 <= i1; i += 2) {
        kernel_2x4(arow(i), arow(i + 1), k, p0, p1, p2, p3, bstride,
                   ctile + static_cast<std::ptrdiff_t>(i) * ldc,
                   ctile + static_cast<std::ptrdiff_t>(i + 1) * ldc);
      }
      if (i < i1) {
        kernel_1x4(arow(i), k, p0, p1, p2, p3, bstride,
                   ctile + static_cast<std::ptrdiff_t>(i) * ldc);
      }
    }
    for (; jt < tiles; ++jt) {
      const float* p0 = packed + jt * tile_stride;
      float* ctile = c + jt * 8;
      int i = i0;
      for (; i + 2 <= i1; i += 2) {
        kernel_2x1(arow(i), arow(i + 1), k, p0, bstride,
                   ctile + static_cast<std::ptrdiff_t>(i) * ldc,
                   ctile + static_cast<std::ptrdiff_t>(i + 1) * ldc);
      }
      if (i < i1) {
        kernel_1x1(arow(i), k, p0, bstride,
                   ctile + static_cast<std::ptrdiff_t>(i) * ldc);
      }
    }
    // Tail columns: unpacked B, same per-element operation sequence.
    for (int j = tiles * 8; j < n; ++j) {
      for (int i = i0; i < i1; ++i) {
        const float* as0 = arow(i);
        float accv = c[static_cast<std::ptrdiff_t>(i) * ldc + j];
        for (int p = 0; p < k; ++p) {
          accv += as0[p] * b[static_cast<std::ptrdiff_t>(p) * ldb + j];
        }
        c[static_cast<std::ptrdiff_t>(i) * ldc + j] = accv;
      }
    }
  });
}

void avx2_gemm_nn(int m, int n, int k, float alpha, const float* a, int lda,
                  const float* b, int ldb, float beta, float* c, int ldc) {
  avx2_gemm(NnAccess{a, lda}, m, n, k, alpha, b, ldb, beta, c, ldc);
}

void avx2_gemm_tn(int m, int n, int k, float alpha, const float* a, int lda,
                  const float* b, int ldb, float beta, float* c, int ldc) {
  avx2_gemm(TnAccess{a, lda}, m, n, k, alpha, b, ldb, beta, c, ldc);
}

// ---------------------------------------------------------------------------
// Int8 GEMM: C (int32) = A (int8, m x k) * B (int8, k x n).
//
// The microkernel consumes k in sign-extended int16 *pairs*: two B rows are
// interleaved with vpunpck[lh]wd, the matching A pair is broadcast as one
// 32-bit lane, and vpmaddwd multiplies and adds each pair into the int32
// accumulators. vpmaddwd cannot overflow here — 2 * 127 * 127 is far below
// INT32_MAX, and the conv lowering's k (cin * 9 <= 144 for the paper net)
// keeps the running int32 sums orders of magnitude inside the limit.
// vpmaddubsw (the u8 x s8 variant) is deliberately NOT used: its intermediate
// int16 sums saturate (e.g. 255 * 127 + 255 * 127 = 64770 > 32767), which
// would break bit-identity with the scalar reference. Integer adds are
// associative, so this kernel is exact and byte-matches scalar_gemm_s8 for
// every shape, thread count, and accumulation order.
// ---------------------------------------------------------------------------

void avx2_gemm_s8(int m, int n, int k, const std::int8_t* a, int lda,
                  const std::int8_t* b, int ldb, std::int32_t* c, int ldc) {
  if (n < 16) {
    // Narrow outputs cannot fill one 16-column tile; the scalar reference is
    // exact and just as fast there.
    scalar_gemm_s8(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  for_each_row_panel(m, n, k, [&](int panel) {
    const int i0 = panel * kMB;
    const int i1 = std::min(m, i0 + kMB);
    const int kk = k & ~1;  // paired k extent
    for (int i = i0; i < i1; ++i) {
      const std::int8_t* arow = a + static_cast<std::ptrdiff_t>(i) * lda;
      std::int32_t* crow = c + static_cast<std::ptrdiff_t>(i) * ldc;
      int j = 0;
      for (; j + 16 <= n; j += 16) {
        __m256i acc_lo = _mm256_setzero_si256();  // cols j+0..3, j+8..11
        __m256i acc_hi = _mm256_setzero_si256();  // cols j+4..7, j+12..15
        for (int p = 0; p < kk; p += 2) {
          // Broadcast the A pair [a(i,p), a(i,p+1)] as one int16x2 lane.
          const std::uint16_t a0 =
              static_cast<std::uint16_t>(static_cast<std::int16_t>(arow[p]));
          const std::uint16_t a1 = static_cast<std::uint16_t>(
              static_cast<std::int16_t>(arow[p + 1]));
          const __m256i apair = _mm256_set1_epi32(
              static_cast<int>(a0) | (static_cast<int>(a1) << 16));
          // Sign-extend 16 columns of B rows p and p+1 to int16.
          const __m256i b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(
                  b + static_cast<std::ptrdiff_t>(p) * ldb + j)));
          const __m256i b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(
                  b + static_cast<std::ptrdiff_t>(p + 1) * ldb + j)));
          // Interleave the two rows so each 32-bit lane holds one column's
          // [b(p,j'), b(p+1,j')] pair, matching the broadcast A pair.
          const __m256i lo = _mm256_unpacklo_epi16(b0, b1);
          const __m256i hi = _mm256_unpackhi_epi16(b0, b1);
          acc_lo = _mm256_add_epi32(acc_lo, _mm256_madd_epi16(apair, lo));
          acc_hi = _mm256_add_epi32(acc_hi, _mm256_madd_epi16(apair, hi));
        }
        // Undo the unpack permutation: gather the four 4-column groups back
        // into ascending column order before storing.
        const __m256i out0 = _mm256_permute2x128_si256(acc_lo, acc_hi, 0x20);
        const __m256i out1 = _mm256_permute2x128_si256(acc_lo, acc_hi, 0x31);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + j), out0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + j + 8), out1);
        if (k & 1) {
          const std::int32_t atail = arow[k - 1];
          const std::int8_t* btail =
              b + static_cast<std::ptrdiff_t>(k - 1) * ldb;
          for (int jj = j; jj < j + 16; ++jj) {
            crow[jj] += atail * static_cast<std::int32_t>(btail[jj]);
          }
        }
      }
      // Scalar column tail (n % 16).
      for (; j < n; ++j) {
        std::int32_t acc = 0;
        for (int p = 0; p < k; ++p) {
          acc += static_cast<std::int32_t>(arow[p]) *
                 static_cast<std::int32_t>(
                     b[static_cast<std::ptrdiff_t>(p) * ldb + j]);
        }
        crow[j] = acc;
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Fused 3x3 convolution, fp32 and int8 (pad 1, stride 1 or 2)
//
// Both dtypes share one plane layout, one register tile and one driver. The
// input is staged once as padded planes of (h + 2) rows with the pad-1 halo
// built in (replicated edge values or zeros: what im2col would produce), so
// the compute loops need no bounds handling. Stride-2 rows are stored
// phase-split (even padded columns, then odd ones), so output column ow reads
// tap kj contiguously at even[ow], odd[ow] and even[ow + 1]: every tap of
// either stride is one unaligned vector load.
//
// The register tile is kCo output channels x kNv 8-column vectors of one
// output row. Each tap's kNv input vectors are loaded once and multiplied by
// kCo broadcast weights. Column tails compute a full vector over the zeroed
// slack and store only the valid lanes with a masked store.
//
// fp32: one plane per input channel. Each output element sums its 9 * cin
// taps in ascending (ch, ki, kj) order, the im2col row order, each as
// _mm256_mul_ps then _mm256_add_ps, so the result is bit-identical to
// im2col + gemm_nn.
//
// int8: the pack quantizes every input pixel exactly once, straight from the
// fp32 sample into padded int16 planes, two input channels interleaved per
// 32-bit word: word = [q(c) | q(c + 1) << 16]. One load then holds eight
// output columns' (c, c + 1) tap pairs in the vpmaddwd layout, and the
// matching weight pair is one broadcast word, so each vpmaddwd retires two
// taps of eight outputs into int32 accumulators. An odd last channel pairs
// with a zero plane and zero weights, which adds exact zeros. The halo is
// built from quantized values: q(0) = 0 for zero padding (the caller
// guarantees a finite 1 / scale), and a replicated edge holds q(edge), the
// same int8 value im2col of the quantized sample produces at every tap.
// Integer accumulation is exact in any order, so the accumulators are
// byte-identical to quantize + im2col + gemm_s8 for every shape.
// ---------------------------------------------------------------------------

/// Zeroed elements past the last padded column (stride 1) or past each phase
/// (stride 2). conv_row gives every tile ceil(valid / 8) vectors, so the last
/// lane any tile loads lies at most 8 elements past the row's last padded
/// input: every tail load stays inside the row.
/// The transposed conv's 8-column tiles start below the input width, so
/// their shifted load ends at most 7 elements past the right halo.
constexpr int kSlack = 8;

/// fp32 taps: acc + w * x, the scalar gemm's multiply and add roundings.
struct F32Ops {
  using T = float;
  using Vec = __m256;
  static Vec zero() { return _mm256_setzero_ps(); }
  static Vec load(const float* p) { return _mm256_loadu_ps(p); }
  static Vec broadcast(float w) { return _mm256_set1_ps(w); }
  static Vec tap(Vec acc, Vec x, Vec w) {
    return _mm256_add_ps(acc, _mm256_mul_ps(w, x));
  }
  static void store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, __m256i mask, Vec v) {
    _mm256_maskstore_ps(p, mask, v);
  }
};

/// int8 taps: vpmaddwd sums a channel pair's two int16 products in int32.
struct S8Ops {
  using T = std::int32_t;
  using Vec = __m256i;
  static Vec zero() { return _mm256_setzero_si256(); }
  static Vec load(const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static Vec broadcast(std::int32_t w) { return _mm256_set1_epi32(w); }
  static Vec tap(Vec acc, Vec x, Vec w) {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(x, w));
  }
  static void store(std::int32_t* p, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static void store(std::int32_t* p, __m256i mask, Vec v) {
    _mm256_maskstore_epi32(p, mask, v);
  }
};

/// One fused conv call: packed planes, weights as [co][plane][tap] with one
/// element per plane and tap, and the output as [co][ho][wo].
template <typename T>
struct FusedConv {
  const T* planes = nullptr;
  const T* weights = nullptr;
  T* dst = nullptr;
  std::ptrdiff_t plane_stride = 0;  ///< elements per padded plane
  int count = 0;                    ///< planes: channels, or int8 pairs
  int wp = 0;                       ///< elements per padded row
  int half = 0;                     ///< stride 2: offset of the odd columns
  int stride = 1;
  int ho = 0;
  int wo = 0;
  int cout = 0;
};

template <typename T, typename Args>
FusedConv<T> conv_layout(const Args& args, int count) {
  FusedConv<T> fc;
  fc.count = count;
  fc.stride = args.stride;
  fc.ho = args.ho;
  fc.wo = args.wo;
  fc.cout = args.cout;
  if (args.stride == 1) {
    fc.wp = args.w + 2 + kSlack;
  } else {
    fc.half = args.wo + kSlack;
    fc.wp = 2 * fc.half;
  }
  fc.plane_stride = static_cast<std::ptrdiff_t>(args.h + 2) * fc.wp;
  return fc;
}

/// Per-thread buffers of one dtype's fused conv: packed planes, int8 weight
/// pairs, and one stride-2 row before its phase split.
template <typename T>
struct ConvScratch {
  std::vector<T> planes, weights, row;
};

template <typename T>
ConvScratch<T>& conv_scratch() {
  thread_local ConvScratch<T> buffers;
  return buffers;
}

/// Stage fc.count padded planes into `pad`, which fc.planes then points at.
/// padded_row(plane, r, out) writes input row r of a plane as w + 2 elements,
/// halo included; the rows above and below copy the edge rows (replicate) or
/// are zero.
template <typename T, typename RowFn>
void pack_planes(FusedConv<T>& fc, int h, int w, bool replicate,
                 std::vector<T>& pad, const RowFn& padded_row) {
  pad.resize(static_cast<std::size_t>(fc.count * fc.plane_stride));
  std::vector<T>& tmp = conv_scratch<T>().row;
  tmp.resize(static_cast<std::size_t>(w) + 2);
  for (int p = 0; p < fc.count; ++p) {
    T* plane = pad.data() + p * fc.plane_stride;
    for (int r = 0; r < h; ++r) {
      T* out = plane + static_cast<std::ptrdiff_t>(r + 1) * fc.wp;
      if (fc.stride == 1) {
        padded_row(p, r, out);
        std::fill(out + w + 2, out + fc.wp, T{0});
      } else {
        padded_row(p, r, tmp.data());
        const int even = (w + 3) / 2, odd = (w + 2) / 2;
        T* odd_out = out + fc.half;
        for (int i = 0; i < even; ++i) out[i] = tmp[2 * i];
        for (int i = 0; i < odd; ++i) odd_out[i] = tmp[2 * i + 1];
        std::fill(out + even, odd_out, T{0});
        std::fill(odd_out + odd, out + fc.wp, T{0});
      }
    }
    T* top = plane;
    T* bottom = plane + static_cast<std::ptrdiff_t>(h + 1) * fc.wp;
    if (replicate) {
      std::copy(top + fc.wp, top + 2 * fc.wp, top);
      std::copy(bottom - fc.wp, bottom, bottom);
    } else {
      std::fill(top, top + fc.wp, T{0});
      std::fill(bottom, bottom + fc.wp, T{0});
    }
  }
  fc.planes = pad.data();
  obs::counter_add(obs::Counter::kKernelPackedBytes,
                   static_cast<std::int64_t>(pad.size() * sizeof(T)));
}

inline __m256i lane_index() {
  return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
}

/// Lane i is all ones when i < n: none for n <= 0, all for n >= 8.
inline __m256i lanes_below(int n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lane_index());
}

/// Store lanes [0, lanes) of v at out: a full store, or a masked one for a
/// column tail (nothing when lanes <= 0).
template <typename Ops>
void store_lanes(typename Ops::T* out, typename Ops::Vec v, int lanes) {
  if (lanes >= 8) {
    Ops::store(out, v);
  } else if (lanes > 0) {
    Ops::store(out, lanes_below(lanes), v);
  }
}

/// kCo output channels x kNv 8-column vectors of one output row, starting at
/// (co0, oh, ow); `valid` of the 8 * kNv columns exist in the output.
template <typename Ops, int kStride, int kCo, int kNv>
void conv_tile(const FusedConv<typename Ops::T>& fc, int co0, int oh, int ow,
               int valid) {
  using T = typename Ops::T;
  using Vec = typename Ops::Vec;
  Vec acc[kCo][kNv];
  for (int c = 0; c < kCo; ++c) {
    for (int v = 0; v < kNv; ++v) acc[c][v] = Ops::zero();
  }
  const std::ptrdiff_t wco = static_cast<std::ptrdiff_t>(fc.count) * 9;
  for (int p = 0; p < fc.count; ++p) {
    const T* plane = fc.planes + p * fc.plane_stride;
    const T* wt = fc.weights + co0 * wco + p * 9;
    for (int ki = 0; ki < 3; ++ki) {
      const T* row =
          plane + static_cast<std::ptrdiff_t>(oh * kStride + ki) * fc.wp;
      for (int kj = 0; kj < 3; ++kj) {
        const int off = kStride == 1 ? ow + kj
                        : kj == 1    ? fc.half + ow
                                     : ow + kj / 2;
        Vec x[kNv];
        for (int v = 0; v < kNv; ++v) x[v] = Ops::load(row + off + 8 * v);
        for (int c = 0; c < kCo; ++c) {
          const Vec wv = Ops::broadcast(wt[c * wco + ki * 3 + kj]);
          for (int v = 0; v < kNv; ++v) {
            acc[c][v] = Ops::tap(acc[c][v], x[v], wv);
          }
        }
      }
    }
  }
  const std::ptrdiff_t plane_out = static_cast<std::ptrdiff_t>(fc.ho) * fc.wo;
  for (int c = 0; c < kCo; ++c) {
    T* out = fc.dst + (co0 + c) * plane_out +
             static_cast<std::ptrdiff_t>(oh) * fc.wo + ow;
    for (int v = 0; v < kNv; ++v) {
      store_lanes<Ops>(out + 8 * v, acc[c][v], valid - 8 * v);
    }
  }
}

/// One output row for output channels [co0, co0 + kCo): 16-column tiles,
/// then one 8-column tile for what is left. A lone channel (the cout = 1
/// output layers, or a remainder past the 4-channel blocks) takes tiles of up
/// to 32 columns instead, so a 20- to 32-column row keeps 3 or 4 independent
/// accumulator chains rather than 2.
template <typename Ops, int kStride, int kCo>
void conv_row(const FusedConv<typename Ops::T>& fc, int co0, int oh) {
  int ow = 0;
  if constexpr (kCo == 1) {
    for (; ow < fc.wo; ow += 32) {
      const int valid = std::min(32, fc.wo - ow);
      if (valid > 24) {
        conv_tile<Ops, kStride, 1, 4>(fc, co0, oh, ow, valid);
      } else if (valid > 16) {
        conv_tile<Ops, kStride, 1, 3>(fc, co0, oh, ow, valid);
      } else if (valid > 8) {
        conv_tile<Ops, kStride, 1, 2>(fc, co0, oh, ow, valid);
      } else {
        conv_tile<Ops, kStride, 1, 1>(fc, co0, oh, ow, valid);
      }
    }
    return;
  }
  for (; ow + 8 < fc.wo; ow += 16) {
    conv_tile<Ops, kStride, kCo, 2>(fc, co0, oh, ow,
                                    std::min(16, fc.wo - ow));
  }
  if (ow < fc.wo) {
    conv_tile<Ops, kStride, kCo, 1>(fc, co0, oh, ow, fc.wo - ow);
  }
}

template <typename Ops, int kStride>
void conv_rows(const FusedConv<typename Ops::T>& fc) {
  for (int oh = 0; oh < fc.ho; ++oh) {
    int co = 0;
    for (; co + 4 <= fc.cout; co += 4) conv_row<Ops, kStride, 4>(fc, co, oh);
    for (; co < fc.cout; ++co) conv_row<Ops, kStride, 1>(fc, co, oh);
  }
}

template <typename Ops>
void run_conv(const FusedConv<typename Ops::T>& fc) {
  if (fc.stride == 1) {
    conv_rows<Ops, 1>(fc);
  } else {
    conv_rows<Ops, 2>(fc);
  }
}

void avx2_conv3x3(const Conv3x3Args& args) {
  obs::counter_add(obs::Counter::kConvFusedCalls, 1);
  FusedConv<float> fc = conv_layout<float>(args, args.cin);
  const std::ptrdiff_t hw = static_cast<std::ptrdiff_t>(args.h) * args.w;
  pack_planes(fc, args.h, args.w, args.replicate, conv_scratch<float>().planes,
              [&](int ch, int r, float* out) {
                const float* in = args.src + ch * hw +
                                  static_cast<std::ptrdiff_t>(r) * args.w;
                out[0] = args.replicate ? in[0] : 0.0f;
                std::copy(in, in + args.w, out + 1);
                out[args.w + 1] = args.replicate ? in[args.w - 1] : 0.0f;
              });
  fc.weights = args.weights;
  fc.dst = args.dst;
  run_conv<F32Ops>(fc);
}

// ---------------------------------------------------------------------------
// Fused stride-2 transposed 3x3 convolution (pad 1, output_padding 1)
//
// Gather form: instead of scattering W^T * x into the output (gemm_tn, then
// col2im_acc), each output pixel reads its own taps. Output row 2a takes
// ki = 1 at input row a; row 2a + 1 takes ki = 0 at row a + 1, then ki = 2 at
// row a. Columns follow the same rule with kj: even column 2b takes kj = 1 at
// input column b, odd column 2b + 1 takes kj = 0 at b + 1, then kj = 2 at b.
// A tile vectorizes over 8 input columns, so one kernel row ki yields three
// tap vectors per output channel, and the even and odd output columns are
// interleaved (unpack, then a 128-bit permute) into 16 output columns.
//
// Bit-identity with the lowering: each tap is its own sum over ci, ascending
// from 0, as a multiply then an add (gemm_tn's sequence), and an output adds
// its valid taps in ascending (ki, kj) order, the order col2im_acc visits
// them. Taps past the last input row are skipped by a row branch, and past
// the last input column by a lane blend: the zero padding those lanes read
// is never added, so an inf weight cannot turn it into NaN where the lowering
// adds nothing. Lanes past the last column are computed but not stored.
// ---------------------------------------------------------------------------

/// Kernel row ki's three taps at one input row for kCo output channels and 8
/// input columns b..b + 7: taps[c][kj] sums w[ci][co0 + c][ki][kj] times the
/// input at column b + 1 (kj = 0) or b (kj = 1, 2) over ci. x points at input
/// column b of the row in plane 0, and wk at w[0][co0][ki][0].
template <int kCo>
inline void deconv_taps(const FusedConv<float>& fc, const float* wk,
                        const float* x, __m256 (&taps)[kCo][3]) {
  for (int c = 0; c < kCo; ++c) {
    for (int kj = 0; kj < 3; ++kj) taps[c][kj] = F32Ops::zero();
  }
  const std::ptrdiff_t wci = static_cast<std::ptrdiff_t>(fc.cout) * 9;
  for (int ci = 0; ci < fc.count; ++ci) {
    const float* xc = x + ci * fc.plane_stride;
    const __m256 at_b = F32Ops::load(xc);
    const __m256 at_b1 = F32Ops::load(xc + 1);
    const float* wt = wk + ci * wci;
    for (int c = 0; c < kCo; ++c) {
      taps[c][0] =
          F32Ops::tap(taps[c][0], at_b1, F32Ops::broadcast(wt[c * 9]));
      taps[c][1] =
          F32Ops::tap(taps[c][1], at_b, F32Ops::broadcast(wt[c * 9 + 1]));
      taps[c][2] =
          F32Ops::tap(taps[c][2], at_b, F32Ops::broadcast(wt[c * 9 + 2]));
    }
  }
}

/// Write the even-column outputs `even` and odd-column outputs `odd` of 8
/// input columns as 16 consecutive output columns, `valid` of which exist.
inline void store_interleaved(float* out, __m256 even, __m256 odd,
                              int valid) {
  const __m256 lo = _mm256_unpacklo_ps(even, odd);  // e0 o0 e1 o1 | e4 o4 ..
  const __m256 hi = _mm256_unpackhi_ps(even, odd);  // e2 o2 e3 o3 | e6 o6 ..
  store_lanes<F32Ops>(out, _mm256_permute2f128_ps(lo, hi, 0x20), valid);
  store_lanes<F32Ops>(out + 8, _mm256_permute2f128_ps(lo, hi, 0x31),
                      valid - 8);
}

/// Output rows 2a and 2a + 1, columns 2b..2b + 15, of channels
/// [co0, co0 + kCo). fc.planes hold the input with a 1-pixel zero halo, h and
/// w are the input's size.
template <int kCo>
void deconv_tile(const FusedConv<float>& fc, int h, int w, int co0, int a,
                 int b) {
  const float* row_a =
      fc.planes + static_cast<std::ptrdiff_t>(a + 1) * fc.wp + 1 + b;
  const float* wk = fc.weights + co0 * 9;
  // The lane holding the last input column has no kj = 0 tap.
  const __m256 last = _mm256_castsi256_ps(
      _mm256_cmpeq_epi32(_mm256_set1_epi32(w - 1 - b), lane_index()));
  const int valid = 2 * std::min(8, w - b);
  const std::ptrdiff_t plane_out = static_cast<std::ptrdiff_t>(fc.ho) * fc.wo;
  float* out = fc.dst + co0 * plane_out +
               static_cast<std::ptrdiff_t>(2 * a) * fc.wo + 2 * b;

  __m256 t1[kCo][3];
  deconv_taps<kCo>(fc, wk + 3, row_a, t1);
  for (int c = 0; c < kCo; ++c) {
    const __m256 odd = _mm256_add_ps(t1[c][0], t1[c][2]);
    store_interleaved(out + c * plane_out, t1[c][1],
                      _mm256_blendv_ps(odd, t1[c][2], last), valid);
  }

  out += fc.wo;
  __m256 t2[kCo][3];
  deconv_taps<kCo>(fc, wk + 6, row_a, t2);
  if (a + 1 == h) {  // no ki = 0 taps below the last input row
    for (int c = 0; c < kCo; ++c) {
      const __m256 odd = _mm256_add_ps(t2[c][0], t2[c][2]);
      store_interleaved(out + c * plane_out, t2[c][1],
                        _mm256_blendv_ps(odd, t2[c][2], last), valid);
    }
    return;
  }
  __m256 t0[kCo][3];
  deconv_taps<kCo>(fc, wk, row_a + fc.wp, t0);
  for (int c = 0; c < kCo; ++c) {
    const __m256 even = _mm256_add_ps(t0[c][1], t2[c][1]);
    const __m256 odd = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(t0[c][0], t0[c][2]), t2[c][0]), t2[c][2]);
    const __m256 edge = _mm256_add_ps(t0[c][2], t2[c][2]);
    store_interleaved(out + c * plane_out, even,
                      _mm256_blendv_ps(odd, edge, last), valid);
  }
}

void avx2_deconv3x3_s2(const Deconv3x3Args& args) {
  obs::counter_add(obs::Counter::kConvFusedDeconvCalls, 1);
  FusedConv<float> fc;
  fc.count = args.cin;
  fc.wp = args.w + 2 + kSlack;
  fc.plane_stride = static_cast<std::ptrdiff_t>(args.h + 2) * fc.wp;
  fc.ho = 2 * args.h;
  fc.wo = 2 * args.w;
  fc.cout = args.cout;
  const std::ptrdiff_t hw = static_cast<std::ptrdiff_t>(args.h) * args.w;
  pack_planes(fc, args.h, args.w, /*replicate=*/false,
              conv_scratch<float>().planes, [&](int ch, int r, float* out) {
                const float* in = args.src + ch * hw +
                                  static_cast<std::ptrdiff_t>(r) * args.w;
                out[0] = 0.0f;
                std::copy(in, in + args.w, out + 1);
                out[args.w + 1] = 0.0f;
              });
  fc.weights = args.weights;
  fc.dst = args.dst;
  const int blocked = args.cout / 4 * 4;
  for (int a = 0; a < args.h; ++a) {
    for (int b = 0; b < args.w; b += 8) {
      for (int co = 0; co < blocked; co += 4) {
        deconv_tile<4>(fc, args.h, args.w, co, a, b);
      }
      for (int co = blocked; co < args.cout; ++co) {
        deconv_tile<1>(fc, args.h, args.w, co, a, b);
      }
    }
  }
}

/// Two int8 values as one int16-pair word: lo in bits 0-15, hi in 16-31.
inline std::int32_t pair_word(int lo, int hi) {
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(static_cast<std::uint16_t>(lo)) |
      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(hi)) << 16));
}

/// Eight lanes of quantize_s8(x * inv): multiply, clamp in float, then
/// vcvtps2dq rounds half to even (the MXCSR default, as std::rint). maxps
/// returns its second operand when the first is NaN, so NaN lands on -127.
inline __m256i quantize8(const float* x, __m256 inv) {
  const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x), inv);
  const __m256 c = _mm256_min_ps(_mm256_max_ps(v, _mm256_set1_ps(-127.0f)),
                                 _mm256_set1_ps(127.0f));
  return _mm256_cvtps_epi32(c);
}

/// One padded row of a channel pair as pair words: out[0] is the left halo,
/// out[1..w] the quantized pixels, out[w + 1] the right halo. r1 is null for
/// the zero partner of an odd last channel.
void quantize_pair_row(const float* r0, const float* r1, int w, float inv,
                       bool replicate, std::int32_t* out) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo16 = _mm256_set1_epi32(0xffff);
  int j = 0;
  for (; j + 8 <= w; j += 8) {
    const __m256i q0 = _mm256_and_si256(quantize8(r0 + j, vinv), lo16);
    const __m256i q1 = r1 != nullptr
                           ? _mm256_slli_epi32(quantize8(r1 + j, vinv), 16)
                           : _mm256_setzero_si256();
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 1 + j),
                        _mm256_or_si256(q0, q1));
  }
  for (; j < w; ++j) {
    out[1 + j] = pair_word(quantize_s8(r0[j] * inv),
                           r1 != nullptr ? quantize_s8(r1[j] * inv) : 0);
  }
  out[0] = replicate ? out[1] : 0;
  out[w + 1] = replicate ? out[w] : 0;
}

void avx2_conv3x3_s8(const Conv3x3S8Args& args) {
  obs::counter_add(obs::Counter::kConvFusedS8Calls, 1);
  const int cpairs = (args.cin + 1) / 2;
  FusedConv<std::int32_t> fc = conv_layout<std::int32_t>(args, cpairs);
  ConvScratch<std::int32_t>& scratch = conv_scratch<std::int32_t>();
  const std::ptrdiff_t hw = static_cast<std::ptrdiff_t>(args.h) * args.w;
  pack_planes(fc, args.h, args.w, args.replicate, scratch.planes,
              [&](int cp, int r, std::int32_t* out) {
                const float* r0 = args.src + 2 * cp * hw +
                                  static_cast<std::ptrdiff_t>(r) * args.w;
                const float* r1 = 2 * cp + 1 < args.cin ? r0 + hw : nullptr;
                quantize_pair_row(r0, r1, args.w, args.inv_scale,
                                  args.replicate, out);
              });

  // Weight pairs, [co][cpair][tap], matching the plane interleave.
  std::vector<std::int32_t>& wpairs = scratch.weights;
  wpairs.resize(static_cast<std::size_t>(args.cout) * cpairs * 9);
  for (int co = 0; co < args.cout; ++co) {
    const std::int8_t* wco =
        args.weights + static_cast<std::ptrdiff_t>(co) * args.cin * 9;
    for (int cp = 0; cp < cpairs; ++cp) {
      const std::int8_t* w0 = wco + 2 * cp * 9;
      const bool has_hi = 2 * cp + 1 < args.cin;
      for (int t = 0; t < 9; ++t) {
        wpairs[(static_cast<std::size_t>(co) * cpairs + cp) * 9 + t] =
            pair_word(w0[t], has_hi ? w0[9 + t] : 0);
      }
    }
  }
  fc.weights = wpairs.data();
  fc.dst = args.dst;
  run_conv<S8Ops>(fc);
}

const KernelTable kAvx2Table = {
    KernelBackend::kAvx2,
    avx2_gemm_nn,
    avx2_gemm_tn,
    scalar_gemm_nt,  // dot-product shape: no contract-preserving vector win
    avx2_conv3x3,
    avx2_gemm_s8,
    avx2_conv3x3_s8,
    avx2_deconv3x3_s2,
};

}  // namespace

const KernelTable* avx2_table() { return &kAvx2Table; }

}  // namespace pdnn::linalg::detail

#else  // !defined(__AVX2__)

namespace pdnn::linalg::detail {

const KernelTable* avx2_table() { return nullptr; }

}  // namespace pdnn::linalg::detail

#endif
