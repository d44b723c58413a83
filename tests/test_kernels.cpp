// Kernel-registry tests: backend selection/forcing semantics, and the
// determinism contract — the scalar and AVX2 backends must produce
// bit-identical results for every dispatched kernel, at any thread count,
// through any call path (raw gemm, conv lowering, and end-to-end training).
// The suite name is "Kernels" so the TSan CI leg's regex picks it up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "linalg/gemm.hpp"
#include "linalg/kernels/registry.hpp"
#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "nn/quant_state.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pdnn;
using linalg::KernelBackend;
using nn::Tensor;
using nn::Var;

/// Force a backend for one scope; always restores the prior selection state.
class ForcedBackend {
 public:
  explicit ForcedBackend(KernelBackend backend) {
    linalg::force_backend(backend);
  }
  ~ForcedBackend() { linalg::clear_forced_backend(); }
  ForcedBackend(const ForcedBackend&) = delete;
  ForcedBackend& operator=(const ForcedBackend&) = delete;
};

bool avx2_available() {
  return linalg::backend_supported(KernelBackend::kAvx2);
}

#define SKIP_WITHOUT_AVX2()                                              \
  do {                                                                   \
    if (!avx2_available()) {                                             \
      GTEST_SKIP() << "AVX2 backend not supported on this machine";      \
    }                                                                    \
  } while (0)

std::vector<float> random_vec(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(size);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Selection semantics
// ---------------------------------------------------------------------------

TEST(Kernels, BackendNameParseRoundtrip) {
  EXPECT_STREQ("scalar", linalg::backend_name(KernelBackend::kScalar));
  EXPECT_STREQ("avx2", linalg::backend_name(KernelBackend::kAvx2));
  EXPECT_EQ(KernelBackend::kScalar, linalg::parse_backend("scalar"));
  EXPECT_EQ(KernelBackend::kAvx2, linalg::parse_backend("avx2"));
}

TEST(Kernels, ParseRejectsUnknownBackend) {
  EXPECT_THROW(linalg::parse_backend("sse2"), util::CheckError);
  EXPECT_THROW(linalg::parse_backend(""), util::CheckError);
  EXPECT_THROW(linalg::parse_backend("AVX2"), util::CheckError);
}

TEST(Kernels, SupportedBackendNamesListsEveryUsableBackend) {
  const std::string names = linalg::supported_backend_names();
  EXPECT_NE(names.find("scalar"), std::string::npos);
  if (avx2_available()) {
    EXPECT_NE(names.find("avx2"), std::string::npos);
  } else {
    EXPECT_EQ(names.find("avx2"), std::string::npos);
  }
}

TEST(Kernels, ParseErrorEnumeratesValidBackendNames) {
  // An operator typing a bad --kernel/PDNN_KERNEL value gets the valid set
  // in the error, not just a rejection.
  try {
    linalg::parse_backend("sse2");
    FAIL() << "parse_backend accepted 'sse2'";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scalar"), std::string::npos) << what;
    EXPECT_NE(what.find("avx2"), std::string::npos) << what;
    EXPECT_NE(what.find(linalg::supported_backend_names()), std::string::npos)
        << what;
  }
}

TEST(Kernels, ScalarBackendIsAlwaysSupported) {
  EXPECT_TRUE(linalg::backend_compiled(KernelBackend::kScalar));
  EXPECT_TRUE(linalg::backend_supported(KernelBackend::kScalar));
}

TEST(Kernels, ForcedBackendWinsAndClears) {
  {
    ForcedBackend forced(KernelBackend::kScalar);
    EXPECT_EQ(KernelBackend::kScalar, linalg::active_backend());
    EXPECT_EQ(KernelBackend::kScalar, linalg::kernels().backend);
  }
  if (avx2_available()) {
    ForcedBackend forced(KernelBackend::kAvx2);
    EXPECT_EQ(KernelBackend::kAvx2, linalg::active_backend());
    EXPECT_EQ(KernelBackend::kAvx2, linalg::kernels().backend);
  }
}

TEST(Kernels, ForcingUnsupportedBackendThrows) {
  // Only exercisable where the probe says no — there is no way to make a
  // supported backend unsupported from a test.
  if (avx2_available()) {
    GTEST_SKIP() << "AVX2 is supported here; the error path needs hardware "
                    "without it";
  }
  EXPECT_THROW(linalg::force_backend(KernelBackend::kAvx2), util::CheckError);
}

TEST(Kernels, ScalarTableHasNoFusedConvPath) {
  ForcedBackend forced(KernelBackend::kScalar);
  linalg::Conv3x3Args args;  // null pointers: must not be touched
  args.cin = 1;
  args.h = args.w = args.ho = args.wo = 4;
  args.cout = 1;
  args.stride = 1;
  EXPECT_FALSE(linalg::conv3x3_fused(args));
}

TEST(Kernels, ScalarTableHasNoFusedDeconv) {
  ForcedBackend forced(KernelBackend::kScalar);
  linalg::Deconv3x3Args args;  // null pointers: must not be touched
  args.cin = args.cout = 1;
  args.h = args.w = 4;
  EXPECT_FALSE(linalg::deconv3x3_fused(args));
}

TEST(Kernels, ScalarTableHasNoFusedS8ConvPath) {
  ForcedBackend forced(KernelBackend::kScalar);
  linalg::Conv3x3S8Args args;  // null pointers: must not be touched
  args.cin = 1;
  args.h = args.w = args.ho = args.wo = 4;
  args.cout = 1;
  args.stride = 1;
  EXPECT_FALSE(linalg::conv3x3_s8_fused(args));
}

// ---------------------------------------------------------------------------
// GEMM bit-identity across backends
// ---------------------------------------------------------------------------

using GemmEntry = void (*)(int, int, int, float, const float*, int,
                           const float*, int, float, float*, int);

/// Run one gemm under a forced backend, returning the C matrix.
std::vector<float> run_gemm(GemmEntry fn, KernelBackend backend, int m, int n,
                            int k, float alpha, float beta, bool transposed_a) {
  ForcedBackend forced(backend);
  const std::size_t a_size =
      static_cast<std::size_t>(transposed_a ? k : m) * (transposed_a ? m : k);
  const std::vector<float> a = random_vec(a_size, 101);
  const std::vector<float> b =
      random_vec(static_cast<std::size_t>(k) * n, 202);
  std::vector<float> c = random_vec(static_cast<std::size_t>(m) * n, 303);
  const int lda = transposed_a ? m : k;
  fn(m, n, k, alpha, a.data(), lda, b.data(), n, beta, c.data(), n);
  return c;
}

struct GemmShape {
  int m, n, k;
};

// Shapes chosen to cover: the paper net's conv-as-gemm geometry (8 x owo x
// 72), full 4-tile groups, lone tiles, scalar tail columns (n % 8 != 0), odd
// row remainders, multi-panel m (> 64), and degenerate edges.
const GemmShape kShapes[] = {
    {1, 1, 1},   {1, 8, 3},    {2, 32, 5},   {3, 9, 7},    {8, 64, 72},
    {8, 100, 72}, {16, 33, 72}, {5, 40, 11},  {65, 48, 20}, {70, 70, 70},
    {64, 7, 9},  {13, 128, 1},
};

TEST(Kernels, GemmNnBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  for (const GemmShape& s : kShapes) {
    for (const float alpha : {1.0f, 0.5f, -2.0f}) {
      for (const float beta : {0.0f, 1.0f, 0.25f}) {
        const auto scalar = run_gemm(linalg::gemm_nn, KernelBackend::kScalar,
                                     s.m, s.n, s.k, alpha, beta, false);
        const auto avx2 = run_gemm(linalg::gemm_nn, KernelBackend::kAvx2, s.m,
                                   s.n, s.k, alpha, beta, false);
        EXPECT_TRUE(bitwise_equal(scalar, avx2))
            << "gemm_nn " << s.m << "x" << s.n << "x" << s.k << " alpha "
            << alpha << " beta " << beta;
      }
    }
  }
}

TEST(Kernels, GemmTnBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  for (const GemmShape& s : kShapes) {
    for (const float alpha : {1.0f, -0.75f}) {
      for (const float beta : {0.0f, 1.0f}) {
        const auto scalar = run_gemm(linalg::gemm_tn, KernelBackend::kScalar,
                                     s.m, s.n, s.k, alpha, beta, true);
        const auto avx2 = run_gemm(linalg::gemm_tn, KernelBackend::kAvx2, s.m,
                                   s.n, s.k, alpha, beta, true);
        EXPECT_TRUE(bitwise_equal(scalar, avx2))
            << "gemm_tn " << s.m << "x" << s.n << "x" << s.k << " alpha "
            << alpha << " beta " << beta;
      }
    }
  }
}

TEST(Kernels, GemmNtBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  // Both tables share the scalar nt kernel; this locks the sharing in.
  const auto scalar = run_gemm(linalg::gemm_nt, KernelBackend::kScalar, 17,
                               23, 31, 1.0f, 0.5f, false);
  const auto avx2 = run_gemm(linalg::gemm_nt, KernelBackend::kAvx2, 17, 23,
                             31, 1.0f, 0.5f, false);
  EXPECT_TRUE(bitwise_equal(scalar, avx2));
}

TEST(Kernels, GemmPropagatesNanThroughZeroTerms) {
  // 0 * NaN must contribute NaN in both backends (the BLAS semantics the
  // scalar kernels deliberately preserve by never zero-skipping).
  SKIP_WITHOUT_AVX2();
  const int m = 4, n = 40, k = 8;
  std::vector<float> a(static_cast<std::size_t>(m) * k, 0.0f);
  std::vector<float> b = random_vec(static_cast<std::size_t>(k) * n, 7);
  b[3] = std::nanf("");
  std::vector<float> scalar_c(static_cast<std::size_t>(m) * n, 1.0f);
  std::vector<float> avx2_c = scalar_c;
  {
    ForcedBackend forced(KernelBackend::kScalar);
    linalg::gemm_nn(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                    scalar_c.data(), n);
  }
  {
    ForcedBackend forced(KernelBackend::kAvx2);
    linalg::gemm_nn(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                    avx2_c.data(), n);
  }
  EXPECT_TRUE(std::isnan(scalar_c[3]));
  EXPECT_TRUE(bitwise_equal(scalar_c, avx2_c));
}

// ---------------------------------------------------------------------------
// Per-backend thread-count bit-stability
// ---------------------------------------------------------------------------

std::vector<float> run_gemm_with_threads(KernelBackend backend, int threads) {
  util::ThreadPool::set_global_threads(threads);
  // 128^3 = 2M madds: above the parallel threshold, two row panels.
  const auto c = run_gemm(linalg::gemm_nn, backend, 128, 128, 128, 1.0f,
                          0.5f, false);
  util::ThreadPool::set_global_threads(0);
  return c;
}

TEST(Kernels, ScalarGemmBitStableAcrossThreadCounts) {
  const auto one = run_gemm_with_threads(KernelBackend::kScalar, 1);
  const auto four = run_gemm_with_threads(KernelBackend::kScalar, 4);
  EXPECT_TRUE(bitwise_equal(one, four));
}

TEST(Kernels, Avx2GemmBitStableAcrossThreadCounts) {
  SKIP_WITHOUT_AVX2();
  const auto one = run_gemm_with_threads(KernelBackend::kAvx2, 1);
  const auto four = run_gemm_with_threads(KernelBackend::kAvx2, 4);
  EXPECT_TRUE(bitwise_equal(one, four));
}

// ---------------------------------------------------------------------------
// Int8 GEMM (quantized conv lowering): exact integer results, so the scalar
// reference, the AVX2 microkernel, and every thread partition must agree to
// the byte.
// ---------------------------------------------------------------------------

std::vector<std::int8_t> random_s8(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::int8_t> v(size);
  for (std::int8_t& x : v) {
    const int r = static_cast<int>(rng.uniform() * 255.0) - 127;
    x = static_cast<std::int8_t>(std::min(r, 127));
  }
  return v;
}

/// Plain nested-loop int32 reference, independent of the kernel layer.
std::vector<std::int32_t> naive_gemm_s8(int m, int n, int k,
                                        const std::vector<std::int8_t>& a,
                                        const std::vector<std::int8_t>& b) {
  std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n, 0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(a[static_cast<std::size_t>(i) * k +
                                           p]) *
               static_cast<std::int32_t>(b[static_cast<std::size_t>(p) * n +
                                           j]);
      }
      c[static_cast<std::size_t>(i) * n + j] = acc;
    }
  }
  return c;
}

std::vector<std::int32_t> run_gemm_s8(KernelBackend backend, int m, int n,
                                      int k,
                                      const std::vector<std::int8_t>& a,
                                      const std::vector<std::int8_t>& b) {
  ForcedBackend forced(backend);
  // Poison C: gemm_s8 overwrites (beta = 0 semantics), never accumulates.
  std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n, -559038737);
  linalg::gemm_s8(m, n, k, a.data(), k, b.data(), n, c.data(), n);
  return c;
}

TEST(Kernels, GemmS8MatchesNaiveReference) {
  for (const GemmShape& s : kShapes) {
    const auto a = random_s8(static_cast<std::size_t>(s.m) * s.k, 401);
    const auto b = random_s8(static_cast<std::size_t>(s.k) * s.n, 402);
    const auto want = naive_gemm_s8(s.m, s.n, s.k, a, b);
    const auto got = run_gemm_s8(KernelBackend::kScalar, s.m, s.n, s.k, a, b);
    EXPECT_EQ(want, got) << "gemm_s8 " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(Kernels, GemmS8BitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  for (const GemmShape& s : kShapes) {
    const auto a = random_s8(static_cast<std::size_t>(s.m) * s.k, 403);
    const auto b = random_s8(static_cast<std::size_t>(s.k) * s.n, 404);
    const auto scalar =
        run_gemm_s8(KernelBackend::kScalar, s.m, s.n, s.k, a, b);
    const auto avx2 = run_gemm_s8(KernelBackend::kAvx2, s.m, s.n, s.k, a, b);
    EXPECT_EQ(scalar, avx2) << "gemm_s8 " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(Kernels, GemmS8ExtremesNoIntermediateOverflow) {
  // All-(-127/127) operands at odd k: every vpmaddwd pair sums two maximal
  // products (the case that rules out a saturating vpmaddubsw formulation),
  // plus the odd-k scalar tail.
  const int m = 5, n = 37, k = 301;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m) * k, 127);
  std::vector<std::int8_t> b(static_cast<std::size_t>(k) * n, -127);
  const auto want = naive_gemm_s8(m, n, k, a, b);
  EXPECT_EQ(want.front(), -127 * 127 * k);
  const auto scalar = run_gemm_s8(KernelBackend::kScalar, m, n, k, a, b);
  EXPECT_EQ(want, scalar);
  if (avx2_available()) {
    const auto avx2 = run_gemm_s8(KernelBackend::kAvx2, m, n, k, a, b);
    EXPECT_EQ(want, avx2);
  }
}

TEST(Kernels, GemmS8BitStableAcrossThreadCounts) {
  // 160 rows split into three panels once pooled; integer accumulation makes
  // any partition exact, this locks the row-panel bookkeeping in.
  const int m = 160, n = 96, k = 80;
  const auto a = random_s8(static_cast<std::size_t>(m) * k, 405);
  const auto b = random_s8(static_cast<std::size_t>(k) * n, 406);
  const auto want = naive_gemm_s8(m, n, k, a, b);
  for (const KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (!linalg::backend_supported(backend)) continue;
    util::ThreadPool::set_global_threads(1);
    const auto one = run_gemm_s8(backend, m, n, k, a, b);
    util::ThreadPool::set_global_threads(4);
    const auto four = run_gemm_s8(backend, m, n, k, a, b);
    util::ThreadPool::set_global_threads(0);
    EXPECT_EQ(want, one) << linalg::backend_name(backend);
    EXPECT_EQ(one, four) << linalg::backend_name(backend);
  }
}

// ---------------------------------------------------------------------------
// Fused conv vs im2col lowering, through the public conv2d
// ---------------------------------------------------------------------------

struct ConvCase {
  int cin, cout, h, w, stride;
  nn::PadMode mode;
};

// Stride 1 and 2, both pad modes, output widths hitting full 16-column
// tiles, an 8-column tile, and masked tails, plus tiny planes where the halo
// dominates.
const ConvCase kConvCases[] = {
    {3, 5, 16, 16, 1, nn::PadMode::kReplicate},
    {3, 5, 16, 16, 2, nn::PadMode::kReplicate},
    {2, 4, 7, 5, 1, nn::PadMode::kZero},
    {2, 4, 9, 9, 2, nn::PadMode::kZero},
    {1, 2, 3, 3, 1, nn::PadMode::kReplicate},
    {1, 2, 4, 3, 2, nn::PadMode::kZero},
    {8, 8, 32, 33, 1, nn::PadMode::kReplicate},
    {8, 16, 32, 32, 2, nn::PadMode::kReplicate},
    {4, 3, 5, 40, 1, nn::PadMode::kZero},
};

std::string describe(const ConvCase& cc) {
  return std::to_string(cc.cin) + "->" + std::to_string(cc.cout) + " " +
         std::to_string(cc.h) + "x" + std::to_string(cc.w) + " stride " +
         std::to_string(cc.stride) +
         (cc.mode == nn::PadMode::kZero ? " zero" : " replicate");
}

/// nn::Conv2d forward under a forced backend: the scalar table lowers through
/// im2col + gemm_nn, AVX2 runs the fused kernel. A nonzero `poison` replaces
/// the input element at flat index `at` (default: the middle of the batch).
std::vector<float> run_conv(const ConvCase& cc, KernelBackend backend,
                            int batch, float poison, std::int64_t at = -1) {
  ForcedBackend forced(backend);
  util::Rng rng(29);
  nn::Conv2d conv(cc.cin, cc.cout, 3, cc.stride, 1, cc.mode, rng);
  Tensor x({batch, cc.cin, cc.h, cc.w});
  util::Rng data_rng(31);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(data_rng.normal());
  }
  if (poison != 0.0f) x.data()[at < 0 ? x.numel() / 2 : at] = poison;
  nn::NoGradGuard guard;
  const Var y = conv.forward(Var(x));
  return std::vector<float>(y.value().data(),
                            y.value().data() + y.value().numel());
}

TEST(Kernels, ConvForwardBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  for (const ConvCase& cc : kConvCases) {
    const auto scalar = run_conv(cc, KernelBackend::kScalar, 2, 0.0f);
    const auto avx2 = run_conv(cc, KernelBackend::kAvx2, 2, 0.0f);
    EXPECT_TRUE(bitwise_equal(scalar, avx2)) << describe(cc);
  }
}

TEST(Kernels, ConvForwardNanBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  const ConvCase cc = {2, 3, 10, 11, 1, nn::PadMode::kZero};
  const auto scalar = run_conv(cc, KernelBackend::kScalar, 1, std::nanf(""));
  const auto avx2 = run_conv(cc, KernelBackend::kAvx2, 1, std::nanf(""));
  EXPECT_TRUE(bitwise_equal(scalar, avx2));
}

TEST(Kernels, ConvFusedMatchesFallbackEveryTail) {
  SKIP_WITHOUT_AVX2();
  // Every h and w in 1..33: each 16- and 8-column tile, every masked tail
  // width, both row halos, and planes smaller than the kernel. cout = 5
  // covers a 4-channel tile plus a 1-channel one. The poisoned runs put NaN,
  // +inf or -inf in the last input column of channel 1, so it reaches the
  // last output columns, which sit in a masked tail whenever wo % 8 != 0.
  const float poisons[] = {std::nanf(""), INFINITY, -INFINITY};
  for (const int stride : {1, 2}) {
    for (const nn::PadMode mode :
         {nn::PadMode::kZero, nn::PadMode::kReplicate}) {
      for (int h = 1; h <= 33; ++h) {
        for (int w = 1; w <= 33; ++w) {
          const ConvCase cc = {3, 5, h, w, stride, mode};
          const auto scalar = run_conv(cc, KernelBackend::kScalar, 1, 0.0f);
          const auto avx2 = run_conv(cc, KernelBackend::kAvx2, 1, 0.0f);
          ASSERT_TRUE(bitwise_equal(scalar, avx2)) << describe(cc);
          const float poison = poisons[(h + w) % 3];
          const std::int64_t at =
              (static_cast<std::int64_t>(h) + h / 2) * w + w - 1;
          const auto scalar_p =
              run_conv(cc, KernelBackend::kScalar, 1, poison, at);
          const auto avx2_p = run_conv(cc, KernelBackend::kAvx2, 1, poison, at);
          ASSERT_TRUE(bitwise_equal(scalar_p, avx2_p))
              << describe(cc) << " poison " << poison;
        }
      }
    }
  }
}

TEST(Kernels, ConvFusedMatchesFallbackEveryChannelCount) {
  SKIP_WITHOUT_AVX2();
  // cout in 1..9 leaves every remainder of the 4-channel tile; cin covers
  // the paper net's 1 (enc1), 2, 8, 16 and the concatenated 32 of up*_conv.
  const int sizes[][2] = {{7, 9}, {28, 20}, {14, 33}};
  for (const int cin : {1, 2, 8, 16, 32}) {
    for (int cout = 1; cout <= 9; ++cout) {
      for (const auto& hw : sizes) {
        for (const int stride : {1, 2}) {
          for (const nn::PadMode mode :
               {nn::PadMode::kZero, nn::PadMode::kReplicate}) {
            const ConvCase cc = {cin, cout, hw[0], hw[1], stride, mode};
            const auto scalar = run_conv(cc, KernelBackend::kScalar, 2, 0.0f);
            const auto avx2 = run_conv(cc, KernelBackend::kAvx2, 2, 0.0f);
            ASSERT_TRUE(bitwise_equal(scalar, avx2)) << describe(cc);
          }
        }
      }
    }
  }
}

TEST(Kernels, ConvFusedBitStableAcrossThreadCounts) {
  // A batch of 6 samples fans out over the pool; each sample's map must not
  // depend on which worker ran it.
  const ConvCase cases[] = {{16, 16, 28, 28, 2, nn::PadMode::kReplicate},
                            {32, 16, 14, 14, 1, nn::PadMode::kReplicate},
                            {16, 1, 28, 20, 1, nn::PadMode::kZero}};
  for (const KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (!linalg::backend_supported(backend)) continue;
    for (const ConvCase& cc : cases) {
      util::ThreadPool::set_global_threads(1);
      const auto one = run_conv(cc, backend, 6, 0.0f);
      util::ThreadPool::set_global_threads(4);
      const auto four = run_conv(cc, backend, 6, 0.0f);
      util::ThreadPool::set_global_threads(0);
      EXPECT_TRUE(bitwise_equal(one, four))
          << linalg::backend_name(backend) << " " << describe(cc);
    }
  }
}

// ---------------------------------------------------------------------------
// Fused stride-2 transposed conv vs the gemm_tn + col2im lowering
// ---------------------------------------------------------------------------

struct DeconvCase {
  int cin, cout, h, w;
};

std::string describe(const DeconvCase& dc) {
  return "deconv " + std::to_string(dc.cin) + "->" + std::to_string(dc.cout) +
         " " + std::to_string(dc.h) + "x" + std::to_string(dc.w);
}

/// Input poison for run_deconv: `value` at (channel, row, col) of sample 0.
struct Poison {
  float value;
  int channel, row, col;
};

/// nn::conv_transpose2d (3x3, stride 2, pad 1, output_padding 1) under a
/// forced backend: the scalar table lowers through gemm_tn + col2im_acc,
/// AVX2 runs the fused gather kernel. `poisons` overwrite input pixels;
/// `weight_poison`, when nonzero, overwrites the kj = 0 taps of every kernel
/// row of w[ci = 0][co = 0] (the taps the last output column skips; ki = 0
/// is also the one the last output row skips), and its negation goes to the
/// same taps of the last input channel's weights for the last output
/// channel.
std::vector<float> run_deconv(const DeconvCase& dc, KernelBackend backend,
                              int batch,
                              const std::vector<Poison>& poisons = {},
                              float weight_poison = 0.0f) {
  ForcedBackend forced(backend);
  Tensor x({batch, dc.cin, dc.h, dc.w});
  Tensor w({dc.cin, dc.cout, 3, 3});
  Tensor b({dc.cout});
  const std::vector<float> xs =
      random_vec(static_cast<std::size_t>(x.numel()), 83);
  const std::vector<float> ws =
      random_vec(static_cast<std::size_t>(w.numel()), 89);
  const std::vector<float> bs =
      random_vec(static_cast<std::size_t>(b.numel()), 97);
  std::copy(xs.begin(), xs.end(), x.data());
  std::copy(ws.begin(), ws.end(), w.data());
  std::copy(bs.begin(), bs.end(), b.data());
  for (const Poison& p : poisons) {
    x.data()[(static_cast<std::int64_t>(p.channel) * dc.h + p.row) * dc.w +
             p.col] = p.value;
  }
  if (weight_poison != 0.0f) {
    const std::int64_t last =
        (static_cast<std::int64_t>(dc.cin - 1) * dc.cout + dc.cout - 1) * 9;
    for (const int tap : {0, 3, 6}) {
      w.data()[tap] = weight_poison;
      w.data()[last + tap] = -weight_poison;
    }
  }
  nn::NoGradGuard guard;
  const Var y = nn::conv_transpose2d(Var(x), Var(w), Var(b), 2, 1, 1);
  return std::vector<float>(y.value().data(),
                            y.value().data() + y.value().numel());
}

TEST(Kernels, DeconvFusedMatchesFallbackEveryTail) {
  SKIP_WITHOUT_AVX2();
  // Every input h and w in 1..33: each 8-column tile, every masked tail and
  // last-column lane, and the last-row branch; cin and cout cover a lone
  // channel, the 4-channel block and its remainders, and the paper net's 8
  // and 16.
  const int channels[] = {1, 2, 3, 8, 16};
  for (int h = 1; h <= 33; ++h) {
    for (int w = 1; w <= 33; ++w) {
      for (const int cin : channels) {
        for (const int cout : channels) {
          const DeconvCase dc = {cin, cout, h, w};
          const auto scalar = run_deconv(dc, KernelBackend::kScalar, 1);
          const auto avx2 = run_deconv(dc, KernelBackend::kAvx2, 1);
          ASSERT_TRUE(bitwise_equal(scalar, avx2)) << describe(dc);
        }
      }
    }
  }
}

TEST(Kernels, DeconvFusedNonFiniteInputsMatchFallback) {
  SKIP_WITHOUT_AVX2();
  // NaN, +inf and -inf pixels in the last input row and column reach the
  // outputs whose taps the kernel skips or blends; inf weights on the
  // kj = 0 taps, which the last output column skips (and ki = 0, which the
  // last output row skips), must add nothing there (a zero halo would turn
  // them into NaN). One non-finite value
  // per run: where two NaNs meet, which one a sum returns depends on operand
  // order, which the scalar code leaves to the compiler.
  const float values[] = {std::nanf(""), INFINITY, -INFINITY};
  for (int h = 1; h <= 33; ++h) {
    for (int w = 1; w <= 33; ++w) {
      const DeconvCase dc = {3, 5, h, w};
      const Poison poisons[] = {{values[(h + w) % 3], 1, h / 2, w - 1},
                                {values[(h + w + 1) % 3], 2, h - 1, w / 2},
                                {values[(h + w + 2) % 3], 0, h - 1, w - 1}};
      for (const Poison& p : poisons) {
        const auto scalar = run_deconv(dc, KernelBackend::kScalar, 1, {p});
        const auto avx2 = run_deconv(dc, KernelBackend::kAvx2, 1, {p});
        ASSERT_TRUE(bitwise_equal(scalar, avx2))
            << describe(dc) << " pixel " << p.value << " at channel "
            << p.channel << " (" << p.row << ", " << p.col << ")";
      }
      const auto scalar_w =
          run_deconv(dc, KernelBackend::kScalar, 1, {}, INFINITY);
      const auto avx2_w = run_deconv(dc, KernelBackend::kAvx2, 1, {}, INFINITY);
      ASSERT_TRUE(bitwise_equal(scalar_w, avx2_w))
          << describe(dc) << " inf weight";
    }
  }
}

TEST(Kernels, DeconvFusedBitStableAcrossThreadCounts) {
  // A batch of 6 samples fans out over the pool; each sample's map must not
  // depend on which worker ran it. The shapes are fusion_net.dec1 and the
  // prediction net's up1 / up2 at D4's size, plus a ragged one.
  const DeconvCase cases[] = {
      {8, 8, 16, 16}, {16, 16, 8, 8}, {16, 16, 16, 16}, {3, 5, 7, 13}};
  for (const KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (!linalg::backend_supported(backend)) continue;
    for (const DeconvCase& dc : cases) {
      util::ThreadPool::set_global_threads(1);
      const auto one = run_deconv(dc, backend, 6);
      util::ThreadPool::set_global_threads(4);
      const auto four = run_deconv(dc, backend, 6);
      util::ThreadPool::set_global_threads(0);
      EXPECT_TRUE(bitwise_equal(one, four))
          << linalg::backend_name(backend) << " " << describe(dc);
    }
  }
}

// ---------------------------------------------------------------------------
// Fused int8 3x3 conv vs the quantize + im2col + gemm_s8 fallback
// ---------------------------------------------------------------------------

/// nn::quantized_conv2d under a forced backend: the scalar table lowers
/// through quantize + int8 im2col + gemm_s8, AVX2 runs the fused kernel. The
/// activation scale puts about 5% of the normal inputs past ±127, so the
/// clamp is exercised too.
std::vector<float> run_conv_s8(const ConvCase& cc, KernelBackend backend,
                               int batch) {
  ForcedBackend forced(backend);
  nn::ParamQuant pq;
  pq.q = random_s8(static_cast<std::size_t>(cc.cout) * cc.cin * 9, 71);
  pq.weight_scale = 0.013f;
  pq.act_scale = 1.0f / 64.0f;
  const Tensor w({cc.cout, cc.cin, 3, 3});  // shape carrier only
  const std::vector<float> bias =
      random_vec(static_cast<std::size_t>(cc.cout), 73);
  Tensor b({cc.cout});
  std::copy(bias.begin(), bias.end(), b.data());
  Tensor x({batch, cc.cin, cc.h, cc.w});
  const std::vector<float> xs =
      random_vec(static_cast<std::size_t>(x.numel()), 79);
  std::copy(xs.begin(), xs.end(), x.data());
  nn::NoGradGuard guard;
  const Var y =
      nn::quantized_conv2d(Var(x), pq, Var(w), Var(b), cc.stride, 1, cc.mode);
  return std::vector<float>(y.value().data(),
                            y.value().data() + y.value().numel());
}

TEST(Kernels, ConvS8FusedMatchesFallbackEveryTail) {
  SKIP_WITHOUT_AVX2();
  // Every h and w in 1..33: each 16- and 8-column vector tail, both row
  // halos, and planes smaller than the kernel. cin = 3 pairs one channel
  // with the zero partner; cout = 5 covers a 4-channel block plus one.
  for (const int stride : {1, 2}) {
    for (const nn::PadMode mode :
         {nn::PadMode::kZero, nn::PadMode::kReplicate}) {
      for (int h = 1; h <= 33; ++h) {
        for (int w = 1; w <= 33; ++w) {
          const ConvCase cc = {3, 5, h, w, stride, mode};
          const auto scalar = run_conv_s8(cc, KernelBackend::kScalar, 1);
          const auto avx2 = run_conv_s8(cc, KernelBackend::kAvx2, 1);
          ASSERT_TRUE(bitwise_equal(scalar, avx2)) << describe(cc);
        }
      }
    }
  }
}

TEST(Kernels, ConvS8FusedMatchesFallbackEveryChannelCount) {
  SKIP_WITHOUT_AVX2();
  // The paper net's channel counts: cin = 1 (enc1), 2, 8, 16 and the
  // concatenated 32 of up*_conv; cout = 1 is dec2 / out_conv.
  const int sizes[][2] = {{7, 9}, {28, 20}, {33, 33}};
  for (const int cin : {1, 2, 8, 16, 32}) {
    for (const int cout : {1, 8, 16}) {
      for (const auto& hw : sizes) {
        for (const int stride : {1, 2}) {
          for (const nn::PadMode mode :
               {nn::PadMode::kZero, nn::PadMode::kReplicate}) {
            const ConvCase cc = {cin, cout, hw[0], hw[1], stride, mode};
            const auto scalar = run_conv_s8(cc, KernelBackend::kScalar, 2);
            const auto avx2 = run_conv_s8(cc, KernelBackend::kAvx2, 2);
            ASSERT_TRUE(bitwise_equal(scalar, avx2)) << describe(cc);
          }
        }
      }
    }
  }
}

TEST(Kernels, ConvS8BitStableAcrossThreadCounts) {
  const ConvCase cases[] = {{16, 8, 28, 20, 2, nn::PadMode::kReplicate},
                              {8, 1, 28, 20, 1, nn::PadMode::kZero}};
  for (const KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (!linalg::backend_supported(backend)) continue;
    for (const ConvCase& cc : cases) {
      util::ThreadPool::set_global_threads(1);
      const auto one = run_conv_s8(cc, backend, 6);
      util::ThreadPool::set_global_threads(4);
      const auto four = run_conv_s8(cc, backend, 6);
      util::ThreadPool::set_global_threads(0);
      EXPECT_TRUE(bitwise_equal(one, four))
          << linalg::backend_name(backend) << " " << describe(cc);
    }
  }
}

TEST(Kernels, ConvS8FusedSaturatedAccumulatorsExact) {
  SKIP_WITHOUT_AVX2();
  // All taps at ±127 with cin = 32: every accumulator is the largest the
  // paper net can produce, ±32 * 9 * 127 * 127, and must come out exact in
  // int32 (no int16 pair saturation, no wrap). Even input channels saturate
  // to +127, odd ones to -127, and each weight carries the sign that makes
  // every product of an output channel the same; replicate padding keeps the
  // uniform planes uniform in the halo.
  const int cin = 32, cout = 16, h = 11, w = 19;
  std::vector<float> src(static_cast<std::size_t>(cin) * h * w);
  for (int c = 0; c < cin; ++c) {
    std::fill(src.begin() + static_cast<std::ptrdiff_t>(c) * h * w,
              src.begin() + static_cast<std::ptrdiff_t>(c + 1) * h * w,
              c % 2 == 0 ? 1.0e6f : -1.0e6f);
  }
  std::vector<std::int8_t> weights(static_cast<std::size_t>(cout) * cin * 9);
  for (int co = 0; co < cout; ++co) {
    for (int c = 0; c < cin; ++c) {
      const int sign = (co % 2 == 0) == (c % 2 == 0) ? 1 : -1;
      std::fill_n(
          weights.begin() + (static_cast<std::ptrdiff_t>(co) * cin + c) * 9, 9,
          static_cast<std::int8_t>(127 * sign));
    }
  }
  std::vector<std::int32_t> dst(static_cast<std::size_t>(cout) * h * w, 0);
  linalg::Conv3x3S8Args args;
  args.src = src.data();
  args.inv_scale = 1.0f;
  args.weights = weights.data();
  args.dst = dst.data();
  args.cin = cin;
  args.h = h;
  args.w = w;
  args.cout = cout;
  args.ho = h;
  args.wo = w;
  args.stride = 1;
  args.replicate = true;
  ForcedBackend forced(KernelBackend::kAvx2);
  ASSERT_TRUE(linalg::conv3x3_s8_fused(args));
  const std::int32_t peak = cin * 9 * 127 * 127;
  for (int co = 0; co < cout; ++co) {
    const std::int32_t want = co % 2 == 0 ? peak : -peak;
    for (int i = 0; i < h * w; ++i) {
      ASSERT_EQ(want, dst[static_cast<std::size_t>(co) * h * w + i])
          << "co " << co << " pixel " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: trained weights bit-identical across backends
// ---------------------------------------------------------------------------

/// Train a small two-conv net (stride 1 then stride 2, the paper net's two
/// conv flavors) for a few Adam steps from a fixed seed; return every
/// parameter value. Forward hits the fused path, backward the tn/nt kernels.
std::vector<float> train_small_net(KernelBackend backend) {
  ForcedBackend forced(backend);
  util::Rng rng(47);
  nn::Conv2d conv1(2, 4, 3, 1, 1, nn::PadMode::kReplicate, rng);
  nn::Conv2d conv2(4, 6, 3, 2, 1, nn::PadMode::kZero, rng);
  std::vector<nn::Parameter*> params = conv1.parameters();
  for (nn::Parameter* p : conv2.parameters()) params.push_back(p);
  nn::Adam opt(params, 1e-2f);

  Tensor x({3, 2, 12, 12});
  util::Rng data_rng(53);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(data_rng.normal());
  }
  Tensor target = Tensor::zeros({3, 6, 6, 6});
  for (std::int64_t i = 0; i < target.numel(); ++i) {
    target.data()[i] = static_cast<float>(data_rng.uniform());
  }

  for (int step = 0; step < 15; ++step) {
    opt.zero_grad();
    Var h = nn::relu(conv1.forward(Var(x)));
    Var loss = nn::l1_loss(conv2.forward(h), target);
    loss.backward();
    opt.step();
  }

  std::vector<float> out;
  for (nn::Parameter* p : params) {
    const Tensor& v = p->var.value();
    out.insert(out.end(), v.data(), v.data() + v.numel());
  }
  return out;
}

TEST(Kernels, TrainedWeightsBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  const auto scalar = train_small_net(KernelBackend::kScalar);
  const auto avx2 = train_small_net(KernelBackend::kAvx2);
  EXPECT_TRUE(bitwise_equal(scalar, avx2));
}

}  // namespace
