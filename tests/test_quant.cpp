// Post-training quantization tests (suite names start with "Quant" so the
// TSan CI leg's regex picks them up): IEEE-half conversion semantics,
// symmetric int8 primitives, activation calibration, PDNB v2 artifact
// round-trips (int8 + fp16), and the quantized inference path's determinism
// across thread counts and kernel backends.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/artifact.hpp"
#include "core/model.hpp"
#include "linalg/kernels/registry.hpp"
#include "nn/module.hpp"
#include "nn/quant_state.hpp"
#include "nn/tensor.hpp"
#include "quant/calibrate.hpp"
#include "quant/dtype.hpp"
#include "quant/half.hpp"
#include "quant/quantize.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pdnn {
namespace {

using core::ModelConfig;
using core::WorstCaseNoiseNet;
using nn::Tensor;
using nn::Var;

ModelConfig tiny_config() {
  ModelConfig c;
  c.distance_channels = 4;
  c.tile_rows = 6;
  c.tile_cols = 5;
  c.current_scale = 2.5f;
  c.noise_scale = 0.125f;
  c.init_seed = 77;
  return c;
}

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform());
  }
  return t;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

/// Calibrate by streaming a few forwards through the model while the
/// observer is armed.
quant::CalibrationResult calibrate_model(WorstCaseNoiseNet& model,
                                         const Tensor& distance) {
  quant::ActivationCalibrator calibrator;
  nn::NoGradGuard no_grad;
  for (std::uint64_t seed = 30; seed < 34; ++seed) {
    const Tensor currents =
        random_tensor({4, 1, model.config().tile_rows,
                       model.config().tile_cols},
                      seed);
    model.forward(Var(distance), Var(currents));
  }
  return calibrator.result();
}

// ---------------------------------------------------------------------------
// IEEE half conversion
// ---------------------------------------------------------------------------

TEST(QuantHalf, RoundTripsEveryFiniteBitPattern) {
  // f16 -> f32 is exact, so converting back must reproduce the bits for all
  // 63488 finite patterns (and the infinities).
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const bool is_nan = (h & 0x7c00u) == 0x7c00u && (h & 0x3ffu) != 0u;
    const float f = quant::f16_to_f32(h);
    if (is_nan) {
      EXPECT_TRUE(std::isnan(f)) << std::hex << bits;
      continue;
    }
    EXPECT_EQ(h, quant::f32_to_f16(f)) << std::hex << bits;
  }
}

TEST(QuantHalf, ConversionEdgeCases) {
  EXPECT_EQ(0x3c00u, quant::f32_to_f16(1.0f));
  EXPECT_EQ(0x8000u, quant::f32_to_f16(-0.0f));
  EXPECT_EQ(0x7bffu, quant::f32_to_f16(65504.0f));  // largest finite half
  EXPECT_EQ(0x7c00u, quant::f32_to_f16(65520.0f));  // ties to infinity
  EXPECT_EQ(0x7c00u, quant::f32_to_f16(1e30f));
  EXPECT_EQ(0xfc00u, quant::f32_to_f16(-1e30f));
  const std::uint16_t nan = quant::f32_to_f16(std::nanf(""));
  EXPECT_EQ(0x7c00u, nan & 0x7c00u);
  EXPECT_NE(0u, nan & 0x3ffu);
  // 2^-25 is exactly half the smallest subnormal: ties to even (zero).
  EXPECT_EQ(0x0000u, quant::f32_to_f16(std::ldexp(1.0f, -25)));
  EXPECT_EQ(0x0001u, quant::f32_to_f16(std::ldexp(1.5f, -25)));
  EXPECT_EQ(0x0400u, quant::f32_to_f16(std::ldexp(1.0f, -14)));  // min normal
}

TEST(QuantHalf, RoundsToNearestEven) {
  // Near 2048 the half ulp is 2: 2049 ties down to 2048 (even mantissa),
  // 2051 ties up to 2052.
  EXPECT_EQ(quant::f32_to_f16(2048.0f), quant::f32_to_f16(2049.0f));
  EXPECT_EQ(quant::f32_to_f16(2052.0f), quant::f32_to_f16(2051.0f));
  EXPECT_EQ(2050.0f, quant::f16_to_f32(quant::f32_to_f16(2050.0f)));
}

// ---------------------------------------------------------------------------
// Symmetric int8 primitives
// ---------------------------------------------------------------------------

TEST(QuantQuantize, SymmetricScaleGuardsDegenerateRanges) {
  EXPECT_EQ(1.0f, quant::symmetric_scale(0.0f));
  EXPECT_EQ(1.0f, quant::symmetric_scale(-1.0f));
  EXPECT_EQ(1.0f, quant::symmetric_scale(std::nanf("")));
  EXPECT_EQ(1.0f,
            quant::symmetric_scale(std::numeric_limits<float>::infinity()));
  EXPECT_EQ(1.0f, quant::symmetric_scale(127.0f));
}

TEST(QuantQuantize, QuantizeMapsExtremesAndClamps) {
  const float values[] = {-6.35f, -3.2f, 0.0f, 3.2f, 6.35f, 100.0f,
                          -100.0f};
  const float scale = quant::symmetric_scale(6.35f);  // = 0.05
  std::int8_t q[7];
  quant::quantize(values, 7, scale, q);
  EXPECT_EQ(-127, q[0]);
  EXPECT_EQ(-64, q[1]);
  EXPECT_EQ(0, q[2]);
  EXPECT_EQ(64, q[3]);
  EXPECT_EQ(127, q[4]);
  EXPECT_EQ(127, q[5]);   // clamped
  EXPECT_EQ(-127, q[6]);  // clamped (symmetric: -128 never used)
  float back[7];
  quant::dequantize(q, 7, scale, back);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(values[i], back[i], scale * 0.5f + 1e-6f);
  }

  // Non-finite and out-of-range inputs saturate on the correct side (a
  // plain lrintf maps +inf and 1e19 to LONG_MIN, i.e. -127), and the rule
  // clamps in float before rounding half to even.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> edges = {kInf, -kInf, 1e19f, -1e19f,
                                    std::nanf(""), 126.5f, 127.5f, -0.5f,
                                    0.5f, 1.5f, -126.5f, -127.5f, -0.0f};
  const std::vector<int> want = {127, -127, 127, -127, -127, 126, 127, 0,
                                 0, 2, -126, -127, 0};
  std::vector<std::int8_t> qe(edges.size());
  quant::quantize(edges.data(), static_cast<std::int64_t>(edges.size()), 1.0f,
                  qe.data());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(want[i], qe[i]) << "quantize(" << edges[i] << ")";
  }

  // The AVX2 fused conv packs its planes with the same rule. A single-channel
  // identity kernel (centre tap 1) returns each pixel's quantized value as
  // its accumulator; two copies of the list put every value in a vector lane
  // and in the scalar tail.
  if (!linalg::backend_supported(linalg::KernelBackend::kAvx2)) return;
  std::vector<float> row(edges);
  row.insert(row.end(), edges.begin(), edges.end());
  row.insert(row.end(), edges.begin(), edges.begin() + 3);
  const int w = static_cast<int>(row.size());
  std::int8_t identity[9] = {0, 0, 0, 0, 1, 0, 0, 0, 0};
  std::vector<std::int32_t> acc(row.size(), 0);
  linalg::Conv3x3S8Args args;
  args.src = row.data();
  args.inv_scale = 1.0f;
  args.weights = identity;
  args.dst = acc.data();
  args.cin = 1;
  args.h = 1;
  args.w = w;
  args.cout = 1;
  args.ho = 1;
  args.wo = w;
  args.stride = 1;
  args.replicate = false;
  linalg::force_backend(linalg::KernelBackend::kAvx2);
  const bool fused = linalg::conv3x3_s8_fused(args);
  linalg::clear_forced_backend();
  ASSERT_TRUE(fused);
  std::vector<std::int8_t> qrow(row.size());
  quant::quantize(row.data(), w, 1.0f, qrow.data());
  for (int i = 0; i < w; ++i) {
    EXPECT_EQ(static_cast<std::int32_t>(qrow[static_cast<std::size_t>(i)]),
              acc[static_cast<std::size_t>(i)])
        << "AVX2 pack of " << row[static_cast<std::size_t>(i)];
  }
}

TEST(QuantQuantize, QuantizeTensorOfZerosIsIdentitySafe) {
  const Tensor t = Tensor::zeros({3, 4});
  const quant::QuantizedTensor qt = quant::quantize_tensor(t);
  EXPECT_EQ(1.0f, qt.scale);
  for (const std::int8_t q : qt.q) EXPECT_EQ(0, q);
}

TEST(QuantQuantize, DtypeNamesRoundTrip) {
  EXPECT_STREQ("fp32", quant::dtype_name(quant::ParamDtype::kF32));
  EXPECT_STREQ("fp16", quant::dtype_name(quant::ParamDtype::kF16));
  EXPECT_STREQ("int8", quant::dtype_name(quant::ParamDtype::kInt8));
  EXPECT_EQ(quant::ParamDtype::kInt8, quant::parse_dtype("int8"));
  try {
    quant::parse_dtype("bf16");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("fp32|fp16|int8"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Activation calibration
// ---------------------------------------------------------------------------

TEST(QuantCalibrate, ObserverFoldsAbsmaxPerConvLayer) {
  const ModelConfig cfg = tiny_config();
  WorstCaseNoiseNet model(cfg);
  const Tensor distance =
      random_tensor({1, cfg.distance_channels, cfg.tile_rows, cfg.tile_cols},
                    11);
  const quant::CalibrationResult calibration =
      calibrate_model(model, distance);
  EXPECT_FALSE(calibration.activation_absmax.empty());
  for (const auto& [name, absmax] : calibration.activation_absmax) {
    EXPECT_GT(absmax, 0.0f) << name;
  }
  // Every observed name is a real conv weight parameter of the model.
  int named = 0;
  for (nn::Parameter* p : model.parameters()) {
    if (calibration.activation_absmax.count(p->name) > 0) ++named;
  }
  EXPECT_EQ(static_cast<std::size_t>(named),
            calibration.activation_absmax.size());
}

TEST(QuantCalibrate, SecondConcurrentCalibratorThrows) {
  quant::ActivationCalibrator first;
  EXPECT_THROW(quant::ActivationCalibrator second, util::CheckError);
}

TEST(QuantCalibrate, ObserverDisarmedAfterScope) {
  {
    quant::ActivationCalibrator calibrator;
    EXPECT_TRUE(nn::detail::activation_observer_armed());
  }
  EXPECT_FALSE(nn::detail::activation_observer_armed());
}

// ---------------------------------------------------------------------------
// PDNB v2 artifacts
// ---------------------------------------------------------------------------

struct QuantizedFixture {
  ModelConfig cfg = tiny_config();
  WorstCaseNoiseNet model{cfg};
  Tensor distance = random_tensor(
      {1, cfg.distance_channels, cfg.tile_rows, cfg.tile_cols}, 11);
  Tensor currents = random_tensor({4, 1, cfg.tile_rows, cfg.tile_cols}, 12);
  core::TemporalCompressionOptions temporal{};
  quant::CalibrationResult calibration;

  QuantizedFixture() {
    temporal.rate = 0.2;
    temporal.rate_step = 0.05;
    calibration = calibrate_model(model, distance);
  }

  Tensor forward(const WorstCaseNoiseNet& net) const {
    nn::NoGradGuard no_grad;
    return net.forward(Var(distance), Var(currents)).value();
  }
};

TEST(QuantArtifact, Int8RoundTripAttachesQuantStateAndStaysClose) {
  QuantizedFixture fx;
  TempFile file("quant_int8.pdnb");
  core::save_artifact_int8(fx.model, fx.temporal, fx.calibration, file.path);

  const core::ModelArtifact loaded = core::load_artifact(file.path);
  ASSERT_NE(loaded.model, nullptr);
  EXPECT_EQ(2u, loaded.version);
  EXPECT_EQ(quant::ParamDtype::kInt8, loaded.dtype);
  EXPECT_EQ(loaded.temporal.rate, fx.temporal.rate);

  int quantized = 0;
  for (nn::Parameter* p : loaded.model->parameters()) {
    if (p->quant != nullptr) {
      ++quantized;
      EXPECT_GE(p->var.value().ndim(), 2) << p->name;
      EXPECT_GT(p->quant->weight_scale, 0.0f) << p->name;
      EXPECT_GT(p->quant->act_scale, 0.0f) << p->name;
      EXPECT_EQ(static_cast<std::int64_t>(p->quant->q.size()),
                p->var.value().numel())
          << p->name;
    } else {
      EXPECT_EQ(0u, fx.calibration.activation_absmax.count(p->name))
          << p->name << " was calibrated but lost its quant state";
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(quantized),
            fx.calibration.activation_absmax.size());

  // The quantized forward runs and lands near the fp32 reference (per-tensor
  // int8 on a unit-scale model: a few percent of the output range).
  const Tensor fp32 = fx.forward(fx.model);
  const Tensor int8 = fx.forward(*loaded.model);
  ASSERT_EQ(fp32.numel(), int8.numel());
  float ref_absmax = 0.0f, max_diff = 0.0f;
  for (std::int64_t i = 0; i < fp32.numel(); ++i) {
    ref_absmax = std::max(ref_absmax, std::fabs(fp32.data()[i]));
    max_diff = std::max(max_diff,
                        std::fabs(fp32.data()[i] - int8.data()[i]));
  }
  EXPECT_GT(ref_absmax, 0.0f);
  EXPECT_LT(max_diff, 0.15f * ref_absmax + 1e-4f);
}

TEST(QuantArtifact, Int8ForwardRejectsGradientRecording) {
  QuantizedFixture fx;
  TempFile file("quant_int8_grad.pdnb");
  core::save_artifact_int8(fx.model, fx.temporal, fx.calibration, file.path);
  const core::ModelArtifact loaded = core::load_artifact(file.path);
  // No NoGradGuard: the forward would record a tape through int8 weights.
  try {
    loaded.model->forward(Var(fx.distance), Var(fx.currents));
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("quantized"), std::string::npos);
  }
}

TEST(QuantArtifact, Int8InferenceDeterministicAcrossThreadsAndBackends) {
  QuantizedFixture fx;
  TempFile file("quant_int8_det.pdnb");
  core::save_artifact_int8(fx.model, fx.temporal, fx.calibration, file.path);
  const core::ModelArtifact loaded = core::load_artifact(file.path);

  util::ThreadPool::set_global_threads(1);
  const Tensor one = fx.forward(*loaded.model);
  util::ThreadPool::set_global_threads(4);
  const Tensor four = fx.forward(*loaded.model);
  util::ThreadPool::set_global_threads(0);
  EXPECT_TRUE(bytes_equal(one, four))
      << "int8 inference must be bit-stable across thread counts";

  linalg::force_backend(linalg::KernelBackend::kScalar);
  const Tensor scalar = fx.forward(*loaded.model);
  linalg::clear_forced_backend();
  EXPECT_TRUE(bytes_equal(one, scalar));
  if (linalg::backend_supported(linalg::KernelBackend::kAvx2)) {
    linalg::force_backend(linalg::KernelBackend::kAvx2);
    const Tensor avx2 = fx.forward(*loaded.model);
    linalg::clear_forced_backend();
    EXPECT_TRUE(bytes_equal(scalar, avx2))
        << "int8 inference must be bit-identical across kernel backends";
  }
}

TEST(QuantArtifact, F16RoundTripExpandsToFp32WithHalfPrecision) {
  QuantizedFixture fx;
  TempFile file("quant_f16.pdnb");
  core::save_artifact_f16(fx.model, fx.temporal, file.path);

  const core::ModelArtifact loaded = core::load_artifact(file.path);
  ASSERT_NE(loaded.model, nullptr);
  EXPECT_EQ(2u, loaded.version);
  EXPECT_EQ(quant::ParamDtype::kF16, loaded.dtype);

  const std::vector<nn::Parameter*> original = fx.model.parameters();
  const std::vector<nn::Parameter*> reloaded = loaded.model->parameters();
  ASSERT_EQ(original.size(), reloaded.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(nullptr, reloaded[i]->quant) << reloaded[i]->name;
    const Tensor& a = original[i]->var.value();
    const Tensor& b = reloaded[i]->var.value();
    ASSERT_EQ(a.numel(), b.numel());
    for (std::int64_t j = 0; j < a.numel(); ++j) {
      // Half has 11 significand bits: RNE error <= 2^-11 relative.
      EXPECT_NEAR(a.data()[j], b.data()[j],
                  std::fabs(a.data()[j]) * 0x1p-11f + 1e-7f)
          << reloaded[i]->name << "[" << j << "]";
    }
  }

  const Tensor fp32 = fx.forward(fx.model);
  const Tensor f16 = fx.forward(*loaded.model);
  float ref_absmax = 0.0f, max_diff = 0.0f;
  for (std::int64_t i = 0; i < fp32.numel(); ++i) {
    ref_absmax = std::max(ref_absmax, std::fabs(fp32.data()[i]));
    max_diff = std::max(max_diff,
                        std::fabs(fp32.data()[i] - f16.data()[i]));
  }
  EXPECT_LT(max_diff, 0.01f * ref_absmax + 1e-5f);
}

TEST(QuantArtifact, PeekReportsVersionAndDtypeWithoutWeights) {
  QuantizedFixture fx;
  TempFile fp32_file("quant_peek_fp32.pdnb");
  TempFile int8_file("quant_peek_int8.pdnb");
  TempFile f16_file("quant_peek_f16.pdnb");
  core::save_artifact(fx.model, fx.temporal, fp32_file.path);
  core::save_artifact_int8(fx.model, fx.temporal, fx.calibration,
                           int8_file.path);
  core::save_artifact_f16(fx.model, fx.temporal, f16_file.path);

  const core::ModelArtifact fp32 = core::peek_artifact(fp32_file.path);
  EXPECT_EQ(nullptr, fp32.model);
  EXPECT_EQ(1u, fp32.version);
  EXPECT_EQ(quant::ParamDtype::kF32, fp32.dtype);

  const core::ModelArtifact int8 = core::peek_artifact(int8_file.path);
  EXPECT_EQ(nullptr, int8.model);
  EXPECT_EQ(2u, int8.version);
  EXPECT_EQ(quant::ParamDtype::kInt8, int8.dtype);
  EXPECT_EQ(int8.config.tile_rows, fx.cfg.tile_rows);

  const core::ModelArtifact f16 = core::peek_artifact(f16_file.path);
  EXPECT_EQ(2u, f16.version);
  EXPECT_EQ(quant::ParamDtype::kF16, f16.dtype);
}

TEST(QuantArtifact, TruncatedV2NamesField) {
  QuantizedFixture fx;
  TempFile file("quant_truncated.pdnb");
  core::save_artifact_int8(fx.model, fx.temporal, fx.calibration, file.path);
  // Cut the file two bytes into the v2 dtype field (header is 64 bytes).
  std::ifstream in(file.path, std::ios::binary);
  std::vector<char> bytes(66);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  try {
    core::load_artifact(file.path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("dtype"), std::string::npos) << what;
  }
}

TEST(QuantArtifact, UnknownDtypeRejected) {
  QuantizedFixture fx;
  TempFile file("quant_baddtype.pdnb");
  core::save_artifact_int8(fx.model, fx.temporal, fx.calibration, file.path);
  std::fstream f(file.path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(64);  // the v2 dtype field, directly after the shared header
  const std::uint32_t bogus = 99;
  f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  f.close();
  try {
    core::load_artifact(file.path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dtype"), std::string::npos) << what;
    EXPECT_NE(what.find("99"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace pdnn
