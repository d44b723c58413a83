// Determinism and correctness of the parallel execution layer: the thread
// pool itself, then bit-identical results for GEMM, conv forward/backward,
// golden dataset generation and depth-first model inference at 1 vs. 4 pool
// threads, plus a gradient check through the parallel conv path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/artifact.hpp"
#include "core/dataset.hpp"
#include "core/features.hpp"
#include "core/pipeline.hpp"
#include "gradcheck.hpp"
#include "linalg/gemm.hpp"
#include "linalg/kernels/registry.hpp"
#include "nn/conv.hpp"
#include "nn/ops.hpp"
#include "quant/calibrate.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pdnn {
namespace {

using nn::PadMode;
using nn::Tensor;
using nn::Var;

/// Restore the default global pool when a test returns.
struct PoolGuard {
  explicit PoolGuard(int threads) {
    util::ThreadPool::set_global_threads(threads);
  }
  ~PoolGuard() { util::ThreadPool::set_global_threads(0); }
};

Tensor random_tensor(std::vector<int> shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal());
  }
  return t;
}

bool bit_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, ExecutesEveryChunkExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr int kChunks = 97;
  std::vector<std::atomic<int>> hits(kChunks);
  for (auto& h : hits) h.store(0);
  pool.run(kChunks,
           [&](std::int64_t c) { ++hits[static_cast<std::size_t>(c)]; });
  for (int c = 0; c < kChunks; ++c) {
    EXPECT_EQ(hits[static_cast<std::size_t>(c)].load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.run(11, [&](std::int64_t) { ++count; });
    ASSERT_EQ(count.load(), 11);
  }
}

TEST(ThreadPool, NestedRunFallsBackToSerial) {
  util::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.run(8, [&](std::int64_t) {
    // A nested run on the same (global-style) pool must not deadlock.
    pool.run(4, [&](std::int64_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, SerialScopeKeepsRunsOnTheCaller) {
  util::ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  {
    const util::SerialScope serial;
    pool.run(16, [&](std::int64_t) {
      if (std::this_thread::get_id() != caller) ++elsewhere;
      // Leaving a nested scope must not end the outer one.
      { const util::SerialScope inner; }
    });
  }
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ThreadPool, PropagatesFirstException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.run(16,
                        [&](std::int64_t c) {
                          if (c == 7) throw std::runtime_error("chunk 7");
                        }),
               std::runtime_error);
  // The pool survives a failed job.
  std::atomic<int> count{0};
  pool.run(5, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int count = 0;  // no atomics needed: everything runs on this thread
  pool.run(9, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 9);
}

TEST(ThreadPool, ReductionPartitionIsThreadCountIndependent) {
  // The chunk partition depends only on (n, chunks) — never on pool size.
  const std::int64_t n = 37;
  const std::int64_t chunks = util::reduction_chunks(n);
  std::int64_t covered = 0;
  for (std::int64_t c = 0; c < chunks; ++c) {
    const util::ChunkRange r = util::reduction_range(n, chunks, c);
    EXPECT_LE(r.begin, r.end);
    covered += r.end - r.begin;
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(util::reduction_chunks(5), 5);   // small batches: chunk per item
  EXPECT_EQ(util::reduction_chunks(500), 16);  // capped partial-buffer count
}

// --- GEMM determinism ------------------------------------------------------

/// Run one gemm variant at the given thread count; m is chosen > 64 so the
/// row-panel loop actually splits, and m*n*k exceeds the parallel threshold.
template <typename Fn>
std::vector<float> run_gemm(const Fn& gemm, int threads, int m, int n, int k) {
  PoolGuard guard(threads);
  util::Rng rng(77);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (float& v : a) v = static_cast<float>(rng.normal());
  for (float& v : b) v = static_cast<float>(rng.normal());
  for (float& v : c) v = static_cast<float>(rng.normal());
  gemm(m, n, k, 1.3f, a, b, 0.7f, c);
  return c;
}

TEST(ParallelGemm, NnBitIdenticalAcrossThreadCounts) {
  const auto call = [](int m, int n, int k, float alpha,
                       const std::vector<float>& a, const std::vector<float>& b,
                       float beta, std::vector<float>& c) {
    linalg::gemm_nn(m, n, k, alpha, a.data(), k, b.data(), n, beta, c.data(),
                    n);
  };
  const auto c1 = run_gemm(call, 1, 192, 160, 144);
  for (int threads : {2, 3, 4}) {
    const auto ct = run_gemm(call, threads, 192, 160, 144);
    EXPECT_TRUE(bit_equal(c1.data(), ct.data(), c1.size()))
        << threads << " threads";
  }
}

TEST(ParallelGemm, NtBitIdenticalAcrossThreadCounts) {
  // B is N x K for the NT variant.
  const auto call = [](int m, int n, int k, float alpha,
                       const std::vector<float>& a, const std::vector<float>& b,
                       float beta, std::vector<float>& c) {
    linalg::gemm_nt(m, n, k, alpha, a.data(), k, b.data(), k, beta, c.data(),
                    n);
  };
  const auto c1 = run_gemm(call, 1, 192, 144, 160);
  for (int threads : {2, 4}) {
    const auto ct = run_gemm(call, threads, 192, 144, 160);
    EXPECT_TRUE(bit_equal(c1.data(), ct.data(), c1.size()))
        << threads << " threads";
  }
}

TEST(ParallelGemm, TnBitIdenticalAcrossThreadCounts) {
  // A is K x M for the TN variant.
  const auto call = [](int m, int n, int k, float alpha,
                       const std::vector<float>& a, const std::vector<float>& b,
                       float beta, std::vector<float>& c) {
    linalg::gemm_tn(m, n, k, alpha, a.data(), m, b.data(), n, beta, c.data(),
                    n);
  };
  const auto c1 = run_gemm(call, 1, 192, 144, 160);
  for (int threads : {2, 4}) {
    const auto ct = run_gemm(call, threads, 192, 144, 160);
    EXPECT_TRUE(bit_equal(c1.data(), ct.data(), c1.size()))
        << threads << " threads";
  }
}

// --- Conv determinism ------------------------------------------------------

struct ConvRun {
  Tensor y, gx, gw, gb;
};

ConvRun run_conv(int threads) {
  PoolGuard guard(threads);
  util::Rng rng(31);
  const Tensor x = random_tensor({5, 3, 12, 10}, rng);
  const Tensor w = random_tensor({4, 3, 3, 3}, rng);
  const Tensor b = random_tensor({4}, rng);
  const Tensor target = random_tensor({5, 4, 12, 10}, rng);

  Var vx(x.clone(), /*requires_grad=*/true);
  Var vw(w.clone(), /*requires_grad=*/true);
  Var vb(b.clone(), /*requires_grad=*/true);
  Var loss =
      nn::l1_loss(nn::conv2d(vx, vw, vb, 1, 1, PadMode::kReplicate), target);
  loss.backward();

  ConvRun r;
  r.y = loss.value().clone();
  r.gx = vx.node()->grad.clone();
  r.gw = vw.node()->grad.clone();
  r.gb = vb.node()->grad.clone();
  return r;
}

TEST(ParallelConv, ForwardAndGradsBitIdentical) {
  const ConvRun serial = run_conv(1);
  for (int threads : {2, 4}) {
    const ConvRun par = run_conv(threads);
    EXPECT_TRUE(bit_equal(serial.y.data(), par.y.data(),
                          static_cast<std::size_t>(serial.y.numel())));
    EXPECT_TRUE(bit_equal(serial.gx.data(), par.gx.data(),
                          static_cast<std::size_t>(serial.gx.numel())))
        << "dX, " << threads << " threads";
    EXPECT_TRUE(bit_equal(serial.gw.data(), par.gw.data(),
                          static_cast<std::size_t>(serial.gw.numel())))
        << "dW, " << threads << " threads";
    EXPECT_TRUE(bit_equal(serial.gb.data(), par.gb.data(),
                          static_cast<std::size_t>(serial.gb.numel())))
        << "db, " << threads << " threads";
  }
}

/// Stride-2 transposed conv, forward then backward. pad 0 / output_padding 0
/// lowers through gemm_tn + col2im; pad 1 / output_padding 1 is the paper
/// net's shape and takes the fused kernel on backends that have one. y holds
/// the forward map, not just the loss.
ConvRun run_conv_transpose(int threads, int pad, int output_padding) {
  PoolGuard guard(threads);
  util::Rng rng(33);
  const Tensor x = random_tensor({4, 3, 5, 5}, rng);
  const Tensor w = random_tensor({3, 2, 3, 3}, rng);
  const Tensor b = random_tensor({2}, rng);
  const int out = nn::conv_transpose_out_size(5, 3, 2, pad, output_padding);
  const Tensor target = random_tensor({4, 2, out, out}, rng);

  Var vx(x.clone(), true);
  Var vw(w.clone(), true);
  Var vb(b.clone(), true);
  const Var y = nn::conv_transpose2d(vx, vw, vb, 2, pad, output_padding);
  Var loss = nn::l1_loss(y, target);
  loss.backward();

  ConvRun r;
  r.y = y.value().clone();
  r.gx = vx.node()->grad.clone();
  r.gw = vw.node()->grad.clone();
  r.gb = vb.node()->grad.clone();
  return r;
}

TEST(ParallelConv, TransposeForwardAndGradsBitIdentical) {
  for (const auto& [pad, output_padding] :
       {std::pair{0, 0}, std::pair{1, 1}}) {
    const ConvRun serial = run_conv_transpose(1, pad, output_padding);
    const ConvRun par = run_conv_transpose(4, pad, output_padding);
    const std::string label = "pad " + std::to_string(pad) +
                              ", output_padding " +
                              std::to_string(output_padding);
    EXPECT_TRUE(bit_equal(serial.y.data(), par.y.data(),
                          static_cast<std::size_t>(serial.y.numel())))
        << "y, " << label;
    EXPECT_TRUE(bit_equal(serial.gx.data(), par.gx.data(),
                          static_cast<std::size_t>(serial.gx.numel())))
        << "dX, " << label;
    EXPECT_TRUE(bit_equal(serial.gw.data(), par.gw.data(),
                          static_cast<std::size_t>(serial.gw.numel())))
        << "dW, " << label;
    EXPECT_TRUE(bit_equal(serial.gb.data(), par.gb.data(),
                          static_cast<std::size_t>(serial.gb.numel())))
        << "db, " << label;
  }
}

TEST(ParallelConv, GradcheckThroughParallelPath) {
  PoolGuard guard(4);
  util::Rng rng(35);
  const Tensor x = random_tensor({3, 2, 5, 4}, rng);
  const Tensor w = random_tensor({3, 2, 3, 3}, rng);
  const Tensor b = random_tensor({3}, rng);
  // Target = unperturbed prediction + a fixed margin: the finite-difference
  // probes (|delta pred| << 3) then never cross an |.| kink of the L1 loss,
  // while the loss magnitude stays small enough for float accuracy.
  Tensor target =
      nn::conv2d(Var(x), Var(w), Var(b), 1, 1, PadMode::kReplicate)
          .value()
          .clone();
  for (std::int64_t i = 0; i < target.numel(); ++i) target.data()[i] += 3.0f;
  testutil::expect_gradients_match(
      [&](std::vector<Var>& v) {
        return nn::l1_loss(
            nn::conv2d(v[0], v[1], v[2], 1, 1, PadMode::kReplicate), target);
      },
      {x, w, b}, /*eps=*/1e-2f, /*tol=*/3e-2f);
}

// --- Dataset determinism ---------------------------------------------------

pdn::DesignSpec tiny_spec() {
  pdn::DesignSpec s;
  s.name = "tiny";
  s.tile_rows = 5;
  s.tile_cols = 5;
  s.nodes_per_tile = 2;
  s.top_stride = 3;
  s.bump_pitch = 2;
  s.num_loads = 12;
  s.unit_current = 5e-3;
  s.seed = 31;
  return s;
}

core::RawDataset run_dataset(int threads, const pdn::PowerGrid& grid,
                             const sim::TransientSimulator& simulator) {
  PoolGuard guard(threads);
  vectors::VectorGenParams params;
  params.num_steps = 24;
  vectors::TestVectorGenerator gen(grid, params, 55);
  return core::simulate_dataset(grid, simulator, gen, 7);
}

TEST(ParallelDataset, BitIdenticalAcrossThreadCounts) {
  const pdn::PowerGrid grid(tiny_spec());
  const sim::TransientSimulator simulator(grid, {});
  const core::RawDataset serial = run_dataset(1, grid, simulator);
  const core::RawDataset par = run_dataset(4, grid, simulator);

  ASSERT_EQ(serial.samples.size(), par.samples.size());
  EXPECT_EQ(serial.current_scale, par.current_scale);  // exact, not near
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    const core::RawSample& a = serial.samples[i];
    const core::RawSample& b = par.samples[i];
    ASSERT_EQ(a.current_maps.size(), b.current_maps.size());
    for (std::size_t t = 0; t < a.current_maps.size(); ++t) {
      EXPECT_TRUE(bit_equal(a.current_maps[t].data(), b.current_maps[t].data(),
                            a.current_maps[t].storage().size()))
          << "sample " << i << " map " << t;
    }
    EXPECT_TRUE(bit_equal(a.truth.data(), b.truth.data(),
                          a.truth.storage().size()))
        << "truth " << i;
  }
}

TEST(ParallelDataset, ProgressReportsEveryVector) {
  PoolGuard guard(4);
  const pdn::PowerGrid grid(tiny_spec());
  const sim::TransientSimulator simulator(grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 16;
  vectors::TestVectorGenerator gen(grid, params, 56);
  std::vector<int> seen;
  core::simulate_dataset(grid, simulator, gen, 5, [&](int done, int total) {
    EXPECT_EQ(total, 5);
    seen.push_back(done);  // callback is serialized under a mutex
  });
  ASSERT_EQ(seen.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i + 1);
  }
}

// --- Depth-first inference -------------------------------------------------
//
// Under a NoGradGuard, fuse_currents runs each chunk of time steps through
// every layer of the fusion subnet; the references run the subnets layer by
// layer. On the 23 x 19 tile grid a fusion step costs about 400 kflop, so
// 11 steps make a chunk: T 1 and 5 run serially under a SerialScope, T 12
// and 37 split into chunks. infer_batch fuses B requests' stacks in one
// pass. The odd sides exercise the decoder crops.

pdn::DesignSpec inference_spec() {
  pdn::DesignSpec s;
  s.name = "depth_first";
  s.tile_rows = 23;
  s.tile_cols = 19;
  s.nodes_per_tile = 1;
  s.top_stride = 3;
  s.bump_pitch = 3;
  s.num_loads = 20;
  s.unit_current = 5e-3;
  s.seed = 61;
  return s;
}

constexpr int kPoolWidths[] = {1, 2, 4};
constexpr int kSteps[] = {1, 5, 12, 37};

bool tensors_identical(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         bit_equal(a.data(), b.data(), static_cast<std::size_t>(a.numel()));
}

bool maps_identical(const util::MapF& a, const util::MapF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         bit_equal(a.data(), b.data(), a.size());
}

/// Every supported kernel backend, scalar first.
std::vector<linalg::KernelBackend> backends() {
  std::vector<linalg::KernelBackend> out{linalg::KernelBackend::kScalar};
  if (linalg::backend_supported(linalg::KernelBackend::kAvx2)) {
    out.push_back(linalg::KernelBackend::kAvx2);
  }
  return out;
}

/// Restores automatic backend selection when a test returns.
struct BackendGuard {
  explicit BackendGuard(linalg::KernelBackend b) { linalg::force_backend(b); }
  ~BackendGuard() { linalg::clear_forced_backend(); }
};

/// A [steps, 1, 23, 19] stack of current maps.
Tensor random_currents(int steps, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t({steps, 1, 23, 19});
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform());
  }
  return t;
}

/// Calibration forwards: whole-model passes over a few current stacks long
/// enough to split into several fusion chunks.
quant::CalibrationResult calibrate(const core::WorstCaseNoiseNet& model,
                                   const Tensor& distance) {
  quant::ActivationCalibrator calibrator;
  nn::NoGradGuard no_grad;
  for (std::uint64_t seed = 70; seed < 73; ++seed) {
    model.forward(Var(distance), Var(random_currents(37, seed)));
  }
  return calibrator.result();
}

/// One design with an fp32 model and its int8 artifact.
struct InferenceFixture {
  pdn::PowerGrid grid{inference_spec()};
  core::ModelConfig config;
  std::unique_ptr<core::WorstCaseNoiseNet> fp32;
  core::ModelArtifact int8;

  InferenceFixture() {
    config.distance_channels = static_cast<int>(grid.bumps().size());
    config.tile_rows = 23;
    config.tile_cols = 19;
    config.init_seed = 19;
    fp32 = std::make_unique<core::WorstCaseNoiseNet>(config);
    const std::string path =
        testing::TempDir() + "parallel_inference_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".int8.pdnb";
    core::save_artifact_int8(*fp32, core::TemporalCompressionOptions{},
                             calibrate(*fp32, core::distance_feature(grid)),
                             path);
    int8 = core::load_artifact(path);
    std::remove(path.c_str());
  }

  std::vector<const core::WorstCaseNoiseNet*> models() const {
    return {fp32.get(), int8.model.get()};
  }
};

TEST(ParallelInference, FuseCurrentsMatchesLayerByLayer) {
  const InferenceFixture fx;
  // The short stacks take the serial path and the long ones split.
  const std::int64_t step_flops = fx.fp32->fusion_net().flops_per_sample(
      fx.config.tile_rows, fx.config.tile_cols);
  ASSERT_LT(5 * step_flops, util::kMinChunkFlops);
  ASSERT_LT(util::grain_for_flops(step_flops), 12);
  const std::vector<linalg::KernelBackend> all_backends = backends();
  nn::NoGradGuard no_grad;
  for (const core::WorstCaseNoiseNet* model : fx.models()) {
    for (int steps : kSteps) {
      const Tensor x = random_currents(steps, 100 + steps);
      Tensor reference;
      {
        PoolGuard pool(1);
        BackendGuard backend(linalg::KernelBackend::kScalar);
        reference = model->fusion_net().forward(Var(x)).value();
      }
      for (linalg::KernelBackend b : all_backends) {
        BackendGuard backend(b);
        for (int width : kPoolWidths) {
          PoolGuard pool(width);
          EXPECT_TRUE(tensors_identical(
              reference, model->fuse_currents(Var(x)).value()))
              << (model == fx.fp32.get() ? "fp32" : "int8") << ", T "
              << steps << ", " << linalg::backend_name(b) << ", width "
              << width;
        }
      }
    }
  }
}

TEST(ParallelInference, InferBatchMatchesLayerByLayer) {
  const InferenceFixture fx;
  const std::vector<linalg::KernelBackend> all_backends = backends();
  for (const core::WorstCaseNoiseNet* model : fx.models()) {
    const core::WorstCasePipeline pipeline(fx.grid, *model,
                                           core::PipelineOptions{});
    for (int steps : kSteps) {
      std::vector<core::PreparedRequest> requests(3);
      std::vector<util::MapF> reference;
      {
        PoolGuard pool(1);
        BackendGuard backend(linalg::KernelBackend::kScalar);
        nn::NoGradGuard no_grad;
        const Var d_tilde = model->reduce_distance(Var(pipeline.distance()));
        for (std::size_t r = 0; r < requests.size(); ++r) {
          requests[r].currents = random_currents(steps, 200 + 10 * r + steps);
          const Var stats = core::WorstCaseNoiseNet::temporal_stats(
              model->fusion_net().forward(Var(requests[r].currents)));
          const Var pred = model->prediction_net().forward(
              nn::concat_channels({d_tilde, stats}));
          reference.push_back(
              core::tensor_to_map(pred.value(), model->config().noise_scale));
        }
      }
      for (linalg::KernelBackend b : all_backends) {
        BackendGuard backend(b);
        for (int width : kPoolWidths) {
          PoolGuard pool(width);
          for (std::size_t batch : {1u, 3u}) {
            std::vector<const core::PreparedRequest*> ptrs;
            for (std::size_t r = 0; r < batch; ++r) ptrs.push_back(&requests[r]);
            const std::vector<util::MapF> maps = pipeline.infer_batch(ptrs);
            ASSERT_EQ(maps.size(), batch);
            for (std::size_t r = 0; r < batch; ++r) {
              EXPECT_TRUE(maps_identical(reference[r], maps[r]))
                  << (model == fx.fp32.get() ? "fp32" : "int8") << ", T "
                  << steps << ", B " << batch << ", request " << r << ", "
                  << linalg::backend_name(b) << ", width " << width;
            }
          }
        }
      }
    }
  }
}

TEST(ParallelInference, CalibrationIsIdenticalAcrossPoolWidths) {
  const InferenceFixture fx;
  const Tensor distance = core::distance_feature(fx.grid);
  quant::CalibrationResult one;
  {
    PoolGuard pool(1);
    one = calibrate(*fx.fp32, distance);
  }
  quant::CalibrationResult four;
  {
    PoolGuard pool(4);
    four = calibrate(*fx.fp32, distance);
  }
  ASSERT_FALSE(one.activation_absmax.empty());
  ASSERT_EQ(one.activation_absmax.size(), four.activation_absmax.size());
  for (const auto& [name, absmax] : one.activation_absmax) {
    const auto it = four.activation_absmax.find(name);
    ASSERT_NE(it, four.activation_absmax.end()) << name;
    EXPECT_TRUE(bit_equal(&absmax, &it->second, 1)) << name;
  }
}

}  // namespace
}  // namespace pdnn
