// Architecture tests for the three-subnet model: shapes on awkward (odd,
// non-square) tile grids, variable-length time axes, determinism, gradient
// flow, and the artifact round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "core/artifact.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "pdn/power_grid.hpp"
#include "nn/optimizer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pdnn {
namespace {

using core::ModelConfig;
using core::WorstCaseNoiseNet;
using nn::Tensor;
using nn::Var;

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform());
  }
  return t;
}

ModelConfig config_for(int b, int m, int n) {
  ModelConfig c;
  c.distance_channels = b;
  c.tile_rows = m;
  c.tile_cols = n;
  return c;
}

class ModelShapes
    : public testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ModelShapes, ForwardProducesTileMap) {
  const auto [b, m, n, t] = GetParam();
  WorstCaseNoiseNet model(config_for(b, m, n));
  const Tensor distance = random_tensor({1, b, m, n}, 1);
  const Tensor currents = random_tensor({t, 1, m, n}, 2);
  const Var out = model.forward(Var(distance), Var(currents));
  ASSERT_EQ(out.value().ndim(), 4);
  EXPECT_EQ(out.value().n(), 1);
  EXPECT_EQ(out.value().c(), 1);
  EXPECT_EQ(out.value().h(), m);
  EXPECT_EQ(out.value().w(), n);
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, ModelShapes,
    testing::Values(std::tuple{4, 8, 8, 3}, std::tuple{9, 7, 9, 5},
                    std::tuple{16, 13, 11, 1}, std::tuple{6, 5, 17, 8},
                    std::tuple{25, 21, 15, 2}),
    [](const auto& info) {
      return "b" + std::to_string(std::get<0>(info.param)) + "m" +
             std::to_string(std::get<1>(info.param)) + "n" +
             std::to_string(std::get<2>(info.param)) + "t" +
             std::to_string(std::get<3>(info.param));
    });

TEST(Model, VariableSequenceLengthsShareWeights) {
  // The fusion subnet handles any T; different T should still produce
  // deterministic, finite outputs from the same weights.
  WorstCaseNoiseNet model(config_for(4, 6, 6));
  const Tensor distance = random_tensor({1, 4, 6, 6}, 3);
  for (int t : {1, 2, 7, 20}) {
    const Tensor currents = random_tensor({t, 1, 6, 6}, 4);
    const Var out = model.forward(Var(distance), Var(currents));
    for (std::int64_t i = 0; i < out.value().numel(); ++i) {
      ASSERT_TRUE(std::isfinite(out.value().data()[i])) << "T=" << t;
    }
  }
}

TEST(Model, DeterministicForSeed) {
  const ModelConfig cfg = config_for(4, 6, 6);
  WorstCaseNoiseNet a(cfg), b(cfg);
  const Tensor distance = random_tensor({1, 4, 6, 6}, 5);
  const Tensor currents = random_tensor({3, 1, 6, 6}, 6);
  const Var ya = a.forward(Var(distance), Var(currents));
  const Var yb = b.forward(Var(distance), Var(currents));
  for (std::int64_t i = 0; i < ya.value().numel(); ++i) {
    ASSERT_FLOAT_EQ(ya.value().data()[i], yb.value().data()[i]);
  }
}

TEST(Model, DifferentInitSeedDiffers) {
  ModelConfig cfg = config_for(4, 6, 6);
  WorstCaseNoiseNet a(cfg);
  cfg.init_seed = 99;
  WorstCaseNoiseNet b(cfg);
  const Tensor distance = random_tensor({1, 4, 6, 6}, 7);
  const Tensor currents = random_tensor({3, 1, 6, 6}, 8);
  const Var ya = a.forward(Var(distance), Var(currents));
  const Var yb = b.forward(Var(distance), Var(currents));
  double diff = 0.0;
  for (std::int64_t i = 0; i < ya.value().numel(); ++i) {
    diff += std::abs(ya.value().data()[i] - yb.value().data()[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(Model, GradientsReachEverySubnet) {
  WorstCaseNoiseNet model(config_for(4, 7, 5));
  const Tensor distance = random_tensor({1, 4, 7, 5}, 9);
  const Tensor currents = random_tensor({4, 1, 7, 5}, 10);
  const Tensor target = random_tensor({1, 1, 7, 5}, 11);

  model.zero_grad();
  Var loss = nn::l1_loss(model.forward(Var(distance), Var(currents)), target);
  loss.backward();

  int with_grad = 0;
  for (auto* p : model.parameters()) {
    double norm = 0.0;
    if (p->var.node()->grad.defined()) {
      for (std::int64_t i = 0; i < p->var.grad().numel(); ++i) {
        norm += std::abs(p->var.grad().data()[i]);
      }
    }
    if (norm > 0.0) ++with_grad;
  }
  // Every parameter tensor should receive gradient signal (ReLU dead units
  // could zero a bias in principle, so allow a small shortfall).
  EXPECT_GE(with_grad, static_cast<int>(model.parameters().size()) - 2);
}

TEST(Model, ParameterBudgetIsCompact) {
  // C1=C2=8, C3=16 keeps the network deliberately small (paper §3.3: simple
  // features permit a small architecture). Sanity-bound the count.
  WorstCaseNoiseNet model(config_for(16, 32, 32));
  EXPECT_LT(model.num_parameters(), 60000);
  EXPECT_GT(model.num_parameters(), 5000);
}

TEST(Model, SaveLoadRoundTripReproducesOutputs) {
  const ModelConfig cfg = config_for(5, 9, 9);
  WorstCaseNoiseNet a(cfg);
  // Perturb weights via one training step so they differ from init.
  {
    const Tensor distance = random_tensor({1, 5, 9, 9}, 12);
    const Tensor currents = random_tensor({2, 1, 9, 9}, 13);
    nn::Adam opt(a.parameters(), 1e-2f);
    Var loss = nn::l1_loss(a.forward(Var(distance), Var(currents)),
                           Tensor::zeros({1, 1, 9, 9}));
    loss.backward();
    opt.step();
  }
  const std::string path = testing::TempDir() + "/model.bin";
  core::save_artifact(a, core::TemporalCompressionOptions{}, path);

  const ModelConfig peeked = core::peek_artifact(path).config;
  EXPECT_EQ(peeked.distance_channels, 5);
  EXPECT_EQ(peeked.tile_rows, 9);

  const core::ModelArtifact loaded = core::load_artifact(path);
  const WorstCaseNoiseNet& b = *loaded.model;
  const Tensor distance = random_tensor({1, 5, 9, 9}, 14);
  const Tensor currents = random_tensor({3, 1, 9, 9}, 15);
  const Var ya = a.forward(Var(distance), Var(currents));
  const Var yb = b.forward(Var(distance), Var(currents));
  for (std::int64_t i = 0; i < ya.value().numel(); ++i) {
    ASSERT_FLOAT_EQ(ya.value().data()[i], yb.value().data()[i]);
  }
}

TEST(Model, LoadRejectsWrongArchitecture) {
  // An artifact stores its own architecture, so the mismatch shows where it
  // meets a design: one bump more than the 9 x 9 grid has.
  pdn::DesignSpec spec;
  spec.name = "nine";
  spec.tile_rows = 9;
  spec.tile_cols = 9;
  spec.nodes_per_tile = 2;
  spec.top_stride = 3;
  spec.bump_pitch = 2;
  spec.num_loads = 12;
  spec.seed = 5;
  const pdn::PowerGrid grid(spec);
  const int bumps = static_cast<int>(grid.bumps().size());
  WorstCaseNoiseNet a(config_for(bumps + 1, 9, 9));
  const std::string path = testing::TempDir() + "/model2.bin";
  core::save_artifact(a, core::TemporalCompressionOptions{}, path);
  const core::ModelArtifact loaded = core::load_artifact(path);
  EXPECT_THROW(
      core::WorstCasePipeline(grid, *loaded.model, core::PipelineOptions{}),
      util::CheckError);
}

TEST(Model, RejectsMalformedInputs) {
  WorstCaseNoiseNet model(config_for(4, 6, 6));
  const Tensor distance = random_tensor({1, 4, 6, 6}, 16);
  const Tensor bad_currents = random_tensor({2, 3, 6, 6}, 17);  // C != 1
  EXPECT_THROW(model.forward(Var(distance), Var(bad_currents)),
               util::CheckError);
  const Tensor bad_distance = random_tensor({1, 3, 6, 6}, 18);  // B mismatch
  const Tensor currents = random_tensor({2, 1, 6, 6}, 19);
  EXPECT_THROW(model.forward(Var(bad_distance), Var(currents)),
               util::CheckError);
}

TEST(UNet2, OddSizesSurviveDownUpRoundTrip) {
  util::Rng rng(20);
  core::UNet2 net(2, 4, 1, rng);
  for (const auto [h, w] : {std::pair{5, 5}, std::pair{6, 9}, std::pair{11, 7},
                            std::pair{4, 4}, std::pair{3, 3}}) {
    const Var y = net.forward(Var(random_tensor({1, 2, h, w}, 21)));
    EXPECT_EQ(y.value().h(), h);
    EXPECT_EQ(y.value().w(), w);
  }
}

TEST(FusionNet, PreservesSpatialSizeAndBatch) {
  util::Rng rng(22);
  core::FusionNet net(8, rng);
  const Var y = net.forward(Var(random_tensor({6, 1, 9, 13}, 23)));
  EXPECT_EQ(y.value().n(), 6);
  EXPECT_EQ(y.value().c(), 1);
  EXPECT_EQ(y.value().h(), 9);
  EXPECT_EQ(y.value().w(), 13);
}

}  // namespace
}  // namespace pdnn
