// Training-infrastructure tests: layers, Adam convergence, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pdnn {
namespace {

using nn::Tensor;
using nn::Var;

TEST(Module, ParameterCollectionAndCount) {
  util::Rng rng(1);
  nn::Conv2d conv(3, 8, 3, 1, 1, nn::PadMode::kZero, rng);
  const auto params = conv.parameters();
  ASSERT_EQ(params.size(), 2u);  // weight + bias
  EXPECT_EQ(params[0]->name, "weight");
  EXPECT_EQ(params[1]->name, "bias");
  EXPECT_EQ(conv.num_parameters(), 8 * 3 * 3 * 3 + 8);
}

TEST(Module, KaimingInitHasReasonableSpread) {
  util::Rng rng(2);
  nn::Conv2d conv(4, 16, 3, 1, 1, nn::PadMode::kZero, rng);
  const Tensor& w = conv.parameters()[0]->var.value();
  double sum = 0.0, sq = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    sum += w.data()[i];
    sq += static_cast<double>(w.data()[i]) * w.data()[i];
  }
  const double mean = sum / static_cast<double>(w.numel());
  const double var = sq / static_cast<double>(w.numel()) - mean * mean;
  const double expected_var = 2.0 / (4 * 3 * 3);  // Kaiming fan-in
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, expected_var, expected_var * 0.5);
}

TEST(Module, ZeroGradClears) {
  util::Rng rng(3);
  nn::Conv2d conv(1, 1, 3, 1, 1, nn::PadMode::kZero, rng);
  Var x(Tensor::full({1, 1, 4, 4}, 1.0f));
  Var loss = nn::l1_loss(conv.forward(x), Tensor::zeros({1, 1, 4, 4}));
  loss.backward();
  auto params = conv.parameters();
  double grad_norm = 0.0;
  for (auto* p : params) {
    for (std::int64_t i = 0; i < p->var.grad().numel(); ++i) {
      grad_norm += std::abs(p->var.grad().data()[i]);
    }
  }
  EXPECT_GT(grad_norm, 0.0);
  conv.zero_grad();
  for (auto* p : params) {
    for (std::int64_t i = 0; i < p->var.grad().numel(); ++i) {
      EXPECT_FLOAT_EQ(p->var.grad().data()[i], 0.0f);
    }
  }
}

TEST(Adam, ConvergesOnConvRegression) {
  // Teach a 1x1-conv to scale its input by 3: a convex regression Adam must
  // solve quickly.
  util::Rng rng(4);
  nn::Conv2d conv(1, 1, 1, 1, 0, nn::PadMode::kZero, rng);
  nn::Adam opt(conv.parameters(), 0.05f);

  Tensor x({1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) {
    x.data()[i] = static_cast<float>(i) / 8.0f;
  }
  Tensor target = x.clone();
  for (std::int64_t i = 0; i < 16; ++i) target.data()[i] *= 3.0f;

  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 300; ++step) {
    opt.zero_grad();
    Var loss = nn::l1_loss(conv.forward(Var(x)), target);
    if (step == 0) first_loss = loss.value().item();
    last_loss = loss.value().item();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(last_loss, 0.05 * first_loss);
  // Learned weight should approach 3, bias near 0.
  EXPECT_NEAR(conv.parameters()[0]->var.value().data()[0], 3.0f, 0.3f);
}

TEST(Adam, StepCountAndLearningRate) {
  util::Rng rng(5);
  nn::Conv2d conv(1, 1, 1, 1, 0, nn::PadMode::kZero, rng);
  nn::Adam opt(conv.parameters(), 1e-3f);
  EXPECT_EQ(opt.steps_taken(), 0);
  EXPECT_FLOAT_EQ(opt.learning_rate(), 1e-3f);
  opt.set_learning_rate(1e-4f);
  EXPECT_FLOAT_EQ(opt.learning_rate(), 1e-4f);
}

TEST(Adam, StateTensorsExportMFirstThenV) {
  util::Rng rng(8);
  nn::Conv2d conv(1, 2, 3, 1, 1, nn::PadMode::kZero, rng);
  nn::Adam opt(conv.parameters(), 1e-3f);
  const auto params = conv.parameters();
  const auto state = opt.state_tensors();
  ASSERT_EQ(state.size(), 2 * params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    // m then v, each shaped like its parameter; fresh moments are zero.
    EXPECT_EQ(state[i]->numel(), params[i]->var.value().numel());
    EXPECT_EQ(state[i + params.size()]->numel(),
              params[i]->var.value().numel());
    for (std::int64_t j = 0; j < state[i]->numel(); ++j) {
      EXPECT_EQ(state[i]->data()[j], 0.0f);
    }
  }
}

TEST(Adam, StateRoundTripKeepsNextStepBitIdentical) {
  // Two optimizers over identical parameter copies, driven by identical
  // gradients. Midway, clone A's state into B (the checkpoint path:
  // state_tensors + set_steps_taken). Every subsequent step must match A's
  // bit for bit — Adam's update depends on t, m, and v, so a missed piece
  // of state shows up immediately.
  util::Rng rng_a(9);
  nn::Conv2d a(1, 1, 3, 1, 1, nn::PadMode::kZero, rng_a);
  util::Rng rng_b(9);
  nn::Conv2d b(1, 1, 3, 1, 1, nn::PadMode::kZero, rng_b);

  nn::Adam opt_a(a.parameters(), 0.01f);
  nn::Adam opt_b(b.parameters(), 0.01f);

  Tensor x({1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) {
    x.data()[i] = static_cast<float>(i % 5) * 0.25f;
  }
  const Tensor target = Tensor::full({1, 1, 4, 4}, 0.5f);

  const auto drive = [&x, &target](nn::Conv2d& conv, nn::Adam& opt) {
    opt.zero_grad();
    Var loss = nn::l1_loss(conv.forward(Var(x)), target);
    loss.backward();
    opt.step();
  };

  for (int step = 0; step < 5; ++step) drive(a, opt_a);

  // "Checkpoint" A into B: weights, moments, and the step count.
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    std::memcpy(pb[i]->var.mutable_value().data(),
                pa[i]->var.value().data(),
                static_cast<std::size_t>(pa[i]->var.value().numel()) *
                    sizeof(float));
  }
  const auto sa = opt_a.state_tensors();
  const auto sb = opt_b.state_tensors();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    std::memcpy(sb[i]->data(), sa[i]->data(),
                static_cast<std::size_t>(sa[i]->numel()) * sizeof(float));
  }
  opt_b.set_steps_taken(opt_a.steps_taken());

  for (int step = 0; step < 5; ++step) {
    drive(a, opt_a);
    drive(b, opt_b);
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(std::memcmp(pa[i]->var.value().data(),
                            pb[i]->var.value().data(),
                            static_cast<std::size_t>(
                                pa[i]->var.value().numel()) *
                                sizeof(float)),
                0)
          << "step " << step << " param " << pa[i]->name;
    }
  }
}

TEST(Adam, RejectsNegativeStepCount) {
  util::Rng rng(10);
  nn::Conv2d conv(1, 1, 1, 1, 0, nn::PadMode::kZero, rng);
  nn::Adam opt(conv.parameters());
  EXPECT_THROW(opt.set_steps_taken(-1), util::CheckError);
}

TEST(Adam, SkipsParametersWithoutGradients) {
  util::Rng rng(6);
  nn::Conv2d used(1, 1, 1, 1, 0, nn::PadMode::kZero, rng);
  nn::Conv2d unused(1, 1, 1, 1, 0, nn::PadMode::kZero, rng);
  const float before = unused.parameters()[0]->var.value().data()[0];

  std::vector<nn::Parameter*> all = used.parameters();
  for (auto* p : unused.parameters()) all.push_back(p);
  nn::Adam opt(all, 0.1f);

  Var loss = nn::l1_loss(used.forward(Var(Tensor::full({1, 1, 2, 2}, 1.0f))),
                         Tensor::zeros({1, 1, 2, 2}));
  loss.backward();
  opt.step();
  EXPECT_FLOAT_EQ(unused.parameters()[0]->var.value().data()[0], before);
}

TEST(Serialize, RoundTripPreservesWeights) {
  util::Rng rng(7);
  nn::Conv2d a(2, 3, 3, 1, 1, nn::PadMode::kZero, rng);
  nn::Conv2d b(2, 3, 3, 1, 1, nn::PadMode::kZero, rng);
  std::stringstream buf;
  nn::save_parameters(a.parameters(), buf, "weights");
  nn::load_parameters(b.parameters(), buf, "weights");
  for (std::size_t i = 0; i < 2; ++i) {
    const Tensor& ta = a.parameters()[i]->var.value();
    const Tensor& tb = b.parameters()[i]->var.value();
    for (std::int64_t j = 0; j < ta.numel(); ++j) {
      ASSERT_FLOAT_EQ(ta.data()[j], tb.data()[j]);
    }
  }
}

TEST(Serialize, RejectsShapeMismatch) {
  util::Rng rng(8);
  nn::Conv2d a(2, 3, 3, 1, 1, nn::PadMode::kZero, rng);
  nn::Conv2d wrong(2, 4, 3, 1, 1, nn::PadMode::kZero, rng);
  std::stringstream buf;
  nn::save_parameters(a.parameters(), buf, "weights2");
  EXPECT_THROW(nn::load_parameters(wrong.parameters(), buf, "weights2"),
               util::CheckError);
}

TEST(Serialize, RejectsGarbageFile) {
  std::stringstream buf("not a weight file");
  util::Rng rng(9);
  nn::Conv2d a(1, 1, 1, 1, 0, nn::PadMode::kZero, rng);
  EXPECT_THROW(nn::load_parameters(a.parameters(), buf, "garbage"),
               util::CheckError);
}

TEST(ConvTranspose2dLayer, ForwardShape) {
  util::Rng rng(10);
  nn::ConvTranspose2d deconv(4, 2, 3, 2, 1, 1, rng);
  const Var y = deconv.forward(Var(Tensor({1, 4, 5, 7})));
  EXPECT_EQ(y.value().c(), 2);
  EXPECT_EQ(y.value().h(), 10);
  EXPECT_EQ(y.value().w(), 14);
}

}  // namespace
}  // namespace pdnn
