// Lockdown for nn::GradPlan, the compiled input-gradient path of
// nn::Model (DESIGN.md §12.1).
//
// Suite GradPlan:
//   * every zoo architecture that compiles (BaseCNN, OneLayer, the KPM
//     DNN, the power-saving CNN) returns logits and dx byte-identical to
//     the layer walk's — forward, cross_entropy_with_logits, backward —
//     at m = 1 and m = 9, at 1 and 4 threads, for both the cross-entropy
//     and the custom-dlogits entry points;
//   * pool edge cases: tied maxima, all-zero post-ReLU windows, −0.0
//     inputs and all-NaN windows (whose gradient goes to the window's
//     own first tap), plus overlapping 3×3 pools and stride-2 convs;
//   * weights are read in place: set_weights, an optimizer step, load and
//     a move all leave the next gradient equal to the walk's;
//   * MiniDenseNet, MiniMobileNet, MiniResNet and malformed chains are
//     refused with a typed reason and keep the walk.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/model_zoo.hpp"
#include "nn/blocks.hpp"
#include "nn/grad_plan.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace orev {
namespace {

using nn::GradPlan;
using nn::CompileError;
using nn::Model;
using nn::Shape;
using nn::Tensor;

/// Restores the pool size a test changed.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(util::num_threads()) {}
  ~ThreadGuard() { util::set_num_threads(saved_); }

 private:
  int saved_;
};

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

/// The layer walk's gradient: forward, cross-entropy, backward.
Tensor walk_gradient(Model& m, const Tensor& x,
                     const std::vector<int>& labels) {
  const Tensor logits = m.forward(x, /*training=*/false);
  return m.backward(nn::cross_entropy_with_logits(logits, labels).dlogits);
}

Tensor walk_gradient_custom(Model& m, const Tensor& x, const Tensor& dz) {
  m.forward(x, /*training=*/false);
  return m.backward(dz);
}

Shape batch_shape(int m, const Shape& sample) {
  Shape s{m};
  s.insert(s.end(), sample.begin(), sample.end());
  return s;
}

std::vector<int> labels_for(int m, int classes) {
  std::vector<int> y(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i)
    y[static_cast<std::size_t>(i)] = (3 * i + 1) % classes;
  return y;
}

/// Plan logits and dx against the walk's, bit for bit, for every batch
/// size and thread count the suite covers.
void expect_plan_matches_walk(Model& m, const std::string& what) {
  ThreadGuard guard;
  ASSERT_EQ(m.grad_plan_refusal(), CompileError::kOk) << what;
  Model walk = m.clone();
  GradPlan::CompileResult direct =
      GradPlan::compile(m.root(), m.input_shape(), m.num_classes());
  ASSERT_TRUE(direct.plan) << what << ": " << direct.failure.detail;
  Rng rng(0x9a1);
  for (const int threads : {1, 4}) {
    util::set_num_threads(threads);
    for (const int rows : {1, 9}) {
      const Tensor x =
          Tensor::uniform(batch_shape(rows, m.input_shape()), rng, 0.0f, 1.0f);
      const std::vector<int> y = labels_for(rows, m.num_classes());
      const std::string tag = what + " m=" + std::to_string(rows) +
                              " threads=" + std::to_string(threads);

      const Tensor ref_logits = walk.forward(x, false);
      const float* z = direct.plan->forward(x.raw(), rows);
      EXPECT_EQ(std::memcmp(z, ref_logits.raw(),
                            ref_logits.numel() * sizeof(float)),
                0)
          << tag << " logits";

      EXPECT_TRUE(same_bytes(m.input_gradient(x, y), walk_gradient(walk, x, y)))
          << tag << " dx";

      Tensor dz({rows, m.num_classes()});
      for (std::size_t i = 0; i < dz.numel(); ++i)
        dz[i] = rng.uniform(-1.0f, 1.0f);
      EXPECT_TRUE(same_bytes(m.input_gradient_custom(x, dz),
                             walk_gradient_custom(walk, x, dz)))
          << tag << " custom dx";

      // The reusable-buffer entry point takes x's own shape.
      Tensor into;
      m.input_gradient_into(x, y, into);
      EXPECT_EQ(into.shape(), x.shape()) << tag;
      EXPECT_TRUE(same_bytes(into, walk_gradient(walk, x, y))) << tag;
    }
    // predict_one / logits_one run the plan's forward half.
    const Tensor sample =
        Tensor::uniform(m.input_shape(), rng, 0.0f, 1.0f);
    EXPECT_TRUE(same_bytes(m.logits_one(sample),
                           walk.forward(sample, false).reshaped(
                               {m.num_classes()})))
        << what;
    EXPECT_EQ(m.predict_one(sample), walk.predict(sample).front()) << what;
  }
}

TEST(GradPlan, BaseCnnMatchesWalk) {
  Model m = apps::make_base_cnn({2, 17, 13}, 3, 21);
  expect_plan_matches_walk(m, "BaseCNN");
}

TEST(GradPlan, OneLayerMatchesWalk) {
  Model m = apps::make_one_layer({3, 5, 7}, 4, 22);
  expect_plan_matches_walk(m, "OneLayer");
}

TEST(GradPlan, KpmDnnMatchesWalk) {
  Model m = apps::make_kpm_dnn(7, 3, 23);
  expect_plan_matches_walk(m, "KpmDnn");
}

TEST(GradPlan, PowerSavingCnnMatchesWalk) {
  Model m = apps::make_power_saving_cnn({1, 12, 10}, 2, 24);
  expect_plan_matches_walk(m, "PowerSavingCnn");
}

TEST(GradPlan, StridedConvOverlappingPoolAndStandaloneReluMatchWalk) {
  // A stride-2 conv (the walk's own dcols route), a ReLU that cannot fuse
  // (the one before it already ends in a ReLU), an overlapping 3×3 pool,
  // Dropout (an identity at inference) and a bias-less Dense.
  auto s = std::make_unique<nn::Sequential>();
  s->emplace<nn::Conv2D>(2, 5, 3, 2, 1).emplace<nn::ReLU>().emplace<nn::ReLU>();
  s->emplace<nn::MaxPool2D>(3, 1);
  s->emplace<nn::Conv2D>(5, 4, 2, 1, 0, /*bias=*/false);
  s->emplace<nn::Flatten>().emplace<nn::Dropout>(0.3f);
  s->emplace<nn::Dense>(4 * 3 * 2, 6).emplace<nn::ReLU>();
  s->emplace<nn::Dense>(6, 3, /*bias=*/false);
  Model m("mixed", std::move(s), {2, 11, 9}, 3);
  Rng rng(31);
  m.init(rng);
  expect_plan_matches_walk(m, "mixed");
}

/// ReLU → 2×2 pool straight on the input, so each window's values (and
/// so its argmax) are set by hand.
Model pool_probe(int c, int h, int w) {
  auto s = std::make_unique<nn::Sequential>();
  s->emplace<nn::ReLU>().emplace<nn::MaxPool2D>(2).emplace<nn::Flatten>();
  s->emplace<nn::Dense>(c * (h / 2) * (w / 2), 3);
  Model m("pool_probe", std::move(s), {c, h, w}, 3);
  Rng rng(41);
  m.init(rng);
  return m;
}

/// Window (oy, ox) of plane `ch` in sample `i` of an [m, c, 4, 6] batch.
void set_window(Tensor& x, int i, int ch, int oy, int ox, float a, float b,
                float c, float d) {
  x.at4(i, ch, 2 * oy, 2 * ox) = a;
  x.at4(i, ch, 2 * oy, 2 * ox + 1) = b;
  x.at4(i, ch, 2 * oy + 1, 2 * ox) = c;
  x.at4(i, ch, 2 * oy + 1, 2 * ox + 1) = d;
}

/// A [rows, 2, 4, 6] batch for pool_probe whose windows hold ties, an
/// all-zero-after-ReLU window, signed zeros and a window NaN cannot win;
/// `no_max` adds an all-NaN window to every sample.
Tensor pool_edge_batch(int rows, bool no_max, Rng& rng) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x = Tensor::uniform({rows, 2, 4, 6}, rng, -1.0f, 1.0f);
  for (int i = 0; i < rows; ++i) {
    set_window(x, i, 0, 0, 0, 0.5f, 0.5f, 0.25f, 0.5f);     // tie
    set_window(x, i, 0, 0, 1, -0.3f, -0.1f, -0.7f, -0.2f);  // 0 after ReLU
    set_window(x, i, 0, 0, 2, -0.0f, 0.0f, -0.0f, 0.0f);    // signed zeros
    set_window(x, i, 1, 1, 0, 0.7f, nan, 0.7f, 0.1f);       // NaN never wins
    if (no_max) set_window(x, i, 1, 1, 2, nan, nan, nan, nan);
  }
  return x;
}

TEST(GradPlan, PoolEdgeCasesMatchWalk) {
  ThreadGuard guard;
  Model m = pool_probe(2, 4, 6);
  ASSERT_EQ(m.grad_plan_refusal(), CompileError::kOk);
  Model walk = m.clone();
  Rng rng(43);
  for (const int rows : {1, 3}) {
    const Tensor x = pool_edge_batch(rows, /*no_max=*/false, rng);
    const Tensor x_nan = pool_edge_batch(rows, /*no_max=*/true, rng);
    Tensor dz({rows, 3});
    for (std::size_t e = 0; e < dz.numel(); ++e)
      dz[e] = rng.uniform(-1.0f, 1.0f);
    const std::vector<int> y = labels_for(rows, 3);
    // An all-NaN window's gradient goes to its own first tap, inside its
    // own plane, so the walk is the reference at every thread count.
    for (const int threads : {1, 4}) {
      util::set_num_threads(threads);
      const std::string tag = "m=" + std::to_string(rows) +
                              " threads=" + std::to_string(threads);
      EXPECT_TRUE(same_bytes(m.input_gradient_custom(x_nan, dz),
                             walk_gradient_custom(walk, x_nan, dz)))
          << tag << " all-NaN window";
      EXPECT_TRUE(same_bytes(m.input_gradient_custom(x, dz),
                             walk_gradient_custom(walk, x, dz)))
          << tag;
      EXPECT_TRUE(same_bytes(m.input_gradient(x, y), walk_gradient(walk, x, y)))
          << tag;
    }
  }
}

TEST(GradPlan, NegativeZeroInputsMatchWalk) {
  Model m = apps::make_base_cnn({1, 10, 10}, 2, 51);
  Model walk = m.clone();
  Tensor x({2, 1, 10, 10}, -0.0f);
  for (int i = 0; i < 10; ++i) x[static_cast<std::size_t>(7 * i)] = 0.1f * i;
  const std::vector<int> y = {0, 1};
  EXPECT_TRUE(same_bytes(m.input_gradient(x, y), walk_gradient(walk, x, y)));
}

TEST(GradPlan, SetWeightsIsSeenByTheNextGradient) {
  Model m = apps::make_base_cnn({1, 12, 12}, 2, 61);
  Rng rng(62);
  const Tensor x = Tensor::uniform({1, 12, 12}, rng, 0.0f, 1.0f);
  const Tensor before = m.input_gradient(x, {1});

  std::vector<Tensor> ws = m.weights();
  for (Tensor& w : ws)
    for (std::size_t i = 0; i < w.numel(); ++i)
      w[i] = w[i] * 0.5f + rng.uniform(-0.1f, 0.1f);
  m.set_weights(ws);
  const Tensor after = m.input_gradient(x, {1});
  EXPECT_FALSE(same_bytes(before, after));
  EXPECT_TRUE(same_bytes(after, walk_gradient(m, x, {1})));
}

TEST(GradPlan, OptimizerStepIsSeenByTheNextGradient) {
  Model m = apps::make_base_cnn({1, 12, 12}, 2, 71);
  Rng rng(72);
  const Tensor xb = Tensor::uniform({4, 1, 12, 12}, rng, 0.0f, 1.0f);
  const Tensor x = xb.slice_batch(0);
  const Tensor before = m.input_gradient(x, {0});

  nn::Sgd opt(m.params(), 0.5f);
  opt.zero_grad();
  const Tensor logits = m.forward(xb, /*training=*/true);
  m.backward(nn::cross_entropy_with_logits(logits, {0, 1, 1, 0}).dlogits);
  opt.step();

  const Tensor after = m.input_gradient(x, {0});
  EXPECT_FALSE(same_bytes(before, after));
  EXPECT_TRUE(same_bytes(after, walk_gradient(m, x, {0})));
}

TEST(GradPlan, LoadAndMoveKeepGradientsOnTheLiveWeights) {
  Model m = apps::make_base_cnn({1, 12, 12}, 2, 81);
  Rng rng(82);
  const Tensor x = Tensor::uniform({1, 12, 12}, rng, 0.0f, 1.0f);
  const Tensor saved = m.input_gradient(x, {1});
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("orev_grad_plan_" + std::to_string(::getpid()) + ".bin"))
          .string();
  ASSERT_TRUE(m.save(path));

  std::vector<Tensor> ws = m.weights();
  for (Tensor& w : ws) w *= -1.0f;
  m.set_weights(ws);
  EXPECT_FALSE(same_bytes(m.input_gradient(x, {1}), saved));
  ASSERT_TRUE(m.load(path));
  std::filesystem::remove(path);
  EXPECT_TRUE(same_bytes(m.input_gradient(x, {1}), saved));

  Model moved = std::move(m);
  EXPECT_TRUE(same_bytes(moved.input_gradient(x, {1}), saved));
  Model assigned = apps::make_one_layer({1, 12, 12}, 2, 83);
  assigned.input_gradient(x, {1});
  assigned = std::move(moved);
  EXPECT_TRUE(same_bytes(assigned.input_gradient(x, {1}), saved));
}

TEST(GradPlan, ZooArchitecturesOutsideTheSetKeepTheWalk) {
  const Shape shape{1, 16, 16};
  Rng rng(91);
  const Tensor x = Tensor::uniform({3, 1, 16, 16}, rng, 0.0f, 1.0f);
  const std::vector<int> y = {0, 1, 1};
  for (const apps::Arch a : {apps::Arch::kDenseNet, apps::Arch::kMobileNet,
                             apps::Arch::kResNet}) {
    Model m = apps::make_arch(a, shape, 2, 92);
    const GradPlan::CompileResult r =
        GradPlan::compile(m.root(), m.input_shape(), m.num_classes());
    EXPECT_FALSE(r.plan) << apps::arch_name(a);
    EXPECT_EQ(r.failure.code, CompileError::kUnsupportedLayer)
        << apps::arch_name(a) << ": " << r.failure.detail;
    EXPECT_FALSE(r.failure.detail.empty());
    EXPECT_EQ(m.grad_plan_refusal(), CompileError::kUnsupportedLayer);
    Model walk = m.clone();
    EXPECT_TRUE(same_bytes(m.input_gradient(x, y), walk_gradient(walk, x, y)))
        << apps::arch_name(a);
    EXPECT_TRUE(same_bytes(m.logits_one(x.slice_batch(1)),
                           walk.logits_one(x.slice_batch(1))))
        << apps::arch_name(a);
  }
}

TEST(GradPlan, MalformedChainsAreRefusedWithTypedReasons) {
  {
    auto inner = std::make_unique<nn::Sequential>();
    inner->emplace<nn::Dense>(4, 4);
    Model m("residual", std::make_unique<nn::Residual>(std::move(inner)), {4},
            4);
    EXPECT_EQ(m.grad_plan_refusal(), CompileError::kNonSequentialRoot);
  }
  {
    // Dense straight on a spatial input: the walk would throw, so the
    // plan declines and leaves that to it.
    auto s = std::make_unique<nn::Sequential>();
    s->emplace<nn::Dense>(16, 2);
    Model m("no_flatten", std::move(s), {1, 4, 4}, 2);
    EXPECT_EQ(m.grad_plan_refusal(), CompileError::kShapeMismatch);
  }
  {
    auto s = std::make_unique<nn::Sequential>();
    s->emplace<nn::Flatten>().emplace<nn::Dense>(16, 3);
    Model m("wrong_classes", std::move(s), {1, 4, 4}, 2);
    EXPECT_EQ(m.grad_plan_refusal(), CompileError::kShapeMismatch);
  }
  {
    auto s = std::make_unique<nn::Sequential>();
    s->emplace<nn::Dense>(4, 4).emplace<nn::Sigmoid>().emplace<nn::Dense>(4, 2);
    Model m("sigmoid", std::move(s), {4}, 2);
    EXPECT_EQ(m.grad_plan_refusal(), CompileError::kUnsupportedLayer);
  }
  EXPECT_STREQ(nn::compile_error_name(CompileError::kUnsupportedLayer),
               "unsupported-layer");
}

TEST(GradPlan, InferenceLockedModelsStillRejectGradients) {
  Model m = apps::make_kpm_dnn(4, 2, 95);
  m.set_inference_only(true);
  const Tensor x({4}, 0.5f);
  EXPECT_THROW(m.input_gradient(x, {0}), CheckError);
  EXPECT_NO_THROW(m.predict_one(x));
}

}  // namespace
}  // namespace orev
