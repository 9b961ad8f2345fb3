// Lockdown for nn::lower_chain (DESIGN.md §12), the one lowering both
// compiled plans — serve::CompiledCnn and nn::GradPlan — compile from.
//
// Suite ChainLowering:
//   * the fusion rules: a ReLU folds into the stage before it unless that
//     stage already ends in one; a BatchNorm fuses into a GEMM stage with
//     no epilogue and matching channels, and runs standalone after
//     Flatten over a conv's flattened features; Flatten and Dropout lower
//     to no stage; every stage points at its source layer;
//   * parity: for every zoo architecture, the KPM DNN, the power-saving
//     CNN and a mixed chain, whenever GradPlan compiles a model the serve
//     plan compiles its locked clone to the same stage kinds and geometry;
//   * both compilers refuse the same malformed chains with the same code.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/model_zoo.hpp"
#include "nn/blocks.hpp"
#include "nn/grad_plan.hpp"
#include "nn/layers.hpp"
#include "nn/lowering.hpp"
#include "nn/model.hpp"
#include "serve/compiled_cnn.hpp"
#include "util/rng.hpp"

namespace orev {
namespace {

using nn::ChainStage;
using nn::CompileError;
using nn::Model;
using Kind = nn::ChainStage::Kind;

TEST(ChainLowering, FusionRulesAndSourceLayers) {
  auto s = std::make_unique<nn::Sequential>();
  s->emplace<nn::Conv2D>(1, 3, 3, 1, 1)           // 0: conv
      .emplace<nn::BatchNorm>(3)                   // 1: fuses into 0
      .emplace<nn::ReLU>()                         // 2: fuses into 0
      .emplace<nn::ReLU>()                         // 3: standalone
      .emplace<nn::MaxPool2D>(2)                   // 4: pool
      .emplace<nn::Flatten>()                      // 5: no stage
      .emplace<nn::BatchNorm>(3 * 3 * 3)           // 6: standalone
      .emplace<nn::Dropout>(0.5f)                  // 7: no stage
      .emplace<nn::Dense>(27, 4)                   // 8: dense
      .emplace<nn::BatchNorm>(4)                   // 9: fuses into 8
      .emplace<nn::Dense>(4, 2);                   // 10: dense
  nn::Sequential& seq = *s;
  Model m("fusion", std::move(s), {1, 6, 6}, 2);

  const nn::LoweredChain c = nn::lower_chain(m.root(), m.input_shape(), 2);
  ASSERT_EQ(c.failure.code, CompileError::kOk) << c.failure.detail;
  EXPECT_EQ(c.input_features, 36);
  EXPECT_EQ(c.flat_begin, 3u);
  const std::vector<Kind> kinds = {Kind::kConv,      Kind::kRelu,
                                   Kind::kPool,      Kind::kBatchNorm,
                                   Kind::kDense,     Kind::kDense};
  ASSERT_EQ(c.stages.size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i)
    EXPECT_EQ(c.stages[i].kind, kinds[i]) << "stage " << i;

  const ChainStage& conv = c.stages[0];
  EXPECT_EQ(conv.layer, &seq.layer(0));
  EXPECT_EQ(conv.bn_layer, &seq.layer(1));
  EXPECT_TRUE(conv.relu);
  EXPECT_EQ(conv.out_c, 3);
  EXPECT_EQ(conv.out_h, 6);
  EXPECT_EQ(conv.geom.k, 3);
  EXPECT_EQ(c.stages[1].layer, nullptr);
  EXPECT_TRUE(c.stages[1].relu);
  EXPECT_EQ(c.stages[2].layer, &seq.layer(4));
  EXPECT_EQ(c.stages[2].out_h, 3);
  EXPECT_EQ(c.stages[3].layer, &seq.layer(6));
  EXPECT_EQ(c.stages[3].bn_layer, &seq.layer(6));
  EXPECT_EQ(c.stages[3].in_c, 27);
  EXPECT_EQ(c.stages[4].layer, &seq.layer(8));
  EXPECT_EQ(c.stages[4].bn_layer, &seq.layer(9));
  EXPECT_FALSE(c.stages[4].relu);
  EXPECT_EQ(c.stages[5].bn_layer, nullptr);
  EXPECT_EQ(c.stages[5].out_c, 2);
}

void expect_same_stages(const std::vector<ChainStage>& grad,
                        const std::vector<serve::CnnStage>& serve,
                        const std::string& what) {
  ASSERT_EQ(grad.size(), serve.size()) << what;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const ChainStage& g = grad[i];
    const serve::CnnStage& s = serve[i];
    const std::string tag = what + " stage " + std::to_string(i);
    EXPECT_EQ(g.kind, s.kind) << tag;
    EXPECT_EQ(g.relu, s.relu) << tag;
    EXPECT_EQ(g.bn_layer != nullptr, s.bn) << tag;
    // The serve plan keeps snapshots, never pointers into its replica.
    EXPECT_EQ(s.layer, nullptr) << tag;
    EXPECT_EQ((std::vector<int>{g.in_c, g.in_h, g.in_w, g.out_c, g.out_h,
                                g.out_w, g.k, g.stride, g.pad}),
              (std::vector<int>{s.in_c, s.in_h, s.in_w, s.out_c, s.out_h,
                                s.out_w, s.k, s.stride, s.pad}))
        << tag;
    const nn::kernels::ConvGeometry& a = g.geom;
    const nn::kernels::ConvGeometry& b = s.geom;
    EXPECT_EQ((std::vector<int>{a.c_in, a.h, a.w, a.k, a.stride, a.pad, a.oh,
                                a.ow, a.phases, a.hq, a.wq, a.grid}),
              (std::vector<int>{b.c_in, b.h, b.w, b.k, b.stride, b.pad, b.oh,
                                b.ow, b.phases, b.hq, b.wq, b.grid}))
        << tag;
    EXPECT_EQ(a.packed, b.packed) << tag;
    EXPECT_EQ(a.off, b.off) << tag;
  }
}

/// Strided conv, a ReLU that cannot fuse, an overlapping pool, Dropout
/// and a bias-less Dense.
Model mixed_chain() {
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
  return m;
}

TEST(ChainLowering, BothCompilersAgreeOnEveryModelTheGradientPlanTakes) {
  std::vector<std::pair<std::string, Model>> models;
  for (const apps::Arch a : apps::all_archs())
    models.emplace_back(apps::arch_name(a),
                        apps::make_arch(a, {1, 16, 16}, 2, 101));
  models.emplace_back("BaseCNN odd",
                      apps::make_base_cnn({2, 17, 13}, 3, 102));
  models.emplace_back("KpmDnn", apps::make_kpm_dnn(7, 3, 103));
  models.emplace_back("PowerSavingCnn",
                      apps::make_power_saving_cnn({1, 12, 10}, 2, 104));
  models.emplace_back("mixed", mixed_chain());

  int compiled = 0;
  for (auto& [name, m] : models) {
    const nn::GradPlan::CompileResult g =
        nn::GradPlan::compile(m.root(), m.input_shape(), m.num_classes());
    if (!g.plan) {
      // Outside the gradient set only for a layer it has no backward for.
      EXPECT_EQ(g.failure.code, CompileError::kUnsupportedLayer)
          << name << ": " << g.failure.detail;
      continue;
    }
    ++compiled;
    Model locked = m.clone();
    locked.set_inference_only(true);
    const serve::CompiledCnn::CompileResult s =
        serve::CompiledCnn::compile(locked);
    ASSERT_TRUE(s.plan) << name << ": " << s.failure.detail;
    expect_same_stages(g.plan->stages(), s.plan->stages(), name);
  }
  // BaseCNN (twice), OneLayer, the KPM DNN, the power-saving CNN, mixed.
  EXPECT_EQ(compiled, 6);
}

TEST(ChainLowering, BothCompilersRefuseMalformedChainsAlike) {
  struct Case {
    std::string name;
    Model model;
    CompileError want;
  };
  std::vector<Case> cases;
  {
    auto inner = std::make_unique<nn::Sequential>();
    inner->emplace<nn::Dense>(4, 4);
    cases.push_back({"residual",
                     Model("residual",
                           std::make_unique<nn::Residual>(std::move(inner)),
                           {4}, 4),
                     CompileError::kNonSequentialRoot});
  }
  {
    auto s = std::make_unique<nn::Sequential>();
    s->emplace<nn::Dense>(16, 2);
    cases.push_back({"no_flatten", Model("no_flatten", std::move(s), {1, 4, 4}, 2),
                     CompileError::kShapeMismatch});
  }
  {
    auto s = std::make_unique<nn::Sequential>();
    s->emplace<nn::Flatten>().emplace<nn::Dense>(16, 3);
    cases.push_back({"wrong_classes",
                     Model("wrong_classes", std::move(s), {1, 4, 4}, 2),
                     CompileError::kShapeMismatch});
  }
  {
    auto s = std::make_unique<nn::Sequential>();
    s->emplace<nn::Dense>(4, 4).emplace<nn::Sigmoid>().emplace<nn::Dense>(4, 2);
    cases.push_back({"sigmoid", Model("sigmoid", std::move(s), {4}, 2),
                     CompileError::kUnsupportedLayer});
  }
  for (Case& c : cases) {
    Rng rng(7);
    c.model.init(rng);
    const nn::GradPlan::CompileResult g = nn::GradPlan::compile(
        c.model.root(), c.model.input_shape(), c.model.num_classes());
    EXPECT_FALSE(g.plan) << c.name;
    EXPECT_EQ(g.failure.code, c.want)
        << c.name << ": " << nn::compile_error_name(g.failure.code);
    Model locked = c.model.clone();
    locked.set_inference_only(true);
    const serve::CompiledCnn::CompileResult s =
        serve::CompiledCnn::compile(locked);
    EXPECT_FALSE(s.plan) << c.name;
    EXPECT_EQ(s.failure.code, c.want)
        << c.name << ": " << nn::compile_error_name(s.failure.code);
    EXPECT_EQ(g.failure.detail, s.failure.detail) << c.name;
  }
}

}  // namespace
}  // namespace orev
