// Differential lockdown for the compiled conv-chain plans (DESIGN.md §12).
//
// Four suites:
//   * CompiledCnnDifferential — randomized Conv/DepthwiseConv/Pool/BN/Dense
//     architectures (seeded shapes, strides, paddings, odd channel counts)
//     whose compiled logits must be byte-identical to the layer walk at
//     1 and 4 threads, including every SIMD remainder width;
//   * CompiledCnnErrors — property tests that unsupported layers, collapsed
//     dims and inference-mode violations come back as *typed* compile
//     failures, never a crash or exception;
//   * Int8Calibrator / Int8Gate — fuzzing the quantizer's activation
//     calibration on constant / denormal-adjacent / extreme-range inputs,
//     plus both accuracy-gate verdicts: a passing fixture that activates
//     the tier and a quantization-hostile fixture (decision margins far
//     below the int8 rounding step) that must be refused, fall back to
//     float, and increment serve.<name>.quant_rejected;
//   * ServeCheckpoint — nn/serialize round-trip for Conv2D /
//     DepthwiseConv2D / BatchNorm state in serving checkpoints, and a
//     committed golden CNN checkpoint whose compiled predictions are
//     locked byte-for-byte (regenerate with OREV_UPDATE_GOLDEN=1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "apps/model_zoo.hpp"
#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "serve/serve.hpp"
#include "test_helpers.hpp"
#include "util/csv.hpp"
#include "util/obs/metrics.hpp"
#include "util/sha256.hpp"
#include "util/thread_pool.hpp"

#ifndef OREV_GOLDEN_DIR
#error "OREV_GOLDEN_DIR must be defined by the build"
#endif

namespace orev {
namespace {

using nn::compile_error_name;
using nn::CompileError;
using serve::CompiledCnn;
using serve::CompiledInt8;
using serve::ServeConfig;
using serve::ServeEngine;
using serve::ServeResult;
using serve::ServeStatus;

class ThreadGuard {
 public:
  ThreadGuard() : saved_(util::num_threads()) {}
  ~ThreadGuard() { util::set_num_threads(saved_); }

 private:
  int saved_;
};

std::string tensor_digest(const nn::Tensor& t) {
  Sha256 h;
  h.update(t.raw(), t.numel() * sizeof(float));
  return Sha256::to_hex(h.finish());
}

void fill_uniform(nn::Tensor& t, Rng& rng, float lo, float hi) {
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(lo, hi);
}

/// Give every top-level BatchNorm a random affine (γ ∈ [0.5, 1.5],
/// β ∈ [-0.5, 0.5]). At γ = 1, β = 0 the epilogue's γ·x̂ + β is exact
/// whether or not it is fused into one FMA, so a harness that never moves
/// them cannot see a contracted epilogue.
void randomize_bn_affine(nn::Model& m, Rng& rng) {
  auto* seq = dynamic_cast<nn::Sequential*>(&m.root());
  if (seq == nullptr) return;
  for (std::size_t i = 0; i < seq->size(); ++i) {
    auto* bn = dynamic_cast<nn::BatchNorm*>(&seq->layer(i));
    if (bn == nullptr) continue;
    const std::vector<nn::Param*> ps = bn->params();  // {γ, β}
    for (float& v : ps[0]->value.data()) v = rng.uniform(0.5f, 1.5f);
    for (float& v : ps[1]->value.data()) v = rng.uniform(-0.5f, 0.5f);
  }
}

/// Move BatchNorm running stats off their init values the way a trained
/// model would look, randomize the BN affine (unless `random_affine` is
/// false), then lock the model for inference.
void warm_and_lock(nn::Model& m, std::uint64_t seed, int batch = 8,
                   bool random_affine = true) {
  Rng rng(seed);
  nn::Shape shape = m.input_shape();
  shape.insert(shape.begin(), batch);
  nn::Tensor x(shape);
  for (int e = 0; e < 2; ++e) {
    fill_uniform(x, rng, -1.0f, 1.0f);
    m.forward(x, /*training=*/true);
  }
  if (random_affine) randomize_bn_affine(m, rng);
  m.set_inference_only(true);
}

nn::Tensor random_batch(const nn::Model& m, int rows, std::uint64_t seed,
                        float lo = -1.0f, float hi = 1.0f) {
  nn::Shape shape = m.input_shape();
  shape.insert(shape.begin(), rows);
  nn::Tensor x(shape);
  Rng rng(seed);
  fill_uniform(x, rng, lo, hi);
  return x;
}

/// Randomized conv-chain generator. Odd channel counts and spatial sizes
/// on purpose: they leave the conv kernel's last grid tile partly past
/// the output and its channel tiles with 1–3-channel remainders, and the
/// dense kernel with column remainders. Every architecture is valid by
/// construction (spatial dims are tracked so no stage collapses).
nn::Model random_cnn_model(std::uint64_t seed) {
  Rng rng(seed);
  const int c0 = rng.uniform_int(1, 3);
  const int hw0 = rng.uniform_int(7, 13);
  int c = c0, h = hw0, w = hw0;

  auto seq = std::make_unique<nn::Sequential>();
  const int blocks = rng.uniform_int(1, 3);
  for (int b = 0; b < blocks; ++b) {
    const int k = rng.uniform_int(1, std::min(3, std::min(h, w)));
    const int pad = k > 1 ? rng.uniform_int(0, 1) : 0;
    int stride = rng.uniform_int(1, 2);
    if ((h + 2 * pad - k) / stride + 1 < 1) stride = 1;
    const int oh = (h + 2 * pad - k) / stride + 1;
    const int ow = (w + 2 * pad - k) / stride + 1;
    if (rng.uniform() < 0.3f) {
      seq->emplace<nn::DepthwiseConv2D>(c, k, stride, pad);
    } else {
      const int oc = rng.uniform_int(3, 9);  // odd counts included
      seq->emplace<nn::Conv2D>(c, oc, k, stride, pad,
                               /*bias=*/rng.uniform() < 0.7f);
      c = oc;
    }
    h = oh;
    w = ow;
    if (rng.uniform() < 0.5f) seq->emplace<nn::BatchNorm>(c);
    if (rng.uniform() < 0.75f) seq->emplace<nn::ReLU>();
    if (h >= 4 && w >= 4 && rng.uniform() < 0.5f) {
      seq->emplace<nn::MaxPool2D>(2);
      h /= 2;
      w /= 2;
    }
  }
  seq->emplace<nn::Flatten>();
  // BatchNorm/ReLU after Flatten act on flattened features: the BN can
  // only fuse into a conv host whose output is 1×1 spatially.
  const int features = c * h * w;
  if (rng.uniform() < 0.5f) seq->emplace<nn::BatchNorm>(features);
  if (rng.uniform() < 0.5f) seq->emplace<nn::ReLU>();
  const int hidden = rng.uniform_int(9, 21);
  const int classes = rng.uniform_int(2, 5);
  seq->emplace<nn::Dense>(features, hidden);
  if (rng.uniform() < 0.5f) seq->emplace<nn::BatchNorm>(hidden);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::Dense>(hidden, classes, /*bias=*/rng.uniform() < 0.5f);

  nn::Model m("RandCnn", std::move(seq), {c0, hw0, hw0}, classes);
  m.init(rng);
  warm_and_lock(m, seed ^ 0xb00f);
  return m;
}

// ---------------------------------------------- differential harness --

TEST(CompiledCnnDifferential, RandomArchitecturesByteIdenticalAtOneAndFourThreads) {
  ThreadGuard guard;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    nn::Model m = random_cnn_model(seed);
    CompiledCnn::CompileResult r = CompiledCnn::compile(m);
    ASSERT_NE(r.plan, nullptr)
        << "seed " << seed << ": " << compile_error_name(r.failure.code)
        << " — " << r.failure.detail;

    const nn::Tensor batch = random_batch(m, 13, seed * 7919u);
    const nn::Tensor walk = m.forward(batch, /*training=*/false);

    util::set_num_threads(1);
    const nn::Tensor lg1 = r.plan->logits(batch);
    util::set_num_threads(4);
    const nn::Tensor lg4 = r.plan->logits(batch);

    ASSERT_EQ(lg1.numel(), walk.numel()) << "seed " << seed;
    EXPECT_EQ(std::memcmp(lg1.raw(), walk.raw(),
                          walk.numel() * sizeof(float)),
              0)
        << "seed " << seed << ": compiled logits differ from the layer walk";
    EXPECT_EQ(std::memcmp(lg1.raw(), lg4.raw(),
                          walk.numel() * sizeof(float)),
              0)
        << "seed " << seed << ": thread count changed the compiled bits";
    EXPECT_EQ(r.plan->predict_rows(batch.raw(), batch.dim(0)),
              m.predict(batch))
        << "seed " << seed;
  }
}

TEST(CompiledCnnDifferential, IcXappCnnMatchesWalkAtServingBatchSizes) {
  nn::Model m = apps::make_base_cnn({1, 16, 16}, 4, /*seed=*/29);
  m.set_inference_only(true);
  CompiledCnn::CompileResult r = CompiledCnn::compile(m);
  ASSERT_NE(r.plan, nullptr) << r.failure.detail;
  EXPECT_STREQ(r.plan->kind(), "cnn");
  for (const int rows : {1, 3, 32}) {
    const nn::Tensor batch =
        random_batch(m, rows, 0x1c0de + static_cast<std::uint64_t>(rows),
                     0.0f, 1.0f);
    const nn::Tensor walk = m.forward(batch, /*training=*/false);
    const nn::Tensor lg = r.plan->logits(batch);
    EXPECT_EQ(
        std::memcmp(lg.raw(), walk.raw(), walk.numel() * sizeof(float)), 0)
        << "rows=" << rows;
  }
}

TEST(CompiledCnnDifferential, StrideTwoZooChainsMatchWalk) {
  // MiniMobileNet's and MiniResNet's conv stacks laid out flat (compiled
  // plans take a flat Sequential: no Residual, Flatten instead of
  // GlobalAvgPool) at the 1×24×24 spectrogram shape, so their stride-2
  // 3×3 convs and 1×1 projection run through the phase-plane packer.
  auto mobilenet = std::make_unique<nn::Sequential>();
  mobilenet->emplace<nn::Conv2D>(1, 8, 3, 2, 1)
      .emplace<nn::BatchNorm>(8)
      .emplace<nn::ReLU>()
      .emplace<nn::DepthwiseConv2D>(8, 3, 1, 1)
      .emplace<nn::BatchNorm>(8)
      .emplace<nn::ReLU>()
      .emplace<nn::Conv2D>(8, 16, 1)
      .emplace<nn::BatchNorm>(16)
      .emplace<nn::ReLU>()
      .emplace<nn::DepthwiseConv2D>(16, 3, 2, 1)
      .emplace<nn::BatchNorm>(16)
      .emplace<nn::ReLU>()
      .emplace<nn::Conv2D>(16, 24, 1)
      .emplace<nn::BatchNorm>(24)
      .emplace<nn::ReLU>()
      .emplace<nn::Flatten>()
      .emplace<nn::Dense>(24 * 6 * 6, 4);
  auto resnet = std::make_unique<nn::Sequential>();
  resnet->emplace<nn::Conv2D>(1, 8, 3, 1, 1)
      .emplace<nn::BatchNorm>(8)
      .emplace<nn::ReLU>()
      .emplace<nn::MaxPool2D>(2)
      .emplace<nn::Conv2D>(8, 8, 3, 1, 1)
      .emplace<nn::BatchNorm>(8)
      .emplace<nn::ReLU>()
      .emplace<nn::Conv2D>(8, 16, 3, 2, 1)
      .emplace<nn::BatchNorm>(16)
      .emplace<nn::ReLU>()
      .emplace<nn::Conv2D>(16, 16, 3, 1, 1)
      .emplace<nn::BatchNorm>(16)
      .emplace<nn::Conv2D>(16, 16, 1, 2, 0)
      .emplace<nn::Flatten>()
      .emplace<nn::Dense>(16 * 3 * 3, 4);
  std::vector<nn::Model> models;
  models.emplace_back("FlatMobileNet", std::move(mobilenet),
                      nn::Shape{1, 24, 24}, 4);
  models.emplace_back("FlatResNet", std::move(resnet), nn::Shape{1, 24, 24},
                      4);

  ThreadGuard guard;
  for (nn::Model& m : models) {
    Rng rng(0x5702);
    m.init(rng);
    warm_and_lock(m, 0x5703);
    CompiledCnn::CompileResult r = CompiledCnn::compile(m);
    ASSERT_NE(r.plan, nullptr) << m.name() << ": " << r.failure.detail;
    const nn::Tensor batch = random_batch(m, 13, 0x5704, 0.0f, 1.0f);
    const std::string walk = tensor_digest(m.forward(batch, false));
    for (const int threads : {1, 4}) {
      util::set_num_threads(threads);
      EXPECT_EQ(tensor_digest(r.plan->logits(batch)), walk)
          << m.name() << " at " << threads << " threads";
    }
  }
}

TEST(CompiledCnnDifferential, HandBuiltDepthwiseBnChainExercisesEveryFusion) {
  // Bias-less conv, fused BN after conv and after depthwise, a standalone
  // BN after a pool (no GEMM host to fuse into), and a trailing ReLU.
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Conv2D>(2, 5, 3, /*stride=*/1, /*padding=*/1,
                           /*bias=*/false);
  seq->emplace<nn::BatchNorm>(5);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::DepthwiseConv2D>(5, 3, /*stride=*/2, /*padding=*/1);
  seq->emplace<nn::BatchNorm>(5);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::MaxPool2D>(2);
  seq->emplace<nn::BatchNorm>(5);
  seq->emplace<nn::Flatten>();
  seq->emplace<nn::Dense>(5 * 2 * 2, 3);
  nn::Model m("FusionChain", std::move(seq), {2, 9, 9}, 3);
  Rng rng(0xf0f0);
  m.init(rng);
  warm_and_lock(m, 0xf1f1);

  CompiledCnn::CompileResult r = CompiledCnn::compile(m);
  ASSERT_NE(r.plan, nullptr) << r.failure.detail;

  ThreadGuard guard;
  const nn::Tensor batch = random_batch(m, 17, 0xabcd);
  const nn::Tensor walk = m.forward(batch, /*training=*/false);
  util::set_num_threads(1);
  const std::string d1 = tensor_digest(r.plan->logits(batch));
  util::set_num_threads(4);
  const std::string d4 = tensor_digest(r.plan->logits(batch));
  EXPECT_EQ(d1, tensor_digest(walk));
  EXPECT_EQ(d1, d4);
}

TEST(CompiledCnnDifferential, FusedBnEpilogueMatchesWalkOnScalarPixelTails) {
  // Conv + fused BatchNorm with a random affine, ending in Flatten so the
  // logits *are* the BN output. Odd spatial sizes leave a last grid tile
  // that runs past the output (lanes computed, never stored) and, on
  // hosts without SIMD, the scalar conv path runs the epilogue γ·x̂ + β:
  // compiled with FMA contraction it would round once instead of twice
  // and drift from the walk's separate mul and add.
  ThreadGuard guard;
  util::set_num_threads(1);
  for (const int hw : {5, 7, 9, 11, 13}) {
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Conv2D>(2, 5, 3, /*stride=*/1, /*padding=*/1);
    seq->emplace<nn::BatchNorm>(5);
    seq->emplace<nn::Flatten>();
    nn::Model m("ConvBn", std::move(seq), {2, hw, hw}, 5 * hw * hw);
    Rng rng(0xb7 + static_cast<std::uint64_t>(hw));
    m.init(rng);
    for (float& v : m.params()[1]->value.data()) v = rng.uniform(-0.5f, 0.5f);
    warm_and_lock(m, 0xbeef + static_cast<std::uint64_t>(hw));

    CompiledCnn::CompileResult r = CompiledCnn::compile(m);
    ASSERT_NE(r.plan, nullptr) << r.failure.detail;
    ASSERT_EQ(r.plan->stages().size(), 1u) << "BN was not fused into conv";
    const nn::Tensor batch = random_batch(m, 3, 0x5eed + hw);
    const nn::Tensor walk = m.forward(batch, /*training=*/false);
    const nn::Tensor lg = r.plan->logits(batch);
    ASSERT_EQ(lg.numel(), walk.numel());
    EXPECT_EQ(std::memcmp(lg.raw(), walk.raw(), walk.numel() * sizeof(float)),
              0)
        << hw << "x" << hw << ": fused BN epilogue differs from the walk";
  }
}

TEST(CompiledCnnDifferential, BatchNormAfterFlattenNormalisesFeaturesNotChannels) {
  // After Flatten a BatchNorm has one channel per flattened feature; a
  // conv or depthwise stage's fused epilogue indexes its parameters by
  // conv channel, so it must run as its own flat stage. A pool host never
  // fuses; it is here so every spatial host kind is covered.
  ThreadGuard guard;
  // Every host outputs 2 channels of 4×4: 32 flattened features.
  struct Host {
    const char* name;
    int in_c;
    void (*add)(nn::Sequential&);
  };
  const Host hosts[] = {
      {"conv", 1,
       [](nn::Sequential& q) {
         q.emplace<nn::Conv2D>(1, 2, 3, /*stride=*/1, /*padding=*/1);
       }},
      {"depthwise", 2,
       [](nn::Sequential& q) {
         q.emplace<nn::DepthwiseConv2D>(2, 3, /*stride=*/1, /*padding=*/1);
       }},
      {"pool", 2, [](nn::Sequential& q) { q.emplace<nn::MaxPool2D>(1); }},
  };
  for (const Host& host : hosts) {
    auto seq = std::make_unique<nn::Sequential>();
    host.add(*seq);
    seq->emplace<nn::Flatten>();
    seq->emplace<nn::BatchNorm>(32);
    seq->emplace<nn::Dense>(32, 3);
    nn::Model m("FlatBn", std::move(seq), {host.in_c, 4, 4}, 3);
    Rng rng(0xf1a7);
    m.init(rng);
    warm_and_lock(m, 0xf1a8);

    CompiledCnn::CompileResult r = CompiledCnn::compile(m);
    ASSERT_NE(r.plan, nullptr) << host.name << ": " << r.failure.detail;
    ASSERT_EQ(r.plan->stages().size(), 3u) << host.name;
    EXPECT_FALSE(r.plan->stages()[0].bn) << host.name;
    EXPECT_EQ(r.plan->stages()[1].kind, serve::CnnStage::Kind::kBatchNorm)
        << host.name;
    const nn::Tensor batch = random_batch(m, 16, 0xf1a9);
    const nn::Tensor walk = m.forward(batch, /*training=*/false);
    for (const int threads : {1, 4}) {
      util::set_num_threads(threads);
      const nn::Tensor lg = r.plan->logits(batch);
      ASSERT_EQ(lg.numel(), walk.numel());
      EXPECT_EQ(
          std::memcmp(lg.raw(), walk.raw(), walk.numel() * sizeof(float)), 0)
          << host.name << " host, " << threads << " thread(s)";
    }
  }
}

TEST(CompiledCnnDifferential, BatchNormAfterFlattenStillFusesIntoAOneByOneConv) {
  // A 1×1 conv output flattens to exactly its channels, so the BN's
  // features are the conv's channels and fusing stays exact.
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Conv2D>(2, 5, 3);  // 3×3 input → 5×1×1
  seq->emplace<nn::Flatten>();
  seq->emplace<nn::BatchNorm>(5);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::Dense>(5, 3);
  nn::Model m("OneByOneBn", std::move(seq), {2, 3, 3}, 3);
  Rng rng(0x1b1);
  m.init(rng);
  warm_and_lock(m, 0x1b2);

  CompiledCnn::CompileResult r = CompiledCnn::compile(m);
  ASSERT_NE(r.plan, nullptr) << r.failure.detail;
  ASSERT_EQ(r.plan->stages().size(), 2u);
  EXPECT_TRUE(r.plan->stages()[0].bn);
  EXPECT_TRUE(r.plan->stages()[0].relu);
  const nn::Tensor batch = random_batch(m, 9, 0x1b3);
  const nn::Tensor walk = m.forward(batch, /*training=*/false);
  EXPECT_EQ(tensor_digest(r.plan->logits(batch)), tensor_digest(walk));
}

// ------------------------------------------------- typed compile errors --

void expect_failure(nn::Model& m, CompileError code) {
  CompiledCnn::CompileResult r;
  EXPECT_NO_THROW(r = CompiledCnn::compile(m));
  EXPECT_EQ(r.plan, nullptr);
  EXPECT_EQ(r.failure.code, code)
      << "got " << compile_error_name(r.failure.code) << " — "
      << r.failure.detail;
  EXPECT_FALSE(r.failure.detail.empty());
  EXPECT_NE(compile_error_name(r.failure.code), nullptr);
}

TEST(CompiledCnnErrors, NonSequentialRootIsTyped) {
  nn::Model m("BareDense", std::make_unique<nn::Dense>(4, 2), {4}, 2);
  Rng rng(1);
  m.init(rng);
  m.set_inference_only(true);
  expect_failure(m, CompileError::kNonSequentialRoot);
}

TEST(CompiledCnnErrors, UnsupportedLayersAreTypedNotFatal) {
  {
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Conv2D>(1, 4, 3);
    seq->emplace<nn::GlobalAvgPool>();
    seq->emplace<nn::Dense>(4, 2);
    nn::Model m("GapNet", std::move(seq), {1, 8, 8}, 2);
    Rng rng(2);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kUnsupportedLayer);
  }
  {
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Residual>(std::make_unique<nn::Dense>(4, 4));
    seq->emplace<nn::Dense>(4, 2);
    nn::Model m("ResNet", std::move(seq), {4}, 2);
    Rng rng(3);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kUnsupportedLayer);
  }
}

TEST(CompiledCnnErrors, UnlockedModelIsRejectedBecauseBnStatsCouldMove) {
  nn::Model m = apps::make_base_cnn({1, 16, 16}, 4, 29);
  ASSERT_FALSE(m.inference_only());
  expect_failure(m, CompileError::kNotInferenceMode);
}

TEST(CompiledCnnErrors, CollapsingDimsAreTyped) {
  {
    // Pool kernel larger than the spatial extent.
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::MaxPool2D>(5);
    seq->emplace<nn::Flatten>();
    seq->emplace<nn::Dense>(1, 2);
    nn::Model m("PoolCollapse", std::move(seq), {1, 4, 4}, 2);
    Rng rng(4);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kBadDims);
  }
  {
    // Conv kernel larger than the input plane.
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Conv2D>(1, 3, 3);
    seq->emplace<nn::Flatten>();
    seq->emplace<nn::Dense>(3, 2);
    nn::Model m("ConvCollapse", std::move(seq), {1, 2, 2}, 2);
    Rng rng(5);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kBadDims);
  }
  {
    // No stages at all.
    nn::Model m("Empty", std::make_unique<nn::Sequential>(), {4}, 4);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kBadDims);
  }
}

TEST(CompiledCnnErrors, ShapeMismatchesAreTyped) {
  {
    // Dense over a spatial tensor (missing Flatten).
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Conv2D>(1, 4, 3);
    seq->emplace<nn::Dense>(4 * 6 * 6, 2);
    nn::Model m("NoFlatten", std::move(seq), {1, 8, 8}, 2);
    Rng rng(6);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kShapeMismatch);
  }
  {
    // Model does not end in num_classes flat logits.
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Dense>(4, 8);
    nn::Model m("WrongTail", std::move(seq), {4}, 2);
    Rng rng(7);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kShapeMismatch);
  }
}

// ------------------------------------------------ int8 calibrator fuzz --

/// Small conv chain for the quantizer tests: input [1, 8, 8], 3 classes.
nn::Model quant_cnn_model(std::uint64_t seed = 0x9a17) {
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Conv2D>(1, 4, 3, /*stride=*/1, /*padding=*/1);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::MaxPool2D>(2);
  seq->emplace<nn::Flatten>();
  seq->emplace<nn::Dense>(4 * 4 * 4, 8);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::Dense>(8, 3);
  nn::Model m("QuantCnn", std::move(seq), {1, 8, 8}, 3);
  Rng rng(seed);
  m.init(rng);
  m.set_inference_only(true);
  return m;
}

TEST(Int8Calibrator, HostileActivationDistributionsProduceUsableScales) {
  nn::Model m = quant_cnn_model();
  CompiledCnn::CompileResult r = CompiledCnn::compile(m);
  ASSERT_NE(r.plan, nullptr);
  const int rows = 12, feats = 64;

  struct Dist {
    const char* name;
    float lo, hi;
  };
  // Constant, all-zero, denormal-adjacent and extreme-range calibration
  // sets: every one must yield finite positive scales for every GEMM
  // stage (the scale floor handles maxabs == 0) and valid predictions.
  const Dist dists[] = {
      {"zeros", 0.0f, 0.0f},
      {"constant", 0.5f, 0.5f},
      {"denormal-adjacent", -1e-38f, 1e-38f},
      {"extreme-range", -1e30f, 1e30f},
      {"mixed", -3.0f, 3.0f},
  };
  Rng rng(0xfe2);
  for (const Dist& d : dists) {
    std::vector<float> calib(static_cast<std::size_t>(rows) * feats);
    for (float& v : calib) v = rng.uniform(d.lo, d.hi);
    nn::CompileFailure why;
    std::unique_ptr<CompiledInt8> q =
        CompiledInt8::build(*r.plan, calib.data(), rows, &why);
    ASSERT_NE(q, nullptr) << d.name << ": " << why.detail;
    const std::vector<float>& scales = q->stage_scales();
    ASSERT_EQ(scales.size(), r.plan->stages().size()) << d.name;
    for (std::size_t i = 0; i < scales.size(); ++i) {
      if (!r.plan->stages()[i].is_gemm()) continue;
      EXPECT_TRUE(std::isfinite(scales[i]) && scales[i] > 0.0f)
          << d.name << " stage " << i << " scale " << scales[i];
    }
    const std::vector<int> preds = q->predict_rows(calib.data(), rows);
    for (int p : preds) {
      EXPECT_GE(p, 0) << d.name;
      EXPECT_LT(p, 3) << d.name;
    }
  }
}

TEST(Int8Calibrator, InputMaxabsMatchesAPerSampleWalkReference) {
  // A conv body with a Dense/BatchNorm head: the head runs stage-major
  // over all rows, the body one sample at a time. Each GEMM stage's entry
  // must be the max |input| of its layer over the rows, computed here by
  // walking the layers one sample at a time; other stages read 0.
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Conv2D>(1, 4, 3, /*stride=*/1, /*padding=*/1);
  seq->emplace<nn::BatchNorm>(4);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::MaxPool2D>(2);
  seq->emplace<nn::Flatten>();
  seq->emplace<nn::Dense>(4 * 4 * 4, 9);
  seq->emplace<nn::BatchNorm>(9);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::Dense>(9, 3);
  nn::Model m("CalibCnn", std::move(seq), {1, 8, 8}, 3);
  Rng rng(0xca1);
  m.init(rng);
  warm_and_lock(m, 0xca2);
  CompiledCnn::CompileResult r = CompiledCnn::compile(m);
  ASSERT_NE(r.plan, nullptr) << r.failure.detail;

  const int rows = 11, feats = 64;
  const nn::Tensor batch = random_batch(m, rows, 0xca3, -2.0f, 2.0f);
  auto* root = dynamic_cast<nn::Sequential*>(&m.root());
  ASSERT_NE(root, nullptr);
  std::vector<float> want_gemm;  // one entry per GEMM layer, in order
  for (int i = 0; i < rows; ++i) {
    nn::Tensor x({1, 1, 8, 8},
                 std::vector<float>(batch.raw() + i * feats,
                                    batch.raw() + (i + 1) * feats));
    std::size_t g = 0;
    for (std::size_t li = 0; li < root->size(); ++li) {
      nn::Layer& l = root->layer(li);
      if (dynamic_cast<nn::Conv2D*>(&l) != nullptr ||
          dynamic_cast<nn::Dense*>(&l) != nullptr) {
        if (want_gemm.size() <= g) want_gemm.push_back(0.0f);
        for (std::size_t e = 0; e < x.numel(); ++e)
          want_gemm[g] = std::max(want_gemm[g], std::fabs(x[e]));
        ++g;
      }
      x = l.forward(x, /*training=*/false);
    }
  }

  const std::vector<float> got =
      r.plan->calibrate_input_maxabs(batch.raw(), rows);
  ASSERT_EQ(got.size(), r.plan->stages().size());
  std::size_t g = 0;
  for (std::size_t si = 0; si < got.size(); ++si) {
    if (!r.plan->stages()[si].is_gemm()) {
      EXPECT_EQ(got[si], 0.0f) << "stage " << si;
      continue;
    }
    ASSERT_LT(g, want_gemm.size());
    EXPECT_EQ(got[si], want_gemm[g++]) << "stage " << si;
  }
  EXPECT_EQ(g, want_gemm.size());
}

TEST(Int8Calibrator, NonFiniteCalibrationOrWeightsAreTypedRefusals) {
  nn::Model m = quant_cnn_model();
  CompiledCnn::CompileResult r = CompiledCnn::compile(m);
  ASSERT_NE(r.plan, nullptr);

  std::vector<float> calib(64, 0.25f);
  calib[7] = std::numeric_limits<float>::quiet_NaN();
  nn::CompileFailure why;
  EXPECT_EQ(CompiledInt8::build(*r.plan, calib.data(), 1, &why), nullptr);
  EXPECT_EQ(why.code, CompileError::kNonFiniteStats);

  calib[7] = 0.25f;
  EXPECT_EQ(CompiledInt8::build(*r.plan, calib.data(), 0, &why), nullptr);
  EXPECT_EQ(why.code, CompileError::kBadDims);
  EXPECT_EQ(CompiledInt8::build(*r.plan, nullptr, 4, &why), nullptr);
  EXPECT_EQ(why.code, CompileError::kBadDims);

  // An infinite weight is caught at quantization time, not served.
  nn::Model bad = test::known_linear_model();
  std::vector<nn::Tensor> w;
  w.push_back(nn::Tensor({2, 2},
                         {1.0f, std::numeric_limits<float>::infinity(), 1.0f,
                          1.0f}));
  w.push_back(nn::Tensor({2}, {0.0f, 0.0f}));
  bad.set_weights(w);
  bad.set_inference_only(true);
  CompiledCnn::CompileResult br = CompiledCnn::compile(bad);
  ASSERT_NE(br.plan, nullptr);
  EXPECT_EQ(CompiledInt8::build(*br.plan, calib.data(), 4, &why), nullptr);
  EXPECT_EQ(why.code, CompileError::kNonFiniteStats);
}

// ----------------------------------------------------- int8 accuracy gate --

TEST(Int8Gate, ActivatesWhenTheQuantizedTierAgreesWithFloat) {
  nn::Model m = apps::make_base_cnn({1, 16, 16}, 4, 29);
  const nn::Tensor clean = random_batch(m, 64, 0x6a7e, 0.0f, 1.0f);
  m.set_inference_only(true);
  const std::vector<int> labels = m.predict(clean);

  ServeConfig cfg;
  cfg.name = "gatepass";
  cfg.quant.enable = true;
  cfg.quant.calib_samples = 32;
  ServeEngine eng(m.clone(), cfg);

  const double rejected_before =
      obs::counter("serve.gatepass.quant_rejected").value();
  const serve::QuantGateReport rep = eng.activate_int8_tier(clean, labels);
  EXPECT_TRUE(rep.attempted);
  EXPECT_TRUE(rep.activated) << rep.reason;
  EXPECT_TRUE(eng.int8_active());
  EXPECT_EQ(rep.reason, "activated");
  EXPECT_DOUBLE_EQ(rep.acc_float, 1.0);  // labels are the float predictions
  EXPECT_LE(rep.clean_delta, cfg.quant.tol_clean);
  EXPECT_EQ(obs::counter("serve.gatepass.quant_rejected").value(),
            rejected_before);
  EXPECT_EQ(eng.quant_report().reason, rep.reason);

  // The engine keeps serving through the quantized tier: every request is
  // batched (not degraded) and yields a valid class.
  std::vector<ServeResult> results(16);
  for (int i = 0; i < 16; ++i)
    eng.submit(clean.slice_batch(i),
               [&results, i](const ServeResult& r) { results[i] = r; });
  eng.drain();
  for (const ServeResult& r : results) {
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_GE(r.prediction, 0);
    EXPECT_LT(r.prediction, 4);
  }
}

TEST(Int8Gate, RefusesQuantizationHostileModelAndFallsBackToFloat) {
  // Decision margin (3e-5 on the second logit's weight) is orders of
  // magnitude below the int8 rounding step (max|w| / 127 ≈ 8e-3): both
  // weight rows quantize to identical integers, so the int8 decision rule
  // degenerates to sign(x0 + x1) while the float rule is sign(x1). Every
  // evaluation row below makes the two disagree → clean delta 1.0.
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Dense>(2, 2, /*bias=*/false);
  nn::Model m("HairlineMargin", std::move(seq), {2}, 2);
  std::vector<nn::Tensor> w;
  w.push_back(nn::Tensor({2, 2}, {1.0f, 1.0f, 1.0f, 1.00003f}));
  m.set_weights(w);

  nn::Tensor clean({8, 2});
  for (int i = 0; i < 8; ++i) {
    const float sign = i % 2 == 0 ? 1.0f : -1.0f;
    clean.at2(i, 0) = -0.8f * sign;
    clean.at2(i, 1) = 0.05f * sign;
  }
  nn::Model ref = m.clone();
  ref.set_inference_only(true);
  const std::vector<int> labels = ref.predict(clean);

  ServeConfig cfg;
  cfg.name = "gatefail";
  cfg.quant.enable = true;
  ServeEngine eng(std::move(m), cfg);
  const double rejected_before =
      obs::counter("serve.gatefail.quant_rejected").value();
  const serve::QuantGateReport rep = eng.activate_int8_tier(clean, labels);

  EXPECT_TRUE(rep.attempted);
  EXPECT_FALSE(rep.activated);
  EXPECT_FALSE(eng.int8_active());
  EXPECT_GT(rep.clean_delta, cfg.quant.tol_clean);
  EXPECT_NE(rep.reason.find("clean accuracy drifted"), std::string::npos)
      << rep.reason;
  EXPECT_EQ(obs::counter("serve.gatefail.quant_rejected").value(),
            rejected_before + 1.0);

  // Refused tier → the float path keeps serving, byte-identical to the
  // engine's own unbatched reference.
  std::vector<int> reference;
  for (int i = 0; i < 8; ++i)
    reference.push_back(eng.predict_sync(clean.slice_batch(i)));
  std::vector<ServeResult> results(8);
  for (int i = 0; i < 8; ++i)
    eng.submit(clean.slice_batch(i),
               [&results, i](const ServeResult& r) { results[i] = r; });
  eng.drain();
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(results[static_cast<std::size_t>(i)].prediction,
              reference[static_cast<std::size_t>(i)])
        << "request " << i;
}

TEST(Int8Gate, DisabledTierIsNotCountedAsARejection) {
  nn::Model m = quant_cnn_model();
  const nn::Tensor clean = random_batch(m, 8, 0xd15a, 0.0f, 1.0f);
  const std::vector<int> labels = m.predict(clean);
  ServeConfig cfg;
  cfg.name = "gateoff";  // quant.enable stays false
  ServeEngine eng(m.clone(), cfg);
  const double rejected_before =
      obs::counter("serve.gateoff.quant_rejected").value();
  const serve::QuantGateReport rep = eng.activate_int8_tier(clean, labels);
  EXPECT_FALSE(rep.attempted);
  EXPECT_FALSE(rep.activated);
  EXPECT_FALSE(eng.int8_active());
  EXPECT_EQ(obs::counter("serve.gateoff.quant_rejected").value(),
            rejected_before);
}

// --------------------------------------------- checkpoint serialization --

/// Fixed architecture for the checkpoint tests: exercises Conv2D weights,
/// DepthwiseConv2D weights and BatchNorm running-stat state (which only
/// save_state carries — it is not a Param).
nn::Model ckpt_cnn_model(std::uint64_t seed) {
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Conv2D>(2, 6, 3, /*stride=*/1, /*padding=*/1);
  seq->emplace<nn::BatchNorm>(6);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::DepthwiseConv2D>(6, 3, /*stride=*/1, /*padding=*/1);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::MaxPool2D>(2);
  seq->emplace<nn::Flatten>();
  seq->emplace<nn::Dense>(6 * 4 * 4, 13);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::Dense>(13, 3);
  nn::Model m("CkptCnn", std::move(seq), {2, 8, 8}, 3);
  Rng rng(seed);
  m.init(rng);
  return m;
}

TEST(ServeCheckpoint, ConvDepthwiseBnStateRoundTripsByteExact) {
  const std::string dir = ::testing::TempDir() + "orev_cnn_ckpt";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/cnn.ckpt";

  nn::Model saved = ckpt_cnn_model(7);
  warm_and_lock(saved, 0x3a1e);  // BN stats off init before saving
  ASSERT_TRUE(saved.save(path));

  // Different init seed: every weight and BN stat must come from the file.
  nn::Model loaded = ckpt_cnn_model(8);
  ASSERT_TRUE(loaded.load(path));
  loaded.set_inference_only(true);

  const nn::Tensor batch = random_batch(saved, 11, 0xc4e);
  const nn::Tensor a = saved.forward(batch, /*training=*/false);
  const nn::Tensor b = loaded.forward(batch, /*training=*/false);
  EXPECT_EQ(std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)), 0)
      << "layer-walk logits drifted across the checkpoint round trip";

  CompiledCnn::CompileResult ps = CompiledCnn::compile(saved);
  CompiledCnn::CompileResult pl = CompiledCnn::compile(loaded);
  ASSERT_NE(ps.plan, nullptr);
  ASSERT_NE(pl.plan, nullptr);
  EXPECT_EQ(tensor_digest(ps.plan->logits(batch)),
            tensor_digest(pl.plan->logits(batch)));
}

TEST(ServeCheckpoint, GoldenCnnCheckpointPredictionsAreLocked) {
  const std::string ckpt_path =
      std::string(OREV_GOLDEN_DIR) + "/cnn_serve.ckpt";
  const std::string csv_path =
      std::string(OREV_GOLDEN_DIR) + "/cnn_serve_preds.csv";

  if (std::getenv("OREV_UPDATE_GOLDEN") != nullptr) {
    nn::Model gen = ckpt_cnn_model(42);
    // The committed golden predates BN affine randomization.
    warm_and_lock(gen, 0x601d, /*batch=*/8, /*random_affine=*/false);
    ASSERT_TRUE(gen.save(ckpt_path)) << "failed to write " << ckpt_path;
  }

  nn::Model m = ckpt_cnn_model(0);  // weights replaced by the golden file
  ASSERT_TRUE(m.load(ckpt_path))
      << "missing/incompatible golden checkpoint " << ckpt_path
      << " (regenerate with OREV_UPDATE_GOLDEN=1)";
  m.set_inference_only(true);
  CompiledCnn::CompileResult r = CompiledCnn::compile(m);
  ASSERT_NE(r.plan, nullptr) << r.failure.detail;

  const nn::Tensor batch = random_batch(m, 12, 0x601d2, 0.0f, 1.0f);
  const nn::Tensor lg = r.plan->logits(batch);
  EXPECT_EQ(r.plan->predict_rows(batch.raw(), batch.dim(0)), m.predict(batch));

  CsvWriter csv;
  csv.header({"sample", "prediction"});
  const std::vector<int> preds =
      r.plan->predict_rows(batch.raw(), batch.dim(0));
  for (std::size_t i = 0; i < preds.size(); ++i)
    csv.row(static_cast<int>(i), preds[i]);
  csv.row("logits_sha256", tensor_digest(lg));

  if (std::getenv("OREV_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(csv.save(csv_path)) << "failed to write " << csv_path;
    SUCCEED() << "regenerated " << ckpt_path << " and " << csv_path;
    return;
  }
  std::ifstream in(csv_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << csv_path
                         << " (run with OREV_UPDATE_GOLDEN=1 to create)";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), csv.str())
      << "golden CNN checkpoint predictions drifted; if the numerics change "
         "is intentional, regenerate with OREV_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace orev
