// Layer unit tests: output shapes, known-value checks, and — most
// importantly — numerical gradient verification of every backward pass
// (central differences against the analytic input and parameter
// gradients). A broken backward would silently corrupt every attack in
// the library, so these are the load-bearing tests of src/nn.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "util/thread_pool.hpp"

namespace orev::nn {
namespace {

/// Scalar objective L = Σ out ⊙ cot for a fixed random cotangent; its
/// input gradient is layer.backward(cot).
double objective(Layer& layer, const Tensor& x, const Tensor& cot) {
  const Tensor out = layer.forward(x, /*training=*/true);
  double acc = 0.0;
  for (std::size_t i = 0; i < out.numel(); ++i)
    acc += double(out[i]) * cot[i];
  return acc;
}

/// Verify dL/dInput at `checks` random coordinates.
void check_input_gradient(Layer& layer, Tensor x, double tol = 5e-2,
                          int checks = 12, float h = 1e-2f) {
  Rng rng(1234);
  const Tensor out = layer.forward(x, /*training=*/true);
  const Tensor cot = Tensor::randn(out.shape(), rng);
  for (Param* p : layer.params()) p->zero_grad();
  const Tensor analytic = layer.backward(cot);
  ASSERT_EQ(analytic.shape(), x.shape());

  for (int c = 0; c < checks; ++c) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(x.numel()) - 1));
    Tensor xp = x;
    xp[i] += h;
    Tensor xm = x;
    xm[i] -= h;
    const double numeric =
        (objective(layer, xp, cot) - objective(layer, xm, cot)) / (2.0 * h);
    EXPECT_NEAR(analytic[i], numeric,
                tol * std::max(1.0, std::abs(numeric)))
        << "input coordinate " << i;
  }
  // Restore forward cache for any follow-up backward call.
  layer.forward(x, /*training=*/true);
}

/// Verify dL/dParam at `checks` random coordinates of every parameter.
void check_param_gradients(Layer& layer, const Tensor& x, double tol = 5e-2,
                           int checks = 8, float h = 1e-2f) {
  Rng rng(4321);
  const Tensor out = layer.forward(x, /*training=*/true);
  const Tensor cot = Tensor::randn(out.shape(), rng);
  for (Param* p : layer.params()) p->zero_grad();
  layer.backward(cot);

  for (Param* p : layer.params()) {
    for (int c = 0; c < checks; ++c) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(p->value.numel()) - 1));
      const float saved = p->value[i];
      p->value[i] = saved + h;
      const double fp = objective(layer, x, cot);
      p->value[i] = saved - h;
      const double fm = objective(layer, x, cot);
      p->value[i] = saved;
      const double numeric = (fp - fm) / (2.0 * h);
      EXPECT_NEAR(p->grad[i], numeric,
                  tol * std::max(1.0, std::abs(numeric)))
          << "param coordinate " << i;
    }
  }
}

Tensor random_input(Shape s, std::uint64_t seed = 77) {
  Rng rng(seed);
  return Tensor::randn(std::move(s), rng, 0.7f);
}

// ------------------------------------------------------------------ Dense

TEST(Dense, OutputShapeAndBias) {
  Dense d(3, 2);
  Rng rng(1);
  d.init(rng);
  const Tensor y = d.forward(random_input({4, 3}), false);
  EXPECT_EQ(y.shape(), (Shape{4, 2}));
}

TEST(Dense, RejectsWrongInputWidth) {
  Dense d(3, 2);
  EXPECT_THROW(d.forward(Tensor({4, 5}), false), CheckError);
}

TEST(Dense, KnownLinearMap) {
  Dense d(2, 1);
  // y = 2 x0 - x1 + 0.5
  auto params = d.params();
  params[0]->value = Tensor({1, 2}, {2.0f, -1.0f});
  params[1]->value = Tensor({1}, {0.5f});
  const Tensor y = d.forward(Tensor({1, 2}, {3.0f, 4.0f}), false);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(Dense, GradientCheck) {
  Dense d(4, 3);
  Rng rng(2);
  d.init(rng);
  check_input_gradient(d, random_input({5, 4}));
  check_param_gradients(d, random_input({5, 4}));
}

TEST(Dense, NoBiasVariantHasOneParam) {
  Dense d(4, 3, /*bias=*/false);
  EXPECT_EQ(d.params().size(), 1u);
}

// ----------------------------------------------------------------- Conv2D

TEST(Conv2D, OutputShape) {
  Conv2D c(2, 5, 3, 1, 1);
  Rng rng(3);
  c.init(rng);
  const Tensor y = c.forward(random_input({2, 2, 8, 8}), false);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 8, 8}));
}

TEST(Conv2D, StrideAndPaddingShapes) {
  Conv2D c(1, 1, 3, 2, 1);
  Rng rng(4);
  c.init(rng);
  EXPECT_EQ(c.forward(random_input({1, 1, 9, 9}), false).shape(),
            (Shape{1, 1, 5, 5}));
}

TEST(Conv2D, IdentityKernelReproducesInput) {
  Conv2D c(1, 1, 3, 1, 1);
  auto params = c.params();
  Tensor w({1, 9});
  w[4] = 1.0f;  // centre tap
  params[0]->value = w;
  params[1]->value.fill(0.0f);
  const Tensor x = random_input({1, 1, 6, 6});
  const Tensor y = c.forward(x, false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6f);
}

TEST(Conv2D, ChannelMismatchThrows) {
  Conv2D c(3, 4, 3);
  EXPECT_THROW(c.forward(Tensor({1, 2, 8, 8}), false), CheckError);
}

TEST(Conv2D, GradientCheck) {
  Conv2D c(2, 3, 3, 1, 1);
  Rng rng(5);
  c.init(rng);
  check_input_gradient(c, random_input({2, 2, 5, 5}));
  check_param_gradients(c, random_input({2, 2, 5, 5}));
}

TEST(Conv2D, StridedGradientCheck) {
  Conv2D c(1, 2, 3, 2, 1);
  Rng rng(6);
  c.init(rng);
  check_input_gradient(c, random_input({1, 1, 7, 7}));
  check_param_gradients(c, random_input({1, 1, 7, 7}));
}

// ------------------------------------------------- Conv2D reference --
//
// Conv2D runs on the compiled plans' kernels (nn/kernels.hpp): a
// packed-plane forward (pack_conv_input into the pixel-lane conv_stage),
// and a row-axpy backward that rebuilds each sample's patch matrix from the
// cached input. The reference below is the layer's earlier formulation —
// im2col, then matmul_bt / matmul_at / matmul as plain loops — kept here
// so the kernels are checked against an implementation they share no
// code with. Every output, dx, dW and db must match it bit for bit.

struct ConvReference {
  Tensor y, dx, dw, db;
};

ConvReference conv_reference(const Tensor& x, const Tensor& wt,
                             const Tensor& b, bool has_bias, int k,
                             int stride, int pad, const Tensor* grad_out) {
  const int n = x.dim(0), c_in = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int out_ch = wt.dim(0), patch = c_in * k * k;
  const int oh = (h + 2 * pad - k) / stride + 1;
  const int ow = (w + 2 * pad - k) / stride + 1;
  const int pix = oh * ow;
  ConvReference r{Tensor({n, out_ch, oh, ow}), Tensor(x.shape()),
                  Tensor({out_ch, patch}), Tensor({out_ch})};
  Tensor total_w({out_ch, patch}), total_b({out_ch});
  for (int i = 0; i < n; ++i) {
    // im2col: [pix, patch], one row per output position.
    Tensor cols({pix, patch});
    for (int p = 0; p < pix; ++p) {
      int col = 0;
      for (int c = 0; c < c_in; ++c)
        for (int ky = 0; ky < k; ++ky)
          for (int kx = 0; kx < k; ++kx, ++col) {
            const int iy = p / ow * stride - pad + ky;
            const int ix = p % ow * stride - pad + kx;
            cols.at2(p, col) = iy >= 0 && iy < h && ix >= 0 && ix < w
                                   ? x.at4(i, c, iy, ix)
                                   : 0.0f;
          }
    }
    // Forward: matmul_bt(cols, W) with double accumulation, transposed
    // into channel planes, then + bias (0.0f when bias-less).
    for (int p = 0; p < pix; ++p)
      for (int c = 0; c < out_ch; ++c) {
        double acc = 0.0;
        for (int kk = 0; kk < patch; ++kk)
          acc += double(cols.at2(p, kk)) * double(wt.at2(c, kk));
        r.y[(std::size_t(i) * out_ch + c) * pix + p] =
            static_cast<float>(acc) + (has_bias ? b[c] : 0.0f);
      }
    if (grad_out == nullptr) continue;
    const float* g = grad_out->raw() + std::size_t(i) * out_ch * pix;
    // dW_i = matmul_at(G, cols), zero multipliers skipped; folded into a
    // per-sample chunk sum, then into the total in sample order.
    Tensor dwi({out_ch, patch});
    for (int c = 0; c < out_ch; ++c)
      for (int p = 0; p < pix; ++p) {
        const float av = g[std::size_t(c) * pix + p];
        if (av == 0.0f) continue;
        for (int j = 0; j < patch; ++j) dwi.at2(c, j) += av * cols.at2(p, j);
      }
    Tensor chunk_w({out_ch, patch}), chunk_b({out_ch});
    chunk_w += dwi;
    if (has_bias)
      for (int p = 0; p < pix; ++p)
        for (int c = 0; c < out_ch; ++c)
          chunk_b[c] += g[std::size_t(c) * pix + p];
    total_w += chunk_w;
    total_b += chunk_b;
    // dcols = matmul(G, W), then col2im in ascending output position.
    for (int p = 0; p < pix; ++p) {
      std::vector<float> row(static_cast<std::size_t>(patch), 0.0f);
      for (int c = 0; c < out_ch; ++c) {
        const float av = g[std::size_t(c) * pix + p];
        if (av == 0.0f) continue;
        for (int j = 0; j < patch; ++j) row[j] += av * wt.at2(c, j);
      }
      int col = 0;
      for (int c = 0; c < c_in; ++c)
        for (int ky = 0; ky < k; ++ky)
          for (int kx = 0; kx < k; ++kx, ++col) {
            const int iy = p / ow * stride - pad + ky;
            const int ix = p % ow * stride - pad + kx;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w)
              r.dx.at4(i, c, iy, ix) += row[col];
          }
    }
  }
  // The layer's gradients start at zero and take the totals with +=.
  r.dw += total_w;
  if (has_bias) r.db += total_b;
  return r;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

/// Uniform values with exact ±0 mixed in at rate `zero_rate`.
Tensor with_zeros(Shape s, Rng& rng, float zero_rate) {
  Tensor t(std::move(s));
  for (float& v : t.data()) {
    const float u = rng.uniform();
    v = u < zero_rate / 2   ? 0.0f
        : u < zero_rate     ? -0.0f
                            : rng.uniform(-1.5f, 1.5f);
  }
  return t;
}

/// One Conv2D against conv_reference at 1 and 4 threads: the training
/// forward, dx, dW and db, then the inference forward, bit for bit.
/// Returns the number of thread counts checked.
int check_conv_layer(int c_in, int out_ch, int k, int stride, int pad, int h,
                     int w, int n, bool bias, Rng& rng) {
  Conv2D layer(c_in, out_ch, k, stride, pad, bias);
  layer.init(rng);
  if (bias)
    for (float& v : layer.params()[1]->value.data())
      v = rng.uniform(-0.5f, 0.5f);
  const Tensor wt = layer.params()[0]->value;
  const Tensor b = bias ? layer.params()[1]->value : Tensor({1});
  const Tensor x = with_zeros({n, c_in, h, w}, rng, 0.2f);
  const Tensor gout = with_zeros(
      {n, out_ch, layer.out_height(h), layer.out_width(w)}, rng, 0.4f);
  const ConvReference ref =
      conv_reference(x, wt, b, bias, k, stride, pad, &gout);
  std::ostringstream where;
  where << "k=" << k << " s=" << stride << " p=" << pad << " bias=" << bias
        << " n=" << n << " c_in=" << c_in << " out=" << out_ch << " " << h
        << "x" << w;

  const int saved_threads = util::num_threads();
  int checked = 0;
  for (const int threads : {1, 4}) {
    util::set_num_threads(threads);
    // Training mode: forward caches, backward against the reference
    // gradients.
    layer.set_inference_mode(false);
    for (Param* p : layer.params()) p->zero_grad();
    EXPECT_TRUE(same_bytes(layer.forward(x, true), ref.y))
        << "training forward, " << where.str() << " t=" << threads;
    EXPECT_TRUE(same_bytes(layer.backward(gout), ref.dx))
        << "dx, " << where.str() << " t=" << threads;
    EXPECT_TRUE(same_bytes(layer.params()[0]->grad, ref.dw))
        << "dW, " << where.str() << " t=" << threads;
    if (bias) {
      EXPECT_TRUE(same_bytes(layer.params()[1]->grad, ref.db))
          << "db, " << where.str() << " t=" << threads;
    }
    // Inference mode: no caches, same output.
    layer.set_inference_mode(true);
    EXPECT_TRUE(same_bytes(layer.forward(x, false), ref.y))
        << "inference forward, " << where.str() << " t=" << threads;
    ++checked;
  }
  util::set_num_threads(saved_threads);
  return checked;
}

TEST(Conv2DReference, ForwardAndGradientsBitExactAcrossShapesAndThreads) {
  Rng rng(0xc2d);
  int checked = 0;
  for (int k = 1; k <= 3; ++k) {
    for (int stride = 1; stride <= 2; ++stride) {
      for (int pad = 0; pad <= 1; ++pad) {
        for (const bool bias : {true, false}) {
          for (const int n : {1, 3, 32}) {
            const int c_in = rng.uniform_int(1, 3);
            const int out_ch = rng.uniform_int(1, 7);
            const int h = rng.uniform_int(k, 11);
            const int w = rng.uniform_int(k, 11);
            checked += check_conv_layer(c_in, out_ch, k, stride, pad, h, w, n,
                                        bias, rng);
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 144);
}

TEST(Conv2DReference, StrideTwoZooModelConvsMatchTheReference) {
  // Every Conv2D of make_mini_resnet and make_mini_mobilenet at the
  // 1×24×24 spectrogram shape, with the input extent each one sees:
  // the stride-2 3×3 convs and 1×1 shortcut run on stride² phase planes.
  struct Geometry {
    int c_in, out_ch, k, stride, pad, hw;
  };
  const Geometry zoo[] = {
      {1, 8, 3, 1, 1, 24},   // MiniResNet stem
      {8, 8, 3, 1, 1, 12},   // identity block (twice)
      {8, 16, 3, 2, 1, 12},  // downsampling block, first conv
      {16, 16, 3, 1, 1, 6},  // downsampling block, second conv
      {8, 16, 1, 2, 0, 12},  // projected shortcut
      {1, 8, 3, 2, 1, 24},   // MiniMobileNet stem
      {8, 16, 1, 1, 0, 12},  // pointwise, block 1
      {16, 24, 1, 1, 0, 6},  // pointwise, block 2
  };
  Rng rng(0x5172);
  int checked = 0;
  for (const Geometry& g : zoo)
    for (const bool bias : {true, false})
      checked += check_conv_layer(g.c_in, g.out_ch, g.k, g.stride, g.pad,
                                  g.hw, g.hw, /*n=*/3, bias, rng);
  EXPECT_EQ(checked, 32);
}

// -------------------------------------------------------- DepthwiseConv2D

TEST(DepthwiseConv2D, PreservesChannelCount) {
  DepthwiseConv2D c(3, 3, 1, 1);
  Rng rng(7);
  c.init(rng);
  EXPECT_EQ(c.forward(random_input({2, 3, 6, 6}), false).shape(),
            (Shape{2, 3, 6, 6}));
}

TEST(DepthwiseConv2D, GradientCheck) {
  DepthwiseConv2D c(2, 3, 1, 1);
  Rng rng(8);
  c.init(rng);
  check_input_gradient(c, random_input({2, 2, 5, 5}));
  check_param_gradients(c, random_input({2, 2, 5, 5}));
}

TEST(DepthwiseConv2D, StridedGradientCheck) {
  DepthwiseConv2D c(2, 3, 2, 1);
  Rng rng(9);
  c.init(rng);
  check_input_gradient(c, random_input({1, 2, 7, 7}));
}

// -------------------------------------------------------------- MaxPool2D

TEST(MaxPool2D, SelectsMaxima) {
  MaxPool2D p(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  const Tensor y = p.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_EQ(y[0], 5.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D p(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  p.forward(x, false);
  const Tensor dx = p.backward(Tensor({1, 1, 1, 1}, 2.0f));
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 2.0f);
  EXPECT_EQ(dx[2], 0.0f);
}

TEST(MaxPool2D, NoMaxWindowKeepsItsGradientInItsOwnSample) {
  // Sample 1's second window is all NaN, so it has no strict max. Its
  // gradient must land on its own first tap, leaving sample 0's dx equal
  // to what sample 0 gets on its own.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> s0 = {1, 5, 7, 2, 3, 2, 4, 6};
  std::vector<float> both = s0;
  both.insert(both.end(), {0.5f, 0.25f, nan, nan, 0.75f, 0.0f, nan, nan});
  MaxPool2D alone(2), batch(2);
  alone.forward(Tensor({1, 1, 2, 4}, s0), false);
  const Tensor dx_alone = alone.backward(Tensor({1, 1, 1, 2}, 1.0f));
  const Tensor y = batch.forward(Tensor({2, 1, 2, 4}, both), false);
  EXPECT_EQ(y[3], -std::numeric_limits<float>::infinity());
  const Tensor dx = batch.backward(Tensor({2, 1, 1, 2}, 1.0f));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(dx[i], dx_alone[i]) << i;
  // Sample 1: its first window's max (0.75), then the NaN window's first
  // tap (row 0, column 2).
  const std::vector<float> want1 = {0, 0, 1, 0, 1, 0, 0, 0};
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(dx[8 + i], want1[i]) << i;
}

TEST(MaxPool2D, GradientCheck) {
  MaxPool2D p(2);
  check_input_gradient(p, random_input({2, 2, 6, 6}));
}

// ----------------------------------------------------- Avg / Global pools

TEST(AvgPool2D, Averages) {
  AvgPool2D p(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 6});
  EXPECT_FLOAT_EQ(p.forward(x, false)[0], 3.0f);
}

TEST(AvgPool2D, RequiresDivisibleExtent) {
  AvgPool2D p(2);
  EXPECT_THROW(p.forward(Tensor({1, 1, 3, 4}), false), CheckError);
}

TEST(AvgPool2D, GradientCheck) {
  AvgPool2D p(2);
  check_input_gradient(p, random_input({1, 2, 4, 4}));
}

TEST(GlobalAvgPool, ReducesSpatialDims) {
  GlobalAvgPool p;
  Tensor x({1, 2, 2, 2});
  for (std::size_t i = 0; i < 4; ++i) x[i] = 2.0f;        // channel 0
  for (std::size_t i = 4; i < 8; ++i) x[i] = 6.0f;        // channel 1
  const Tensor y = p.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 6.0f);
}

TEST(GlobalAvgPool, GradientCheck) {
  GlobalAvgPool p;
  check_input_gradient(p, random_input({2, 3, 4, 4}));
}

// ------------------------------------------------------------ Activations

TEST(ReLU, ClampsNegatives) {
  ReLU r;
  const Tensor y = r.forward(Tensor({1, 3}, std::vector<float>{-1, 0, 2}),
                             false);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
}

TEST(ReLU, GradientCheck) {
  ReLU r;
  // Shift inputs away from the kink at zero.
  Tensor x = random_input({3, 4});
  for (std::size_t i = 0; i < x.numel(); ++i)
    if (std::abs(x[i]) < 0.1f) x[i] += 0.2f;
  check_input_gradient(r, x);
}

TEST(LeakyReLU, NegativeSlope) {
  LeakyReLU r(0.1f);
  const Tensor y = r.forward(Tensor({1, 2}, std::vector<float>{-10, 10}),
                             false);
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], 10.0f);
}

TEST(Sigmoid, KnownValuesAndRange) {
  Sigmoid s;
  const Tensor y =
      s.forward(Tensor({1, 3}, std::vector<float>{0.0f, 100.0f, -100.0f}),
                false);
  EXPECT_FLOAT_EQ(y[0], 0.5f);
  EXPECT_NEAR(y[1], 1.0f, 1e-6f);
  EXPECT_NEAR(y[2], 0.0f, 1e-6f);
}

TEST(Sigmoid, GradientCheck) {
  Sigmoid s;
  check_input_gradient(s, random_input({3, 4}));
}

// ---------------------------------------------------------------- Flatten

TEST(Flatten, RoundTrip) {
  Flatten f;
  const Tensor y = f.forward(random_input({2, 3, 4, 5}), false);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  const Tensor dx = f.backward(y);
  EXPECT_EQ(dx.shape(), (Shape{2, 3, 4, 5}));
}

// ---------------------------------------------------------------- Dropout

TEST(Dropout, IdentityAtInference) {
  Dropout d(0.5f);
  const Tensor x = random_input({2, 8});
  const Tensor y = d.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, ZerosRoughlyRateFraction) {
  Dropout d(0.5f);
  const Tensor x = Tensor({1, 4000}, 1.0f);
  const Tensor y = d.forward(x, /*training=*/true);
  int zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i)
    if (y[i] == 0.0f) ++zeros;
  EXPECT_NEAR(zeros / 4000.0, 0.5, 0.05);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout d(0.5f);
  const Tensor x = Tensor({1, 100}, 1.0f);
  const Tensor y = d.forward(x, true);
  const Tensor dx = d.backward(Tensor({1, 100}, 1.0f));
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(dx[i], y[i]);
}

TEST(Dropout, InvalidRateThrows) {
  EXPECT_THROW(Dropout(1.0f), CheckError);
  EXPECT_THROW(Dropout(-0.1f), CheckError);
}

// -------------------------------------------------------------- BatchNorm

TEST(BatchNorm, NormalisesTrainingBatch) {
  BatchNorm bn(2);
  Rng rng(10);
  Tensor x = Tensor::randn({8, 2, 3, 3}, rng, 3.0f);
  const Tensor y = bn.forward(x, /*training=*/true);
  // Per-channel mean ≈ 0, variance ≈ 1.
  for (int c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    int count = 0;
    for (int n = 0; n < 8; ++n)
      for (int h = 0; h < 3; ++h)
        for (int w = 0; w < 3; ++w) {
          const float v = y.at4(n, c, h, w);
          sum += v;
          sq += double(v) * v;
          ++count;
        }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm, GradientCheck4D) {
  BatchNorm bn(2);
  check_input_gradient(bn, random_input({4, 2, 3, 3}), /*tol=*/8e-2);
  check_param_gradients(bn, random_input({4, 2, 3, 3}), /*tol=*/8e-2);
}

TEST(BatchNorm, GradientCheck2D) {
  BatchNorm bn(5);
  check_input_gradient(bn, random_input({6, 5}), /*tol=*/8e-2);
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  BatchNorm bn(1);
  Rng rng(11);
  // Train on many batches with mean 4.
  for (int i = 0; i < 50; ++i) {
    Tensor x = Tensor::randn({16, 1}, rng);
    for (std::size_t j = 0; j < x.numel(); ++j) x[j] += 4.0f;
    bn.forward(x, /*training=*/true);
  }
  // At inference an input of exactly 4 should normalise near 0.
  const Tensor y = bn.forward(Tensor({1, 1}, 4.0f), /*training=*/false);
  EXPECT_NEAR(y[0], 0.0f, 0.3f);
}

// ------------------------------------------------------------------ blocks

TEST(Sequential, ChainsLayers) {
  Sequential s;
  s.emplace<Dense>(3, 4).emplace<ReLU>().emplace<Dense>(4, 2);
  Rng rng(12);
  s.init(rng);
  EXPECT_EQ(s.forward(random_input({5, 3}), false).shape(), (Shape{5, 2}));
  EXPECT_EQ(s.params().size(), 4u);
}

TEST(Sequential, GradientCheck) {
  Sequential s;
  s.emplace<Dense>(3, 4).emplace<Sigmoid>().emplace<Dense>(4, 2);
  Rng rng(13);
  s.init(rng);
  check_input_gradient(s, random_input({4, 3}));
  check_param_gradients(s, random_input({4, 3}));
}

TEST(Residual, IdentityShortcutAddsInput) {
  // Inner path with zero weights → output equals input.
  auto inner = std::make_unique<Dense>(3, 3);
  inner->params()[0]->value.fill(0.0f);
  inner->params()[1]->value.fill(0.0f);
  Residual r(std::move(inner));
  const Tensor x = random_input({2, 3});
  const Tensor y = r.forward(x, false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Residual, GradientCheckWithProjection) {
  auto inner = std::make_unique<Dense>(3, 4);
  auto proj = std::make_unique<Dense>(3, 4);
  Rng rng(14);
  inner->init(rng);
  proj->init(rng);
  Residual r(std::move(inner), std::move(proj));
  check_input_gradient(r, random_input({3, 3}));
  check_param_gradients(r, random_input({3, 3}));
}

TEST(Residual, MismatchedPathsThrow) {
  auto inner = std::make_unique<Dense>(3, 4);
  Rng rng(15);
  inner->init(rng);
  Residual r(std::move(inner));  // identity shortcut keeps width 3
  EXPECT_THROW(r.forward(random_input({2, 3}), false), CheckError);
}

TEST(DenseConcat, GrowsChannels) {
  auto inner = std::make_unique<Conv2D>(2, 3, 3, 1, 1);
  Rng rng(16);
  inner->init(rng);
  DenseConcat d(std::move(inner));
  const Tensor y = d.forward(random_input({1, 2, 5, 5}), false);
  EXPECT_EQ(y.shape(), (Shape{1, 5, 5, 5}));
}

TEST(DenseConcat, PassthroughChannelsAreVerbatim) {
  auto inner = std::make_unique<Conv2D>(1, 1, 3, 1, 1);
  Rng rng(17);
  inner->init(rng);
  DenseConcat d(std::move(inner));
  const Tensor x = random_input({1, 1, 4, 4});
  const Tensor y = d.forward(x, false);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(y[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)]);
}

TEST(DenseConcat, GradientCheck) {
  auto inner = std::make_unique<Conv2D>(2, 2, 3, 1, 1);
  Rng rng(18);
  inner->init(rng);
  DenseConcat d(std::move(inner));
  check_input_gradient(d, random_input({2, 2, 4, 4}));
  check_param_gradients(d, random_input({2, 2, 4, 4}));
}

}  // namespace
}  // namespace orev::nn
