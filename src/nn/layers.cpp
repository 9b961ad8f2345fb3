#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "nn/kernels.hpp"
#include "nn/serialize.hpp"
#include "util/thread_pool.hpp"

namespace orev::nn {

namespace {

/// He (Kaiming) normal initialisation stddev for fan_in inputs.
float he_stddev(int fan_in) {
  return std::sqrt(2.0f / static_cast<float>(std::max(fan_in, 1)));
}

}  // namespace

// ---------------------------------------------------------------- Dense

Dense::Dense(int in_features, int out_features, bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      weight_({out_features, in_features}),
      bias_({out_features}) {
  OREV_CHECK(in_features > 0 && out_features > 0, "Dense dims must be > 0");
}

void Dense::init(Rng& rng) {
  const float s = he_stddev(in_);
  for (float& v : weight_.value.data()) v = rng.normal(0.0f, s);
  bias_.value.fill(0.0f);
}

std::vector<Param*> Dense::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Tensor Dense::forward(const Tensor& x, bool /*training*/) {
  OREV_CHECK(x.rank() == 2 && x.dim(1) == in_,
             "Dense input must be [N, " + std::to_string(in_) + "], got " +
                 shape_str(x.shape()));
  if (!inference_mode_) cached_input_ = x;
  Tensor y = matmul_bt(x, weight_.value);  // [N, out]
  if (has_bias_) {
    const int n = y.dim(0);
    float* py = y.raw();
    const float* pb = bias_.value.raw();
    for (int i = 0; i < n; ++i) {
      float* yrow = py + static_cast<std::size_t>(i) * out_;
      for (int j = 0; j < out_; ++j) yrow[j] += pb[j];
    }
  }
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  OREV_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_,
             "Dense backward gradient shape mismatch");
  // dW = grad_out^T @ x ; dx = grad_out @ W ; db = column sums.
  weight_.grad += matmul_at(grad_out, cached_input_);
  if (has_bias_) {
    const int n = grad_out.dim(0);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < out_; ++j) bias_.grad[j] += grad_out.at2(i, j);
  }
  return matmul(grad_out, weight_.value);
}

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int stride,
               int padding, bool bias)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      has_bias_(bias),
      weight_({out_channels, in_channels * kernel * kernel}),
      bias_({out_channels}) {
  OREV_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
             "Conv2D parameters must be positive");
  OREV_CHECK(padding >= 0, "Conv2D padding must be non-negative");
}

void Conv2D::init(Rng& rng) {
  const float s = he_stddev(in_ch_ * k_ * k_);
  for (float& v : weight_.value.data()) v = rng.normal(0.0f, s);
  bias_.value.fill(0.0f);
}

std::vector<Param*> Conv2D::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Tensor Conv2D::forward(const Tensor& x, bool /*training*/) {
  OREV_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
             "Conv2D input must be [N, " + std::to_string(in_ch_) +
                 ", H, W], got " + shape_str(x.shape()));
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_height(h), ow = out_width(w);
  OREV_CHECK(oh > 0 && ow > 0, "Conv2D output collapses to zero size");

  if (!inference_mode_) cached_input_ = x;
  if (geom_.h != h || geom_.w != w)
    geom_ = kernels::conv_geometry(in_ch_, h, w, k_, stride_, pad_);
  // Weights change under training, so they are widened afresh each call.
  const std::span<const float> wv = weight_.value.data();
  wide_weight_.assign(wv.begin(), wv.end());
  // The bias is added unconditionally: +0.0f is not a no-op in IEEE
  // arithmetic, and the compiled plans add it the same way. A bias-less
  // layer's bias_ stays all zeros — it is never in params(), so nothing
  // trains or loads it.
  kernels::ConvEpilogue epi;
  epi.bias = bias_.value.raw();

  Tensor out({n, out_ch_, oh, ow});
  // Sample-parallel: each sample is packed into thread scratch and
  // convolved into its own output planes by the compiled plans' conv
  // kernel — double(x)·double(w) summed in ascending patch order, one
  // cast to float, then + b — so results are identical at every thread
  // count and to the serving plans.
  const std::size_t in_n = static_cast<std::size_t>(in_ch_) * h * w;
  const std::size_t out_n = static_cast<std::size_t>(out_ch_) * oh * ow;
  util::parallel_for(0, n, 1, [&](std::int64_t i) {
    kernels::conv_forward(x.raw() + static_cast<std::size_t>(i) * in_n, geom_,
                          wide_weight_.data(), epi, out_ch_,
                          out.raw() + static_cast<std::size_t>(i) * out_n);
  });
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  const int n = cached_input_.dim(0);
  const int h = cached_input_.dim(2), w = cached_input_.dim(3);
  const int oh = out_height(h), ow = out_width(w);
  OREV_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                 grad_out.dim(1) == out_ch_ && grad_out.dim(2) == oh &&
                 grad_out.dim(3) == ow,
             "Conv2D backward gradient shape mismatch");

  const int patch = in_ch_ * k_ * k_;
  const int ohw = oh * ow;
  const std::size_t cols_n = static_cast<std::size_t>(ohw) * patch;
  const std::size_t dw_n = static_cast<std::size_t>(out_ch_) * patch;
  const float* wt = weight_.value.raw();
  Tensor dx(cached_input_.shape());
  if (geom_.h != h || geom_.w != w)
    geom_ = kernels::conv_geometry(in_ch_, h, w, k_, stride_, pad_);

  // Sample-parallel with an ordered reduction for the shared parameter
  // gradients: each chunk fills its own accumulator, and the chunk sums
  // are folded into weight_/bias_ grads in ascending sample order — the
  // decomposition depends only on n, so the result is bit-identical at
  // every thread count.
  struct GradAcc {
    Tensor w, b;
  };
  GradAcc sum = util::parallel_reduce_ordered(
      0, n, 1,
      [&] {
        return GradAcc{Tensor({out_ch_, patch}), Tensor({out_ch_})};
      },
      [&](GradAcc& acc, std::int64_t i) {
        // Thread scratch: the sample's [oH*oW, patch] patch matrix, rebuilt
        // from the cached input, then its [out_ch, patch] weight gradient.
        float* cols = kernels::thread_scratch(cols_n + dw_n);
        float* dw = cols + cols_n;
        kernels::im2col_f32(
            cached_input_.raw() + static_cast<std::size_t>(i) * in_ch_ * h * w,
            in_ch_, h, w, k_, stride_, pad_, oh, ow, cols);
        // grad_out's [out_ch, oH*oW] planes are G^T, read in place.
        const float* g =
            grad_out.raw() + static_cast<std::size_t>(i) * out_ch_ * ohw;

        // dW_i = G^T · cols: row c accumulates plane c's pixels in
        // ascending order; then added into the chunk sum as its own step.
        std::fill(dw, dw + dw_n, 0.0f);
        kernels::row_axpy(g, ohw, 1, cols, dw, out_ch_, ohw, patch);
        float* aw = acc.w.raw();
        for (std::size_t e = 0; e < dw_n; ++e) aw[e] += dw[e];
        if (has_bias_) {
          for (int p = 0; p < ohw; ++p)
            for (int c = 0; c < out_ch_; ++c)
              acc.b[c] += g[static_cast<std::size_t>(c) * ohw + p];
        }

        // dx = col2im(G · W), the gradient plan's kernel (it reuses the
        // consumed scratch).
        kernels::conv_backward_data(
            g, geom_, wt, out_ch_,
            dx.raw() + static_cast<std::size_t>(i) * in_ch_ * h * w);
      },
      [](GradAcc& total, const GradAcc& chunk) {
        total.w += chunk.w;
        total.b += chunk.b;
      });
  weight_.grad += sum.w;
  if (has_bias_) bias_.grad += sum.b;
  return dx;
}

// ------------------------------------------------------- DepthwiseConv2D

DepthwiseConv2D::DepthwiseConv2D(int channels, int kernel, int stride,
                                 int padding)
    : ch_(channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      weight_({channels, kernel * kernel}),
      bias_({channels}) {
  OREV_CHECK(channels > 0 && kernel > 0 && stride > 0 && padding >= 0,
             "DepthwiseConv2D parameters invalid");
}

void DepthwiseConv2D::init(Rng& rng) {
  const float s = he_stddev(k_ * k_);
  for (float& v : weight_.value.data()) v = rng.normal(0.0f, s);
  bias_.value.fill(0.0f);
}

std::vector<Param*> DepthwiseConv2D::params() { return {&weight_, &bias_}; }

Tensor DepthwiseConv2D::forward(const Tensor& x, bool /*training*/) {
  OREV_CHECK(x.rank() == 4 && x.dim(1) == ch_,
             "DepthwiseConv2D input channel mismatch");
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = (h + 2 * pad_ - k_) / stride_ + 1;
  const int ow = (w + 2 * pad_ - k_) / stride_ + 1;
  OREV_CHECK(oh > 0 && ow > 0, "DepthwiseConv2D output collapses");
  if (!inference_mode_) cached_input_ = x;

  Tensor out({n, ch_, oh, ow});
  // Plane-parallel over the flattened (sample, channel) index: every
  // output plane is written by exactly one task.
  util::parallel_for(0, static_cast<std::int64_t>(n) * ch_, 1,
                     [&](std::int64_t ic) {
    {
      const int i = static_cast<int>(ic / ch_);
      const int c = static_cast<int>(ic % ch_);
      const float* plane =
          x.raw() + (static_cast<std::size_t>(i) * ch_ + c) * h * w;
      const float* kern = weight_.value.raw() + static_cast<std::size_t>(c) * k_ * k_;
      float* oplane =
          out.raw() + (static_cast<std::size_t>(i) * ch_ + c) * oh * ow;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          float acc = bias_.value[c];
          for (int ky = 0; ky < k_; ++ky) {
            const int iy = oy * stride_ - pad_ + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < k_; ++kx) {
              const int ix = ox * stride_ - pad_ + kx;
              if (ix < 0 || ix >= w) continue;
              acc += kern[ky * k_ + kx] *
                     plane[static_cast<std::size_t>(iy) * w + ix];
            }
          }
          oplane[static_cast<std::size_t>(oy) * ow + ox] = acc;
        }
      }
    }
  });
  return out;
}

Tensor DepthwiseConv2D::backward(const Tensor& grad_out) {
  const int n = cached_input_.dim(0);
  const int h = cached_input_.dim(2), w = cached_input_.dim(3);
  const int oh = grad_out.dim(2), ow = grad_out.dim(3);
  OREV_CHECK(grad_out.dim(0) == n && grad_out.dim(1) == ch_,
             "DepthwiseConv2D backward shape mismatch");

  Tensor dx(cached_input_.shape());
  // Channel-parallel: task c owns dkern[c], bias grad c and every (i, c)
  // plane of dx; accumulation over samples stays in ascending i order, so
  // the sums associate exactly as in a serial sweep.
  util::parallel_for(0, ch_, 1, [&](std::int64_t c64) {
    const int c = static_cast<int>(c64);
    for (int i = 0; i < n; ++i) {
      const float* plane = cached_input_.raw() +
                           (static_cast<std::size_t>(i) * ch_ + c) * h * w;
      const float* gplane =
          grad_out.raw() + (static_cast<std::size_t>(i) * ch_ + c) * oh * ow;
      const float* kern =
          weight_.value.raw() + static_cast<std::size_t>(c) * k_ * k_;
      float* dkern = weight_.grad.raw() + static_cast<std::size_t>(c) * k_ * k_;
      float* dplane =
          dx.raw() + (static_cast<std::size_t>(i) * ch_ + c) * h * w;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          const float g = gplane[static_cast<std::size_t>(oy) * ow + ox];
          bias_.grad[c] += g;
          for (int ky = 0; ky < k_; ++ky) {
            const int iy = oy * stride_ - pad_ + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < k_; ++kx) {
              const int ix = ox * stride_ - pad_ + kx;
              if (ix < 0 || ix >= w) continue;
              dkern[ky * k_ + kx] +=
                  g * plane[static_cast<std::size_t>(iy) * w + ix];
              dplane[static_cast<std::size_t>(iy) * w + ix] +=
                  g * kern[ky * k_ + kx];
            }
          }
        }
      }
    }
  });
  return dx;
}

// ------------------------------------------------------------- MaxPool2D

MaxPool2D::MaxPool2D(int kernel, int stride)
    : k_(kernel), stride_(stride < 0 ? kernel : stride) {
  OREV_CHECK(k_ > 0 && stride_ > 0, "MaxPool2D parameters invalid");
}

Tensor MaxPool2D::forward(const Tensor& x, bool /*training*/) {
  OREV_CHECK(x.rank() == 4, "MaxPool2D expects [N, C, H, W]");
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = (h - k_) / stride_ + 1;
  const int ow = (w - k_) / stride_ + 1;
  OREV_CHECK(oh > 0 && ow > 0, "MaxPool2D output collapses");
  if (!inference_mode_) cached_input_ = x;
  out_shape_ = {n, c, oh, ow};
  Tensor out(out_shape_);
  if (two_by_two()) {
    // The compiled plans' pool kernels; backward recomputes each window's
    // tap from cached_input_, so no argmax is kept.
    argmax_.clear();
    const std::size_t in_n = static_cast<std::size_t>(c) * h * w;
    const std::size_t out_n = static_cast<std::size_t>(c) * oh * ow;
    util::parallel_for(0, n, 1, [&](std::int64_t i) {
      kernels::max_pool2x2(x.raw() + i * in_n, c, h, w, false,
                           out.raw() + i * out_n);
    });
    return out;
  }
  argmax_.assign(out.numel(), 0);

  // Plane-parallel: each (sample, channel) plane owns a contiguous run of
  // output cells and argmax slots.
  util::parallel_for(0, static_cast<std::int64_t>(n) * c, 1,
                     [&](std::int64_t pidx) {
    {
      const float* plane = x.raw() + static_cast<std::size_t>(pidx) * h * w;
      const std::size_t plane_base = static_cast<std::size_t>(pidx) * h * w;
      std::size_t oi = static_cast<std::size_t>(pidx) * oh * ow;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox, ++oi) {
          const int iy0 = oy * stride_, ix0 = ox * stride_;
          const std::ptrdiff_t a =
              kernels::pool_window_argmax(plane, w, iy0, ix0, k_);
          out[oi] = a < 0 ? -std::numeric_limits<float>::infinity() : plane[a];
          argmax_[oi] = plane_base + static_cast<std::size_t>(
                                         kernels::pool_grad_tap(a, w, iy0, ix0));
        }
      }
    }
  });
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_out) {
  OREV_CHECK(grad_out.shape() == out_shape_,
             "MaxPool2D backward shape mismatch");
  Tensor dx(cached_input_.shape());
  if (two_by_two()) {
    const int c = out_shape_[1], h = cached_input_.dim(2),
              w = cached_input_.dim(3);
    const std::size_t in_n = static_cast<std::size_t>(c) * h * w;
    const std::size_t out_n = grad_out.numel() / out_shape_[0];
    util::parallel_for(0, out_shape_[0], 1, [&](std::int64_t i) {
      kernels::max_pool2x2_backward(cached_input_.raw() + i * in_n,
                                    grad_out.raw() + i * out_n, c, h, w,
                                    dx.raw() + i * in_n);
    });
    return dx;
  }
  // Plane-parallel scatter: overlapping windows can hit the same input
  // cell, but only within one (sample, channel) plane — which a single
  // task owns, keeping the += order serial per plane.
  const std::int64_t planes =
      static_cast<std::int64_t>(out_shape_[0]) * out_shape_[1];
  const std::size_t per_plane = grad_out.numel() / planes;
  util::parallel_for(0, planes, 1, [&](std::int64_t p) {
    const std::size_t lo = static_cast<std::size_t>(p) * per_plane;
    for (std::size_t i = lo; i < lo + per_plane; ++i)
      dx[argmax_[i]] += grad_out[i];
  });
  return dx;
}

// --------------------------------------------------------- GlobalAvgPool

Tensor GlobalAvgPool::forward(const Tensor& x, bool /*training*/) {
  OREV_CHECK(x.rank() == 4, "GlobalAvgPool expects [N, C, H, W]");
  in_shape_ = x.shape();
  const int n = x.dim(0), c = x.dim(1);
  const int s = x.dim(2) * x.dim(3);
  Tensor out({n, c});
  for (int i = 0; i < n; ++i) {
    for (int cc = 0; cc < c; ++cc) {
      const float* plane = x.raw() + (static_cast<std::size_t>(i) * c + cc) * s;
      double acc = 0.0;
      for (int p = 0; p < s; ++p) acc += plane[p];
      out.at2(i, cc) = static_cast<float>(acc / s);
    }
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const int n = in_shape_[0], c = in_shape_[1];
  const int s = in_shape_[2] * in_shape_[3];
  OREV_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == n &&
                 grad_out.dim(1) == c,
             "GlobalAvgPool backward shape mismatch");
  Tensor dx(in_shape_);
  for (int i = 0; i < n; ++i) {
    for (int cc = 0; cc < c; ++cc) {
      const float g = grad_out.at2(i, cc) / static_cast<float>(s);
      float* plane = dx.raw() + (static_cast<std::size_t>(i) * c + cc) * s;
      for (int p = 0; p < s; ++p) plane[p] = g;
    }
  }
  return dx;
}

// ------------------------------------------------------------- AvgPool2D

AvgPool2D::AvgPool2D(int kernel) : k_(kernel) {
  OREV_CHECK(k_ > 0, "AvgPool2D kernel must be positive");
}

Tensor AvgPool2D::forward(const Tensor& x, bool /*training*/) {
  OREV_CHECK(x.rank() == 4, "AvgPool2D expects [N, C, H, W]");
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  OREV_CHECK(h % k_ == 0 && w % k_ == 0,
             "AvgPool2D requires extents divisible by kernel");
  in_shape_ = x.shape();
  const int oh = h / k_, ow = w / k_;
  Tensor out({n, c, oh, ow});
  const float inv = 1.0f / static_cast<float>(k_ * k_);
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (int ky = 0; ky < k_; ++ky)
            for (int kx = 0; kx < k_; ++kx)
              acc += x.at4(i, cc, oy * k_ + ky, ox * k_ + kx);
          out.at4(i, cc, oy, ox) = acc * inv;
        }
  return out;
}

Tensor AvgPool2D::backward(const Tensor& grad_out) {
  const int n = in_shape_[0], c = in_shape_[1], h = in_shape_[2],
            w = in_shape_[3];
  const int oh = h / k_, ow = w / k_;
  OREV_CHECK(grad_out.rank() == 4 && grad_out.dim(2) == oh &&
                 grad_out.dim(3) == ow,
             "AvgPool2D backward shape mismatch");
  Tensor dx(in_shape_);
  const float inv = 1.0f / static_cast<float>(k_ * k_);
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          const float g = grad_out.at4(i, cc, oy, ox) * inv;
          for (int ky = 0; ky < k_; ++ky)
            for (int kx = 0; kx < k_; ++kx)
              dx.at4(i, cc, oy * k_ + ky, ox * k_ + kx) = g;
        }
  return dx;
}

// ------------------------------------------------------------ Activations

Tensor ReLU::forward(const Tensor& x, bool /*training*/) {
  if (!inference_mode_) cached_input_ = x;
  Tensor y = x;
  for (float& v : y.data()) v = std::max(v, 0.0f);
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  OREV_CHECK(grad_out.shape() == cached_input_.shape(),
             "ReLU backward shape mismatch");
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    if (cached_input_[i] <= 0.0f) dx[i] = 0.0f;
  return dx;
}

Tensor LeakyReLU::forward(const Tensor& x, bool /*training*/) {
  if (!inference_mode_) cached_input_ = x;
  Tensor y = x;
  for (float& v : y.data()) v = v > 0.0f ? v : slope_ * v;
  return y;
}

Tensor LeakyReLU::backward(const Tensor& grad_out) {
  OREV_CHECK(grad_out.shape() == cached_input_.shape(),
             "LeakyReLU backward shape mismatch");
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    if (cached_input_[i] <= 0.0f) dx[i] *= slope_;
  return dx;
}

Tensor Sigmoid::forward(const Tensor& x, bool /*training*/) {
  Tensor y = x;
  for (float& v : y.data()) v = 1.0f / (1.0f + std::exp(-v));
  if (!inference_mode_) cached_output_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  OREV_CHECK(grad_out.shape() == cached_output_.shape(),
             "Sigmoid backward shape mismatch");
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    const float s = cached_output_[i];
    dx[i] *= s * (1.0f - s);
  }
  return dx;
}

// ---------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& x, bool /*training*/) {
  OREV_CHECK(x.rank() >= 2, "Flatten expects batched input");
  in_shape_ = x.shape();
  const int n = x.dim(0);
  const int f = static_cast<int>(x.numel() / static_cast<std::size_t>(n));
  return x.reshaped({n, f});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

// ---------------------------------------------------------------- Dropout

Dropout::Dropout(float rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  OREV_CHECK(rate >= 0.0f && rate < 1.0f, "Dropout rate must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& x, bool training) {
  last_training_ = training;
  if (!training || rate_ == 0.0f) return x;
  mask_ = Tensor(x.shape());
  const float keep = 1.0f - rate_;
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    const bool kept = rng_.uniform() >= rate_;
    mask_[i] = kept ? 1.0f / keep : 0.0f;
    y[i] *= mask_[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (!last_training_ || rate_ == 0.0f) return grad_out;
  OREV_CHECK(grad_out.shape() == mask_.shape(),
             "Dropout backward shape mismatch");
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i) dx[i] *= mask_[i];
  return dx;
}

void Dropout::save_state(persist::ByteWriter& w) const {
  // The mask-draw stream position is the state: resuming training must
  // continue the same sequence of keep/drop draws, not restart it.
  w.str(rng_.engine_state());
}

persist::Status Dropout::load_state(persist::ByteReader& r) {
  std::string state;
  if (!r.str(state))
    return persist::Status::Fail(persist::StatusCode::kTruncated,
                                 "Dropout RNG state missing");
  if (!rng_.set_engine_state(state))
    return persist::Status::Fail(persist::StatusCode::kBadValue,
                                 "Dropout RNG state unparsable");
  return persist::Status::Ok();
}

// -------------------------------------------------------------- BatchNorm

BatchNorm::BatchNorm(int channels, float momentum, float eps)
    : ch_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_({channels}),
      beta_({channels}),
      running_mean_({channels}),
      running_var_({channels}, 1.0f),
      cached_invstd_({channels}) {
  OREV_CHECK(channels > 0, "BatchNorm channels must be positive");
  gamma_.value.fill(1.0f);
}

std::vector<Param*> BatchNorm::params() { return {&gamma_, &beta_}; }

void BatchNorm::save_state(persist::ByteWriter& w) const {
  write_tensor(w, running_mean_);
  write_tensor(w, running_var_);
}

persist::Status BatchNorm::load_state(persist::ByteReader& r) {
  Tensor mean, var;
  persist::Status st = read_tensor(r, mean);
  if (st.ok()) st = read_tensor(r, var);
  if (!st.ok()) return st;
  if (mean.shape() != running_mean_.shape() ||
      var.shape() != running_var_.shape())
    return persist::Status::Fail(persist::StatusCode::kMismatch,
                                 "BatchNorm running-stat shape mismatch");
  running_mean_ = std::move(mean);
  running_var_ = std::move(var);
  return persist::Status::Ok();
}

Tensor BatchNorm::forward(const Tensor& x, bool training) {
  OREV_CHECK((x.rank() == 4 && x.dim(1) == ch_) ||
                 (x.rank() == 2 && x.dim(1) == ch_),
             "BatchNorm channel mismatch");
  in_shape_ = x.shape();
  const int n = x.dim(0);
  const int s = x.rank() == 4 ? x.dim(2) * x.dim(3) : 1;
  per_channel_count_ = static_cast<std::size_t>(n) * s;

  Tensor mean({ch_});
  Tensor var({ch_});
  if (training) {
    // Channel-parallel statistics: each channel's double accumulator is
    // owned by one task and folds samples in ascending order.
    util::parallel_for(0, ch_, 1, [&](std::int64_t c) {
      double acc = 0.0;
      for (int i = 0; i < n; ++i) {
        const float* plane =
            x.raw() + (static_cast<std::size_t>(i) * ch_ + c) * s;
        for (int p = 0; p < s; ++p) acc += plane[p];
      }
      mean[static_cast<std::size_t>(c)] =
          static_cast<float>(acc / double(per_channel_count_));
    });
    util::parallel_for(0, ch_, 1, [&](std::int64_t c) {
      double acc = 0.0;
      const float mc = mean[static_cast<std::size_t>(c)];
      for (int i = 0; i < n; ++i) {
        const float* plane =
            x.raw() + (static_cast<std::size_t>(i) * ch_ + c) * s;
        for (int p = 0; p < s; ++p) {
          const double d = double(plane[p]) - mc;
          acc += d * d;
        }
      }
      var[static_cast<std::size_t>(c)] =
          static_cast<float>(acc / double(per_channel_count_));
    });
    for (int c = 0; c < ch_; ++c) {
      running_mean_[c] = momentum_ * running_mean_[c] + (1 - momentum_) * mean[c];
      running_var_[c] = momentum_ * running_var_[c] + (1 - momentum_) * var[c];
    }
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  for (int c = 0; c < ch_; ++c)
    cached_invstd_[c] = 1.0f / std::sqrt(var[c] + eps_);

  // Inference mode computes the normalised value in a register instead of
  // persisting the xhat plane for backward — identical arithmetic, so the
  // output bits match the caching path exactly.
  if (!inference_mode_) cached_xhat_ = Tensor(x.shape());
  Tensor y(x.shape());
  util::parallel_for(0, n, 1, [&](std::int64_t i) {
    for (int c = 0; c < ch_; ++c) {
      const float* plane =
          x.raw() + (static_cast<std::size_t>(i) * ch_ + c) * s;
      float* yp = y.raw() + (static_cast<std::size_t>(i) * ch_ + c) * s;
      if (inference_mode_) {
        for (int p = 0; p < s; ++p) {
          const float xh = (plane[p] - mean[c]) * cached_invstd_[c];
          yp[p] = gamma_.value[c] * xh + beta_.value[c];
        }
      } else {
        float* xhat = cached_xhat_.raw() +
                      (static_cast<std::size_t>(i) * ch_ + c) * s;
        for (int p = 0; p < s; ++p) {
          xhat[p] = (plane[p] - mean[c]) * cached_invstd_[c];
          yp[p] = gamma_.value[c] * xhat[p] + beta_.value[c];
        }
      }
    }
  });
  return y;
}

Tensor BatchNorm::backward(const Tensor& grad_out) {
  OREV_CHECK(grad_out.shape() == in_shape_, "BatchNorm backward shape mismatch");
  const int n = in_shape_[0];
  const int s = in_shape_.size() == 4 ? in_shape_[2] * in_shape_[3] : 1;
  const auto m = static_cast<float>(per_channel_count_);

  Tensor dx(in_shape_);
  // Channel-parallel: task c owns gamma/beta grads and dx planes of its
  // channel; per-channel double sums keep their serial order.
  util::parallel_for(0, ch_, 1, [&](std::int64_t c64) {
    const int c = static_cast<int>(c64);
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int i = 0; i < n; ++i) {
      const float* gp =
          grad_out.raw() + (static_cast<std::size_t>(i) * ch_ + c) * s;
      const float* xh = cached_xhat_.raw() +
                        (static_cast<std::size_t>(i) * ch_ + c) * s;
      for (int p = 0; p < s; ++p) {
        sum_dy += gp[p];
        sum_dy_xhat += double(gp[p]) * xh[p];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad[c] += static_cast<float>(sum_dy);

    const float scale = gamma_.value[c] * cached_invstd_[c] / m;
    for (int i = 0; i < n; ++i) {
      const float* gp =
          grad_out.raw() + (static_cast<std::size_t>(i) * ch_ + c) * s;
      const float* xh = cached_xhat_.raw() +
                        (static_cast<std::size_t>(i) * ch_ + c) * s;
      float* dp = dx.raw() + (static_cast<std::size_t>(i) * ch_ + c) * s;
      for (int p = 0; p < s; ++p) {
        dp[p] = scale * (m * gp[p] - static_cast<float>(sum_dy) -
                         xh[p] * static_cast<float>(sum_dy_xhat));
      }
    }
  });
  return dx;
}

}  // namespace orev::nn
