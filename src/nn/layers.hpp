// Concrete layers: Dense, Conv2D (packed-plane forward, im2col backward),
// DepthwiseConv2D, pooling, activations, BatchNorm, Dropout, Flatten.
#pragma once

#include "nn/kernels.hpp"
#include "nn/layer.hpp"

namespace orev::nn {

/// Fully-connected layer: y = x W^T + b, x is [N, in], W is [out, in].
class Dense : public Layer {
 public:
  Dense(int in_features, int out_features, bool bias = true);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  void init(Rng& rng) override;
  std::string name() const override { return "Dense"; }
  LayerPtr clone() const override { return LayerPtr(new Dense(*this)); }

  int in_features() const { return in_; }
  int out_features() const { return out_; }
  bool has_bias() const { return has_bias_; }
  const Tensor& weight() const { return weight_.value; }  // [out, in]
  const Tensor& bias() const { return bias_.value; }      // [out]

 private:
  int in_;
  int out_;
  bool has_bias_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  Tensor cached_input_;
};

/// 2-D convolution over [N, C, H, W] tensors: the forward is the compiled
/// plans' conv_forward (nn/kernels.hpp); the backward takes dW from im2col
/// + row_axpy and dx from the gradient plan's conv_backward_data.
class Conv2D : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel, int stride = 1,
         int padding = 0, bool bias = true);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  void init(Rng& rng) override;
  std::string name() const override { return "Conv2D"; }
  LayerPtr clone() const override { return LayerPtr(new Conv2D(*this)); }

  int out_height(int h) const { return (h + 2 * pad_ - k_) / stride_ + 1; }
  int out_width(int w) const { return (w + 2 * pad_ - k_) / stride_ + 1; }

  int in_channels() const { return in_ch_; }
  int out_channels() const { return out_ch_; }
  int kernel() const { return k_; }
  int stride() const { return stride_; }
  int padding() const { return pad_; }
  bool has_bias() const { return has_bias_; }
  const Tensor& weight() const { return weight_.value; }  // [out_ch, patch]
  /// Always out_ch wide; all zeros when bias-less.
  const Tensor& bias() const { return bias_.value; }

 private:
  int in_ch_, out_ch_, k_, stride_, pad_;
  bool has_bias_;
  Param weight_;  // [out_ch, in_ch * k * k]
  Param bias_;    // [out_ch]; all zeros when bias-less
  Tensor cached_input_;  // backward rebuilds each sample's patch matrix
  std::vector<double> wide_weight_;  // weight_ widened to double, per call
  kernels::ConvGeometry geom_;  // of the last input extent forward saw
};

/// Depthwise 2-D convolution (one filter per channel), the defining block
/// of the MobileNet family.
class DepthwiseConv2D : public Layer {
 public:
  DepthwiseConv2D(int channels, int kernel, int stride = 1, int padding = 0);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  void init(Rng& rng) override;
  std::string name() const override { return "DepthwiseConv2D"; }
  LayerPtr clone() const override { return LayerPtr(new DepthwiseConv2D(*this)); }

  int channels() const { return ch_; }
  int kernel() const { return k_; }
  int stride() const { return stride_; }
  int padding() const { return pad_; }

 private:
  int ch_, k_, stride_, pad_;
  Param weight_;  // [ch, k * k]
  Param bias_;    // [ch]
  Tensor cached_input_;
};

/// Max pooling over [N, C, H, W].
class MaxPool2D : public Layer {
 public:
  explicit MaxPool2D(int kernel, int stride = -1);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "MaxPool2D"; }
  LayerPtr clone() const override { return LayerPtr(new MaxPool2D(*this)); }

  int kernel() const { return k_; }
  int stride() const { return stride_; }

 private:
  /// 2×2, stride 2: forward and backward run kernels::max_pool2x2 and
  /// max_pool2x2_backward, the compiled plans' pool pair.
  bool two_by_two() const { return k_ == 2 && stride_ == 2; }

  int k_, stride_;
  Tensor cached_input_;
  /// Flat input index of each output's gradient tap; other window shapes
  /// only.
  std::vector<std::size_t> argmax_;
  Shape out_shape_;
};

/// Global average pooling: [N, C, H, W] → [N, C].
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "GlobalAvgPool"; }
  LayerPtr clone() const override { return LayerPtr(new GlobalAvgPool(*this)); }

 private:
  Shape in_shape_;
};

/// Average pooling with kernel=stride (used by DenseNet transition layers).
class AvgPool2D : public Layer {
 public:
  explicit AvgPool2D(int kernel);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "AvgPool2D"; }
  LayerPtr clone() const override { return LayerPtr(new AvgPool2D(*this)); }

 private:
  int k_;
  Shape in_shape_;
};

/// Rectified linear activation.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "ReLU"; }
  LayerPtr clone() const override { return LayerPtr(new ReLU(*this)); }

 private:
  Tensor cached_input_;
};

/// Leaky rectified linear activation.
class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(float slope = 0.1f) : slope_(slope) {}

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "LeakyReLU"; }
  LayerPtr clone() const override { return LayerPtr(new LeakyReLU(*this)); }

 private:
  float slope_;
  Tensor cached_input_;
};

/// Logistic sigmoid activation.
class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "Sigmoid"; }
  LayerPtr clone() const override { return LayerPtr(new Sigmoid(*this)); }

 private:
  Tensor cached_output_;
};

/// Flatten [N, ...] → [N, F].
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "Flatten"; }
  LayerPtr clone() const override { return LayerPtr(new Flatten(*this)); }

 private:
  Shape in_shape_;
};

/// Inverted dropout; identity at inference time.
class Dropout : public Layer {
 public:
  explicit Dropout(float rate, std::uint64_t seed = 0x0d0d);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "Dropout"; }
  LayerPtr clone() const override { return LayerPtr(new Dropout(*this)); }
  void save_state(persist::ByteWriter& w) const override;
  persist::Status load_state(persist::ByteReader& r) override;

 private:
  float rate_;
  Rng rng_;
  Tensor mask_;
  bool last_training_ = false;
};

/// Batch normalisation over the channel axis of [N, C, H, W] tensors, or
/// the feature axis of [N, F] tensors. Uses running statistics at
/// inference time.
class BatchNorm : public Layer {
 public:
  explicit BatchNorm(int channels, float momentum = 0.9f, float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "BatchNorm"; }
  LayerPtr clone() const override { return LayerPtr(new BatchNorm(*this)); }
  void save_state(persist::ByteWriter& w) const override;
  persist::Status load_state(persist::ByteReader& r) override;

  int channels() const { return ch_; }
  float eps() const { return eps_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  int ch_;
  float momentum_, eps_;
  Param gamma_;  // [C]
  Param beta_;   // [C]
  Tensor running_mean_;  // [C]
  Tensor running_var_;   // [C]
  // Caches for backward.
  Tensor cached_xhat_;
  Tensor cached_invstd_;  // [C]
  Shape in_shape_;
  std::size_t per_channel_count_ = 0;
};

}  // namespace orev::nn
