// nn::GradPlan — the compiled input-gradient path of nn::Model
// (DESIGN.md §12.1).
//
// Every gradient attack (FGSM, PGD, the UAP inner step, adversarial
// traffic, defense augmentation) asks one question per step: dLoss/dx.
// The layer walk answers it with a full training backward — weight
// gradients, im2col rebuilds, bias sums — and a fresh tensor per layer.
// A GradPlan takes the stage list of nn::lower_chain (lowering.hpp, the
// lowering the serve plan compiles from too) and keeps the chains whose
// every stage has a compiled backward: Conv2D, ReLU, MaxPool2D, Flatten,
// Dropout (an identity at inference) and Dense. A BatchNorm or depthwise
// stage is refused. The plan runs
//
//   * the walk's forward kernels (kernels::conv_forward with the ReLU
//     fused into its epilogue, the SIMD 2×2 max pool, the Dense double
//     dot products), keeping every stage's output in plan-owned scratch;
//   * dlogits through cross_entropy_rows, the walk's loss arithmetic;
//   * the backward-data chain only: Dense^T through row_axpy, the ReLU
//     mask read from the stored post-ReLU output (y <= 0 exactly when the
//     pre-ReLU value was), the pool scatter with its argmax recomputed by
//     kernels::pool_window_argmax, and conv dcols through row_axpy plus
//     kernels::col2im_accum.
//
// Each kernel is the one the walk calls, on the same operands in the same
// order, so logits and dx equal the walk's bit for bit — at every batch
// size and thread count. Unlike the serve plan, which snapshots a locked
// replica, this executor reads the weights in place on every call (conv
// weights widened to double per call, as Conv2D::forward does), so no
// optimizer step, set_weights or load can leave the plan stale.
// Architectures outside the set are refused with a typed CompileFailure,
// never an exception, and the model keeps the walk.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/lowering.hpp"
#include "nn/tensor.hpp"

namespace orev::nn {

class GradPlan {
 public:
  struct CompileResult {
    std::unique_ptr<GradPlan> plan;  // set iff failure.code == kOk
    CompileFailure failure;
  };

  /// Compile the layer tree `root` for [input_shape] samples and
  /// `num_classes` logits. The plan keeps pointers into `root`, which must
  /// outlive it and keep its structure.
  static CompileResult compile(Layer& root, const Shape& input_shape,
                               int num_classes);

  /// Run m rows ([m, input_features] row-major) forward, keeping every
  /// stage's output. Returns the [m, num_classes] logits, valid until the
  /// next forward.
  const float* forward(const float* x, int m);

  /// dLoss/dx of the last forward's rows into dx ([m, input_features]),
  /// given dLoss/dlogits ([m, num_classes]; may be dlogits_scratch()).
  void backward(const float* dlogits, float* dx);

  /// [m, num_classes] scratch for the last forward's dLoss/dlogits.
  float* dlogits_scratch() { return dlogits_.data(); }

  int input_features() const { return in0_; }
  int num_classes() const { return classes_; }
  const std::vector<ChainStage>& stages() const { return stages_; }

 private:
  GradPlan() = default;
  void ensure_rows(int m);
  void widen_weights();
  const float* stage_input(std::size_t s) const;
  float* stage_output(std::size_t s);
  /// Sample i through the spatial prefix.
  void forward_sample(int i);
  void backward_stage(std::size_t s, float* g_out, float* g_in);
  void pool_backward(const ChainStage& st, const float* in, const float* g,
                     float* dx, int m);

  std::vector<ChainStage> stages_;
  std::vector<std::size_t> wide_off_;  // conv: the filter bank's slot in wide_
  std::size_t flat_begin_ = 0;  // first stage of the row-major flat suffix
  int in0_ = 0;
  int classes_ = 0;
  std::size_t widest_ = 0;  // widest stage boundary, per row

  int m_ = 0;  // rows the scratch below holds
  const float* x_ = nullptr;  // the last forward's input rows
  /// Conv filter banks widened to double, refreshed every forward.
  std::vector<double> wide_;
  std::vector<std::size_t> act_off_;  // each stage's [m, out] slice of acts_
  std::vector<float> acts_;
  std::vector<float> grad_a_, grad_b_, dlogits_;
};

}  // namespace orev::nn
