// Compiled conv-chain inference plans (DESIGN.md §12).
//
// CompiledCnn runs the stage list nn::lower_chain (nn/lowering.hpp)
// makes of a flat Sequential of Conv2D / DepthwiseConv2D / MaxPool2D /
// BatchNorm / ReLU / Flatten / Dropout / Dense layers over a [C, H, W]
// (or flat [F]) input — the lowering the gradient plan uses too — and
// snapshots each stage's weights once at compile time:
//
//   * conv stages that copy each sample once into zero-padded input
//     planes in per-thread scratch and read every tap through the
//     stage's offset table (nn::kernels::ConvGeometry — no patch
//     matrix), and a SIMD 2×2 max pool;
//   * the double-accumulating microkernels the layer walk runs on too
//     (nn/kernels.hpp — scalar/AVX2/AVX-512 with runtime dispatch;
//     nn::Conv2D's forward is the same conv_forward). The double
//     multiply-add may be one FMA, since a float×float product is exact
//     in double; float epilogue arithmetic never fuses (src/ is compiled
//     with -ffp-contract=off);
//   * bias, BatchNorm and ReLU folded into each stage's output loop as
//     the *exact* float op sequence of the layer walk. BatchNorm folding
//     is epilogue fusion, not algebraic weight folding: rescaling the
//     weights would re-round every product and break bit-exactness, so
//     the fused epilogue evaluates (v − mean)·invstd·γ + β literally,
//     with invstd snapshotted as 1.0f/sqrt(var + eps) — the same float
//     ops nn::BatchNorm performs at inference. Which BatchNorms fuse is
//     the lowering's host rule; the rest run as standalone stages — also
//     bit-exact, just unfused.
//
// A plan runs in two parts. The spatial prefix (every stage before
// Flatten) is sample-parallel with disjoint per-sample ping-pong slices
// and per-thread conv packing scratch (see util/thread_pool design
// rule). The flat suffix (every stage after
// Flatten, or every stage for a rank-1 input such as the KPM DNN) runs
// stage-major over all rows: one dense_stage call per Dense stage. Both
// are byte-identical to nn::Model::predict at every thread count.
// Architectures or states outside the supported set are rejected with a
// typed CompileFailure — never an exception — and the engine falls back
// to the layer walk. Compilation requires the model to be
// inference-locked, because the plan snapshots BatchNorm running
// statistics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nn/lowering.hpp"
#include "serve/compiled.hpp"

namespace orev::serve {

/// One fused stage of a compiled conv-chain plan: the lowered stage
/// (nn::ChainStage — kind, geometry, fused ReLU, BatchNorm host) plus the
/// weights snapshotted from its source layers at compile time. The plan
/// never reads the source layers again: compile() clears `layer` and
/// `bn_layer`, and `bn` records whether a BatchNorm was folded in.
struct CnnStage : nn::ChainStage {
  CnnStage() = default;
  explicit CnnStage(const nn::ChainStage& lowered) : nn::ChainStage(lowered) {}

  /// Dense-only: the walk adds a Dense bias only when present, while a
  /// Conv2D *always* adds its bias term (0.0f when bias-less — which is
  /// not a no-op in IEEE arithmetic: it flips -0.0 to +0.0).
  bool has_bias = false;

  /// Weights pre-widened to double for the GEMM kernels: conv keeps the
  /// natural [out_c, patch] layout (conv_stage's pixel lanes), dense packs
  /// W^T as [in, out] (dense_stage's column tiles). Empty otherwise.
  std::vector<double> bt;
  /// Raw float weights in natural layout ([out_c, patch] conv,
  /// [out, in] dense, [c, k*k] depthwise) — the int8 quantizer and the
  /// depthwise kernel read these.
  std::vector<float> weight;
  /// Conv/depthwise: always sized out_c (zero-filled when bias-less).
  /// Dense: empty when has_bias is false.
  std::vector<float> bias;

  /// A BatchNorm snapshot: invstd as 1.0f/sqrt(var + eps), as the walk.
  bool bn = false;
  std::vector<float> bn_mean, bn_invstd, bn_gamma, bn_beta;
};

/// The fused per-element epilogue, in the walk's exact op order: the
/// GEMM/accumulator value first takes the stage's own bias (already done
/// by the caller), then BatchNorm's (v − mean)·invstd·γ + β, then ReLU.
/// Shared with the int8 plan's dequantized outputs.
inline float epilogue_bn_relu(const CnnStage& s, int c, float v) {
  if (s.bn) {
    const auto ch = static_cast<std::size_t>(c);
    const float xh = (v - s.bn_mean[ch]) * s.bn_invstd[ch];
    v = s.bn_gamma[ch] * xh + s.bn_beta[ch];
  }
  if (s.relu) v = std::max(v, 0.0f);
  return v;
}

/// A standalone BatchNorm stage over one sample, with the walk's exact op
/// order; shared with the int8 plan's float stages (which also run
/// nn::run_pool_stage and nn::run_relu_stage).
void run_bn_stage(const CnnStage& s, const float* in, float* out);

class CompiledCnn : public CompiledPlan {
 public:
  struct CompileResult {
    /// Present iff failure.code == kOk.
    std::unique_ptr<CompiledCnn> plan;
    nn::CompileFailure failure;
  };

  /// Compile `model` (which must be inference-locked) or report a typed
  /// failure. Never throws for architecture/state reasons.
  static CompileResult compile(nn::Model& model);

  std::vector<int> predict_rows(const float* rows, int m) override;
  /// Same predictions into a caller-owned buffer of m ints: no allocation
  /// once the plan's scratch has grown to m rows.
  void predict_rows(const float* rows, int m, int* out);

  /// Raw [m, num_classes] logits — the differential test harness compares
  /// these byte-for-byte against the layer walk.
  nn::Tensor logits(const nn::Tensor& batch);
  /// Same logits into a caller-owned [m, num_classes] buffer: no
  /// allocation once the plan's scratch has grown to m rows.
  void logits_rows(const float* rows, int m, float* out);

  int input_features() const override { return in0_; }
  int num_classes() const override { return classes_; }
  const char* kind() const override { return "cnn"; }

  const std::vector<CnnStage>& stages() const { return stages_; }

  /// Per-stage max|input| observed while running the float plan over
  /// `rows` — the seed-deterministic activation calibration the int8
  /// quantizer consumes. Entries for non-GEMM stages are 0. Index 0 of
  /// the result is the max|input| of the model input itself for stage 0.
  std::vector<float> calibrate_input_maxabs(const float* rows, int m);

 private:
  void run_batch(const float* rows, int m, float* logits_out,
                 std::vector<float>* maxabs);
  void ensure_scratch(int m);

  std::vector<CnnStage> stages_;
  /// First stage of the flat suffix; stages before it form the spatial
  /// prefix (0 for rank-1 inputs).
  std::size_t flat_begin_ = 0;
  int in0_ = 0;
  int classes_ = 0;
  std::size_t prefix_elems_ = 0;  // widest prefix stage output, per sample
  std::size_t flat_elems_ = 0;    // widest suffix stage boundary, per row
  /// Prefix ping-pong (per-sample slices), suffix ping-pong ([m, width]
  /// row-major), and predict_rows' logits.
  std::vector<float> buf_a_, buf_b_, flat_a_, flat_b_, logits_;
};

}  // namespace orev::serve
