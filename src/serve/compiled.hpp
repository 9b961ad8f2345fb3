// Compiled inference plans for the serving engine (DESIGN.md §11–12).
//
// A ServeEngine replica is "compiled" once at engine construction: layer
// weights are re-packed for the batched kernels (nn/kernels.hpp), the
// bias/BatchNorm/ReLU epilogues are fused into the output loops, and
// activation scratch is allocated once and reused for every micro-batch.
//
// Every float plan is byte-exact by construction: each output element
// performs the identical sequence of IEEE operations the layer-by-layer
// path performs — double-accumulated dot products in ascending-k order,
// a cast to float, then the walk's exact float epilogue ops — so
// predictions are bitwise identical to nn::Model::predict on the same
// rows (locked down by tests/test_serve.cpp and
// tests/test_compiled_cnn.cpp). What compilation removes is everything
// *around* the arithmetic: per-call weight packing, per-layer tensor
// allocation, activation-cache copies and virtual layer dispatch.
//
// CompiledCnn (serve/compiled_cnn.hpp) is the one float plan: it covers
// conv chains (the spectrogram CNN family) and flat Dense/ReLU stacks (the
// KPM DNN family) alike. It compiles from nn::lower_chain, the one
// lowering of a layer chain to stages, which nn::GradPlan (the attacks'
// input-gradient plan) compiles from as well; failures of either are one
// typed nn::CompileFailure. The two executors stay apart on purpose: this
// one snapshots an inference-locked replica's weights (widened and
// transposed banks, folded BatchNorm, depthwise), the gradient plan reads
// the live weights of a model that trains between calls. compile_plan()
// below is the serve plan's factory.
#pragma once

#include <memory>
#include <vector>

#include "nn/lowering.hpp"
#include "nn/model.hpp"

namespace orev::serve {

/// Interface shared by every compiled plan. Plans own mutable scratch, so
/// they are not thread-safe — each engine replica owns its own plan.
class CompiledPlan {
 public:
  virtual ~CompiledPlan() = default;

  /// Argmax predictions of a raw row-major [m, input_features] float
  /// buffer (inputs of any rank, as contiguous rows — the engine stages
  /// every flush this way); bit-identical to nn::Model::predict for float
  /// plans (int8 plans are explicitly excluded from that contract).
  virtual std::vector<int> predict_rows(const float* rows, int m) = 0;

  virtual int input_features() const = 0;
  virtual int num_classes() const = 0;

  /// Plan family tag for reports/tests: "cnn" or "int8".
  virtual const char* kind() const = 0;
};

/// Compile `model` (which must be inference-locked) into a CompiledCnn.
/// Returns nullptr when the model is outside the supported set; `why`
/// (optional) receives the typed failure in that case.
std::unique_ptr<CompiledPlan> compile_plan(nn::Model& model,
                                           nn::CompileFailure* why = nullptr);

}  // namespace orev::serve
