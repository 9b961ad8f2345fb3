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
// CompiledCnn (serve/compiled_cnn.hpp) is the one float plan compiler:
// it covers conv chains (the spectrogram CNN family) and flat Dense/ReLU
// stacks (the KPM DNN family) alike, with typed compile errors for
// everything else. compile_plan() below is its factory.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/model.hpp"

namespace orev::serve {

/// Why a model could not be compiled. Plans *never* throw out of compile:
/// any architecture or state the compiler does not support is reported as
/// one of these codes and the engine falls back to the generic layer walk.
enum class CompileError {
  kOk = 0,
  kNonSequentialRoot,   // root layer is not a flat nn::Sequential
  kUnsupportedLayer,    // Residual / DenseConcat / GlobalAvgPool / ...
  kNotInferenceMode,    // model not locked; BN stats could still move
  kBadDims,             // zero/negative extents, output collapses, no stages
  kShapeMismatch,       // layer widths/channels do not chain together
  kNonFiniteStats,      // BatchNorm running stats produce non-finite scales
};

const char* compile_error_name(CompileError e);

/// Typed compile failure: code plus a human-readable detail string.
struct CompileFailure {
  CompileError code = CompileError::kOk;
  std::string detail;
};

/// Interface shared by every compiled plan. Plans own mutable scratch, so
/// they are not thread-safe — each engine replica owns its own plan.
class CompiledPlan {
 public:
  virtual ~CompiledPlan() = default;

  /// Batched argmax predictions; bit-identical to nn::Model::predict for
  /// float plans (int8 plans are explicitly excluded from that contract).
  virtual std::vector<int> predict(const nn::Tensor& batch) = 0;

  /// Same, over a raw row-major [m, input_features] float buffer — lets
  /// the engine's hot path stage queued requests into a flat reusable
  /// buffer instead of assembling a batch tensor per flush.
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
                                           CompileFailure* why = nullptr);

}  // namespace orev::serve
