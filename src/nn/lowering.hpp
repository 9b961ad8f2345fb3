// nn::lower_chain — the one lowering from a flat nn::Sequential to a
// stage list (DESIGN.md §12).
//
// Both compiled plans start here: the serving engine's inference plan
// (serve::CompiledCnn) and the attacks' input-gradient plan
// (nn::GradPlan). The lowering walks the layers once over a [C, H, W] or
// flat [F] input and decides everything that is a property of the chain,
// not of an executor:
//
//   * each stage's kind, its [c, h, w] in and out, its window (k, stride,
//     pad) and, for a conv, the packed input's offset table
//     (kernels::ConvGeometry);
//   * the fused-ReLU rule: a ReLU folds into the stage before it unless
//     that stage already ends in one, and otherwise runs standalone;
//   * the BatchNorm-host rule: a BatchNorm fuses into a conv, depthwise or
//     dense stage directly before it that has no epilogue yet and whose
//     output channels are the BatchNorm's channels (after Flatten a
//     BatchNorm normalises flattened features, which a conv stage's
//     per-channel epilogue cannot express); otherwise it runs standalone;
//   * Flatten (where the row-major flat suffix begins) and Dropout (an
//     identity at inference) lower to no stage;
//   * anything else is one typed CompileFailure, never an exception.
//
// The executors stay apart because they read weights differently: the
// serve plan snapshots an inference-locked replica once (widened and
// transposed banks, BatchNorm invstd), while the gradient plan reads the
// live weights of a model that trains between calls, and each is the hot
// loop of a different workload. This is the only code that inspects the
// concrete layer types of a chain.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/kernels.hpp"
#include "nn/tensor.hpp"

namespace orev::nn {

class BatchNorm;
class Layer;

/// Why a chain could not be compiled. Compilers *never* throw: any
/// architecture or state outside the supported set is one of these codes
/// and the caller keeps the layer walk.
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

/// One lowered stage. Spatial stages carry [c, h, w] geometry; flat
/// (post-Flatten) stages put the feature count in `*_c` with h = w = 1.
struct ChainStage {
  enum class Kind { kConv, kDepthwise, kDense, kPool, kBatchNorm, kRelu };
  Kind kind = Kind::kRelu;

  int in_c = 0, in_h = 1, in_w = 1;
  int out_c = 0, out_h = 1, out_w = 1;
  int k = 0, stride = 1, pad = 0;  // conv/depthwise/pool window
  /// Conv-only: the packed input's tap offsets and output grid.
  kernels::ConvGeometry geom;

  /// The op's source layer (Conv2D, DepthwiseConv2D, Dense, MaxPool2D or
  /// a standalone BatchNorm); null for a standalone ReLU. Both pointers
  /// point into the lowered root: the gradient plan reads live weights
  /// through them on every call, the serve plan only while compiling.
  Layer* layer = nullptr;
  /// The BatchNorm this stage applies, fused after its op or standalone.
  BatchNorm* bn_layer = nullptr;
  bool relu = false;  // a ReLU after the op (and after its BatchNorm)

  std::size_t in_elems() const {
    return static_cast<std::size_t>(in_c) * in_h * in_w;
  }
  std::size_t out_elems() const {
    return static_cast<std::size_t>(out_c) * out_h * out_w;
  }
  bool is_gemm() const {
    return kind == Kind::kConv || kind == Kind::kDepthwise ||
           kind == Kind::kDense;
  }
};

struct LoweredChain {
  std::vector<ChainStage> stages;
  /// First stage of the row-major flat suffix; stages before it form the
  /// spatial prefix (0 for rank-1 inputs).
  std::size_t flat_begin = 0;
  int input_features = 0;
  CompileFailure failure;  // code is kOk iff the chain lowered
};

/// Lower the layer tree `root` for [input] samples and `classes` logits.
LoweredChain lower_chain(Layer& root, const Shape& input, int classes);

/// The pool stage's forward over one sample, with the walk's window rule
/// (kernels::pool_window_argmax) and its fused ReLU.
void run_pool_stage(const ChainStage& s, const float* in, float* out);
/// A standalone ReLU stage over `rows` consecutive samples.
void run_relu_stage(const ChainStage& s, const float* in, float* out,
                    int rows);

}  // namespace orev::nn
