// Int8 quantized serving tier (DESIGN.md §12).
//
// CompiledInt8 is the one *explicitly non-bit-exact* plan family in the
// serving stack. It mirrors a CompiledCnn stage list but runs every GEMM
// stage (Conv2D / DepthwiseConv2D / Dense) in int8:
//
//   * weights — per-output-channel symmetric quantization:
//     sw[c] = max|W[c, :]| / 127, wq = clamp(round(w / sw[c]), ±127);
//   * activations — per-tensor, per-stage symmetric scales calibrated by
//     running the *float* plan over a seed-deterministic sample set and
//     recording each GEMM stage's max|input| (sx = max|x| / 127, floored
//     so constant / denormal-adjacent / extreme-range distributions all
//     produce finite, usable scales — fuzzed in tests);
//   * integer dot products via nn::kernels::s8_gemm (exact in the integer
//     domain), dequantized as float(acc32) · (sx · sw[c]) + bias;
//   * BatchNorm / ReLU epilogues and MaxPool stages stay float.
//
// Because predictions can differ from the float plan, the engine refuses
// to route traffic to this tier unless the accuracy gate passes: clean
// accuracy and PGM/UAP attack-success rates on caller-supplied evaluation
// sets must stay within QuantTierConfig tolerances of the float plan
// (see ServeEngine::activate_int8_tier). A failed gate increments the
// serve.<name>.quant_rejected counter and leaves the float tier serving.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/compiled_cnn.hpp"

namespace orev::serve {

/// Per-model int8 tier selection, carried in ServeConfig.
struct QuantTierConfig {
  /// Off by default: the float tier is the bit-exactness contract.
  bool enable = false;
  /// Max rows of the clean evaluation set used for activation calibration.
  int calib_samples = 64;
  /// Gate: max tolerated |clean_accuracy(float) − clean_accuracy(int8)|.
  double tol_clean = 0.02;
  /// Gate: max tolerated |attack_success(float) − attack_success(int8)|.
  double tol_attack = 0.05;
};

/// Outcome of one int8 activation attempt (ServeEngine::activate_int8_tier).
struct QuantGateReport {
  bool attempted = false;
  bool activated = false;
  int eval_samples = 0;
  int adv_samples = 0;
  double acc_float = 0.0, acc_int8 = 0.0;
  double asr_float = 0.0, asr_int8 = 0.0;
  double clean_delta = 0.0, attack_delta = 0.0;
  std::string reason;  // human-readable gate verdict
};

class CompiledInt8 : public CompiledPlan {
 public:
  /// Quantize `plan`'s weights and calibrate activation scales by running
  /// the float plan over `calib_rows` ([m, input_features], m >= 1).
  /// Returns nullptr (and fills `why`) on non-finite weights/activations
  /// or an empty calibration set — never throws for data reasons.
  static std::unique_ptr<CompiledInt8> build(CompiledCnn& plan,
                                             const float* calib_rows, int m,
                                             nn::CompileFailure* why = nullptr);

  std::vector<int> predict_rows(const float* rows, int m) override;

  int input_features() const override { return in0_; }
  int num_classes() const override { return classes_; }
  const char* kind() const override { return "int8"; }

  /// Per-stage activation scale (0 for non-GEMM stages) — exposed so the
  /// calibrator fuzz tests can assert every scale is finite and positive.
  const std::vector<float>& stage_scales() const { return scales_; }

 private:
  struct QStage {
    CnnStage s;                    // float metadata + BN/ReLU epilogues
    float sx = 1.0f;               // per-tensor input scale
    std::vector<float> sw;         // per-output-channel weight scales
    std::vector<std::int8_t> wq;   // quantized weights, natural layout
  };

  void ensure_scratch(int m);
  void run_batch(const float* rows, int m, float* logits_out);

  std::vector<QStage> stages_;
  std::vector<float> scales_;
  int in0_ = 0;
  int classes_ = 0;
  std::size_t max_elems_ = 0;
  std::size_t q8_cap_ = 0;    // widest GEMM-stage input, per sample
  std::size_t cols_cap_ = 0;  // widest int8 im2col matrix, per sample
  std::size_t acc_cap_ = 0;   // widest int32 GEMM output, per sample
  std::vector<float> buf_a_, buf_b_;
  std::vector<std::int8_t> q8_, cols8_;
  std::vector<std::int32_t> acc32_;
};

}  // namespace orev::serve
