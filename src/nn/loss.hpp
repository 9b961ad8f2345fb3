// Classification losses: softmax cross-entropy over logits, plus a
// soft-label / temperature variant used by defensive distillation (§7).
#pragma once

#include <span>
#include <vector>

#include "nn/tensor.hpp"

namespace orev::nn {

/// Row-wise softmax of a [N, C] logits tensor.
Tensor softmax(const Tensor& logits);

/// Row-wise softmax with temperature T (T > 1 smooths the distribution);
/// used by defensive distillation teachers.
Tensor softmax_t(const Tensor& logits, float temperature);

/// Value and logits-gradient of the mean softmax cross-entropy loss.
struct LossGrad {
  float loss = 0.0f;
  Tensor dlogits;
};

/// Hard-label cross-entropy: labels[i] in [0, C).
LossGrad cross_entropy_with_logits(const Tensor& logits,
                                   const std::vector<int>& labels);

/// The arithmetic of cross_entropy_with_logits over labels.size() raw rows
/// of c logits: writes dLoss/dlogits ([n, c] row-major) and returns the
/// mean loss. nn::GradPlan calls it too, so both gradient paths start
/// from the same bits.
float cross_entropy_rows(const float* logits, std::span<const int> labels,
                         int c, float* dlogits);

/// Soft-label cross-entropy against target probability rows [N, C], with
/// optional softmax temperature on the logits.
LossGrad soft_cross_entropy_with_logits(const Tensor& logits,
                                        const Tensor& targets,
                                        float temperature = 1.0f);

/// Fraction of rows whose argmax matches the label.
double accuracy(const Tensor& logits, const std::vector<int>& labels);

/// Macro-averaged F1 score over `num_classes` classes.
double f1_score(const std::vector<int>& predictions,
                const std::vector<int>& labels, int num_classes);

}  // namespace orev::nn
