#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace orev::nn {

Tensor softmax(const Tensor& logits) { return softmax_t(logits, 1.0f); }

namespace {

/// softmax_t over n raw rows of c logits into out ([n, c] row-major).
void softmax_rows(const float* logits, int n, int c, float temperature,
                  float* out) {
  for (int i = 0; i < n; ++i) {
    const float* z = logits + static_cast<std::size_t>(i) * c;
    float* p = out + static_cast<std::size_t>(i) * c;
    float row_max = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < c; ++j) row_max = std::max(row_max, z[j] / temperature);
    double denom = 0.0;
    for (int j = 0; j < c; ++j) {
      const float e = std::exp(z[j] / temperature - row_max);
      p[j] = e;
      denom += e;
    }
    for (int j = 0; j < c; ++j) p[j] = static_cast<float>(p[j] / denom);
  }
}

}  // namespace

Tensor softmax_t(const Tensor& logits, float temperature) {
  OREV_CHECK(logits.rank() == 2, "softmax expects [N, C] logits");
  OREV_CHECK(temperature > 0.0f, "softmax temperature must be positive");
  const int n = logits.dim(0), c = logits.dim(1);
  Tensor out({n, c});
  softmax_rows(logits.raw(), n, c, temperature, out.raw());
  return out;
}

float cross_entropy_rows(const float* logits, std::span<const int> labels,
                         int c, float* dlogits) {
  const int n = static_cast<int>(labels.size());
  softmax_rows(logits, n, c, 1.0f, dlogits);
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (int i = 0; i < n; ++i) {
    const int y = labels[static_cast<std::size_t>(i)];
    OREV_CHECK(y >= 0 && y < c, "label out of range");
    float& p = dlogits[static_cast<std::size_t>(i) * c + y];
    loss -= std::log(std::max(p, 1e-12f));
    p -= 1.0f;
  }
  const std::size_t total = static_cast<std::size_t>(n) * c;
  for (std::size_t e = 0; e < total; ++e) dlogits[e] *= inv_n;
  return static_cast<float>(loss / n);
}

LossGrad cross_entropy_with_logits(const Tensor& logits,
                                   const std::vector<int>& labels) {
  OREV_CHECK(logits.rank() == 2, "cross_entropy expects [N, C] logits");
  const int n = logits.dim(0), c = logits.dim(1);
  OREV_CHECK(static_cast<int>(labels.size()) == n,
             "label count does not match batch");
  LossGrad out;
  out.dlogits = Tensor({n, c});
  out.loss = cross_entropy_rows(logits.raw(), labels, c, out.dlogits.raw());
  return out;
}

LossGrad soft_cross_entropy_with_logits(const Tensor& logits,
                                        const Tensor& targets,
                                        float temperature) {
  OREV_CHECK(logits.shape() == targets.shape(),
             "soft cross-entropy shape mismatch");
  const int n = logits.dim(0), c = logits.dim(1);
  Tensor probs = softmax_t(logits, temperature);
  LossGrad out;
  out.dlogits = Tensor({n, c});
  double loss = 0.0;
  const float inv = 1.0f / (static_cast<float>(n) * temperature);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < c; ++j) {
      loss -= double(targets.at2(i, j)) *
              std::log(std::max(probs.at2(i, j), 1e-12f));
      out.dlogits.at2(i, j) = (probs.at2(i, j) - targets.at2(i, j)) * inv;
    }
  }
  out.loss = static_cast<float>(loss / n);
  return out;
}

double accuracy(const Tensor& logits, const std::vector<int>& labels) {
  OREV_CHECK(logits.rank() == 2, "accuracy expects [N, C] logits");
  const int n = logits.dim(0), c = logits.dim(1);
  OREV_CHECK(static_cast<int>(labels.size()) == n, "label count mismatch");
  if (n == 0) return 0.0;
  int correct = 0;
  for (int i = 0; i < n; ++i)
    if (argmax_row(logits.raw() + static_cast<std::size_t>(i) * c, c) ==
        labels[static_cast<std::size_t>(i)])
      ++correct;
  return static_cast<double>(correct) / n;
}

double f1_score(const std::vector<int>& predictions,
                const std::vector<int>& labels, int num_classes) {
  OREV_CHECK(predictions.size() == labels.size(), "f1 size mismatch");
  OREV_CHECK(num_classes > 0, "f1 needs positive class count");
  if (predictions.empty()) return 0.0;

  double f1_sum = 0.0;
  for (int c = 0; c < num_classes; ++c) {
    int tp = 0, fp = 0, fn = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const bool pred_c = predictions[i] == c;
      const bool true_c = labels[i] == c;
      if (pred_c && true_c) ++tp;
      else if (pred_c) ++fp;
      else if (true_c) ++fn;
    }
    const double denom = 2.0 * tp + fp + fn;
    f1_sum += denom > 0 ? 2.0 * tp / denom : 0.0;
  }
  return f1_sum / num_classes;
}

}  // namespace orev::nn
