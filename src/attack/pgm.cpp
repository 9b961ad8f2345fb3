#include "attack/pgm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/obs/obs.hpp"

namespace orev::attack {

namespace {
// Surrogate gradient queries: every PGM step is one forward+backward, so
// an atomic increment here counts the attacker's total compute budget.
// Cost is negligible against the backprop it annotates.
obs::Counter& grad_query_counter() {
  static obs::Counter& c = obs::counter(
      "attack.pgm.grad_queries", "input-gradient queries against a model");
  return c;
}
}  // namespace

namespace {

/// Reduce a batched [1, ...] gradient back to the sample shape.
nn::Tensor unbatch(nn::Tensor g, const nn::Shape& sample_shape) {
  g.reshape(sample_shape);
  return g;
}

float sign(float v) { return v > 0.0f ? 1.0f : (v < 0.0f ? -1.0f : 0.0f); }

/// Index of the largest logit excluding `skip`.
int runner_up(const nn::Tensor& logits, int skip) {
  int best = skip == 0 ? 1 : 0;
  for (int j = 0; j < static_cast<int>(logits.numel()); ++j) {
    if (j == skip) continue;
    if (logits[static_cast<std::size_t>(j)] >
        logits[static_cast<std::size_t>(best)])
      best = j;
  }
  return best;
}

}  // namespace

void input_loss_gradient(nn::Model& model, const nn::Tensor& x, int label,
                         nn::Tensor& g) {
  grad_query_counter().inc();
  model.input_gradient_into(x, std::span<const int>(&label, 1), g);
}

nn::Tensor input_loss_gradient(nn::Model& model, const nn::Tensor& x,
                               int label) {
  nn::Tensor g;
  input_loss_gradient(model, x, label, g);
  return g;
}

nn::Tensor logit_diff_gradient(nn::Model& model, const nn::Tensor& x,
                               int logit_a, int logit_b) {
  grad_query_counter().inc();
  nn::Tensor d({1, model.num_classes()});
  d.at2(0, logit_a) = 1.0f;
  d.at2(0, logit_b) -= 1.0f;
  nn::Tensor g = model.input_gradient_custom(x, d);
  return unbatch(std::move(g), x.shape());
}

// --------------------------------------------------------------------- FGSM

Fgsm::Fgsm(float eps) : eps_(eps) {
  OREV_CHECK(eps > 0.0f, "FGSM eps must be positive");
}

nn::Tensor Fgsm::perturb(nn::Model& model, const nn::Tensor& x, int label) {
  const nn::Tensor g = input_loss_gradient(model, x, label);
  nn::Tensor adv = x;
  for (std::size_t i = 0; i < adv.numel(); ++i) adv[i] += eps_ * sign(g[i]);
  adv.clamp(0.0f, 1.0f);
  return adv;
}

nn::Tensor Fgsm::perturb_targeted(nn::Model& model, const nn::Tensor& x,
                                  int target) {
  // Descend the loss towards the target class.
  const nn::Tensor g = input_loss_gradient(model, x, target);
  nn::Tensor adv = x;
  for (std::size_t i = 0; i < adv.numel(); ++i) adv[i] -= eps_ * sign(g[i]);
  adv.clamp(0.0f, 1.0f);
  return adv;
}

// ---------------------------------------------------------------------- FGM

Fgm::Fgm(float eps) : eps_(eps) {
  OREV_CHECK(eps > 0.0f, "FGM eps must be positive");
}

nn::Tensor Fgm::perturb(nn::Model& model, const nn::Tensor& x, int label) {
  const nn::Tensor g = input_loss_gradient(model, x, label);
  const float n = g.norm2();
  nn::Tensor adv = x;
  if (n > 1e-12f) adv.add_scaled(g, eps_ / n);
  adv.clamp(0.0f, 1.0f);
  return adv;
}

nn::Tensor Fgm::perturb_targeted(nn::Model& model, const nn::Tensor& x,
                                 int target) {
  const nn::Tensor g = input_loss_gradient(model, x, target);
  const float n = g.norm2();
  nn::Tensor adv = x;
  if (n > 1e-12f) adv.add_scaled(g, -eps_ / n);
  adv.clamp(0.0f, 1.0f);
  return adv;
}

// ---------------------------------------------------------------------- PGD

Pgd::Pgd(float eps, int steps, float alpha, std::uint64_t seed)
    : eps_(eps),
      steps_(steps),
      alpha_(alpha > 0.0f ? alpha : 2.5f * eps / static_cast<float>(steps)),
      seed_(seed),
      rng_(seed) {
  OREV_CHECK(eps > 0.0f && steps > 0, "PGD parameters invalid");
}

nn::Tensor Pgd::run(nn::Model& model, const nn::Tensor& x, int cls,
                    bool targeted) {
  // Random start inside the ε-ball.
  nn::Tensor adv = x;
  for (std::size_t i = 0; i < adv.numel(); ++i)
    adv[i] += rng_.uniform(-eps_, eps_);
  adv.clamp(0.0f, 1.0f);

  const float dir = targeted ? -1.0f : 1.0f;
  nn::Tensor g;  // every step's gradient, in one buffer
  for (int step = 0; step < steps_; ++step) {
    input_loss_gradient(model, adv, cls, g);
    for (std::size_t i = 0; i < adv.numel(); ++i) {
      adv[i] += dir * alpha_ * sign(g[i]);
      // Project into the ℓ∞ ball around x, then into the data range.
      adv[i] = std::clamp(adv[i], x[i] - eps_, x[i] + eps_);
      adv[i] = std::clamp(adv[i], 0.0f, 1.0f);
    }
  }
  return adv;
}

nn::Tensor Pgd::perturb(nn::Model& model, const nn::Tensor& x, int label) {
  return run(model, x, label, /*targeted=*/false);
}

nn::Tensor Pgd::perturb_targeted(nn::Model& model, const nn::Tensor& x,
                                 int target) {
  return run(model, x, target, /*targeted=*/true);
}

// ---------------------------------------------------------------------- C&W

CarliniWagner::CarliniWagner(float c, float lr, int steps, float kappa)
    : c_(c), lr_(lr), steps_(steps), kappa_(kappa) {
  OREV_CHECK(c > 0.0f && lr > 0.0f && steps > 0, "C&W parameters invalid");
}

nn::Tensor CarliniWagner::run(nn::Model& model, const nn::Tensor& x, int cls,
                              bool targeted) {
  nn::Tensor r(x.shape());  // perturbation, optimised directly
  nn::Tensor m(x.shape());  // Adam first moment
  nn::Tensor v(x.shape());  // Adam second moment
  constexpr float kBeta1 = 0.9f, kBeta2 = 0.999f, kEpsAdam = 1e-8f;

  nn::Tensor best_adv = x;
  float best_norm = std::numeric_limits<float>::infinity();
  bool found = false;

  for (int step = 1; step <= steps_; ++step) {
    nn::Tensor adv = x + r;
    adv.clamp(0.0f, 1.0f);

    const nn::Tensor logits = model.logits_one(adv);
    // Margin objective:
    //   untargeted: f = Z_cls - max_{j != cls} Z_j  (positive while still
    //   classified as cls); targeted: f = max_{j != cls} Z_j - Z_cls.
    const int other = runner_up(logits, cls);
    const float margin = targeted
                             ? logits[static_cast<std::size_t>(other)] -
                                   logits[static_cast<std::size_t>(cls)]
                             : logits[static_cast<std::size_t>(cls)] -
                                   logits[static_cast<std::size_t>(other)];

    const bool success = margin < -kappa_;
    if (success) {
      const float n = r.norm2();
      if (n < best_norm) {
        best_norm = n;
        best_adv = adv;
        found = true;
      }
    }

    // Gradient of the total objective w.r.t. r.
    nn::Tensor grad = r;  // d(||r||^2)/dr = 2r, scaled below
    grad *= 2.0f;
    if (margin > -kappa_) {
      const nn::Tensor gm =
          targeted ? logit_diff_gradient(model, adv, other, cls)
                   : logit_diff_gradient(model, adv, cls, other);
      grad.add_scaled(gm, c_);
    }

    // Adam update on r.
    const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(step));
    const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(step));
    for (std::size_t i = 0; i < r.numel(); ++i) {
      m[i] = kBeta1 * m[i] + (1.0f - kBeta1) * grad[i];
      v[i] = kBeta2 * v[i] + (1.0f - kBeta2) * grad[i] * grad[i];
      r[i] -= lr_ * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + kEpsAdam);
    }
  }

  if (found) return best_adv;
  nn::Tensor adv = x + r;
  adv.clamp(0.0f, 1.0f);
  return adv;
}

nn::Tensor CarliniWagner::perturb(nn::Model& model, const nn::Tensor& x,
                                  int label) {
  return run(model, x, label, /*targeted=*/false);
}

nn::Tensor CarliniWagner::perturb_targeted(nn::Model& model,
                                           const nn::Tensor& x, int target) {
  return run(model, x, target, /*targeted=*/true);
}

// ----------------------------------------------------------------- DeepFool

DeepFool::DeepFool(int max_iter, float overshoot)
    : max_iter_(max_iter), overshoot_(overshoot) {
  OREV_CHECK(max_iter > 0 && overshoot >= 0.0f, "DeepFool parameters invalid");
}

nn::Tensor DeepFool::perturb(nn::Model& model, const nn::Tensor& x,
                             int label) {
  nn::Tensor adv = x;
  const int classes = model.num_classes();

  for (int iter = 0; iter < max_iter_; ++iter) {
    const nn::Tensor logits = model.logits_one(adv);
    int pred = static_cast<int>(logits.argmax());
    if (pred != label) break;  // boundary crossed

    // Find the nearest linearised boundary over all other classes.
    float best_dist = std::numeric_limits<float>::infinity();
    nn::Tensor best_w;
    float best_f = 0.0f;
    for (int j = 0; j < classes; ++j) {
      if (j == label) continue;
      const nn::Tensor w = logit_diff_gradient(model, adv, j, label);
      const float f = logits[static_cast<std::size_t>(j)] -
                      logits[static_cast<std::size_t>(label)];
      const float wn = w.norm2();
      if (wn < 1e-9f) continue;
      const float dist = std::abs(f) / wn;
      if (dist < best_dist) {
        best_dist = dist;
        best_w = w;
        best_f = f;
      }
    }
    if (best_w.empty()) break;  // degenerate gradients

    const float wn2 = best_w.norm2() * best_w.norm2();
    const float scale = (std::abs(best_f) + 1e-6f) / wn2;
    adv.add_scaled(best_w, (1.0f + overshoot_) * scale);
    adv.clamp(0.0f, 1.0f);
  }
  return adv;
}

nn::Tensor DeepFool::perturb_targeted(nn::Model& model, const nn::Tensor& x,
                                      int target) {
  // Targeted variant: step along the (Z_target - Z_pred) boundary until
  // the prediction lands on the target.
  nn::Tensor adv = x;
  for (int iter = 0; iter < max_iter_; ++iter) {
    const nn::Tensor logits = model.logits_one(adv);
    const int pred = static_cast<int>(logits.argmax());
    if (pred == target) break;

    const nn::Tensor w = logit_diff_gradient(model, adv, target, pred);
    const float f = logits[static_cast<std::size_t>(target)] -
                    logits[static_cast<std::size_t>(pred)];
    const float wn = w.norm2();
    if (wn < 1e-9f) break;
    const float scale = (std::abs(f) + 1e-6f) / (wn * wn);
    adv.add_scaled(w, (1.0f + overshoot_) * scale);
    adv.clamp(0.0f, 1.0f);
  }
  return adv;
}

}  // namespace orev::attack
