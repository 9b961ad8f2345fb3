// Perturbation Generation Method (PGM) interface — §4.2.2 / §A.3.
//
// A PGM maps one sample to an adversarial sample against a given model
// (in the black-box strategy this is always the *surrogate*; the
// perturbation then transfers to the victim). Methods come in two
// families:
//   * norm-bounded  — FGSM, PGD (perturbation confined to an ε-ball);
//   * norm-unbounded — C&W, DeepFool (minimal perturbation, no a-priori
//     bound; §4.2.2 notes these were unexplored in O-RAN).
// All methods clamp outputs to the valid data range [0, 1].
#pragma once

#include <memory>
#include <string>

#include "nn/model.hpp"

namespace orev::attack {

class Pgm;
using PgmPtr = std::unique_ptr<Pgm>;

class Pgm {
 public:
  virtual ~Pgm() = default;

  Pgm() = default;
  Pgm& operator=(const Pgm&) = delete;

  virtual std::string name() const = 0;

  /// Deep copy, including any internal RNG state. The parallel attack
  /// runner gives every worker its own replica so per-sample perturbation
  /// is free of shared mutable state.
  virtual PgmPtr clone() const = 0;

  /// Rebind the method's randomness (if any) to a counter-derived stream.
  /// Stateless methods ignore this; stochastic ones (PGD's random start)
  /// re-derive their generator from the construction seed and `stream_id`,
  /// making each sample's perturbation independent of visit order and
  /// thread schedule. No-op by default.
  virtual void reseed(std::uint64_t /*stream_id*/) {}

  /// Untargeted: perturb `x` (unbatched) away from class `label` under
  /// `model`'s decision function.
  virtual nn::Tensor perturb(nn::Model& model, const nn::Tensor& x,
                             int label) = 0;

  /// Targeted: perturb `x` towards class `target`.
  virtual nn::Tensor perturb_targeted(nn::Model& model, const nn::Tensor& x,
                                      int target) = 0;

  /// Whether the method bounds the perturbation norm a priori.
  virtual bool norm_bounded() const = 0;

 protected:
  /// Derived methods use the implicit member-wise copy in their clone().
  Pgm(const Pgm&) = default;
};

/// Gradient of the cross-entropy loss w.r.t. one unbatched input.
nn::Tensor input_loss_gradient(nn::Model& model, const nn::Tensor& x,
                               int label);

/// The same gradient into `g`, whose storage is reused when it already
/// has x's shape (iterative methods keep one buffer across steps).
void input_loss_gradient(nn::Model& model, const nn::Tensor& x, int label,
                         nn::Tensor& g);

/// Gradient of (logit_a - logit_b) w.r.t. one unbatched input.
nn::Tensor logit_diff_gradient(nn::Model& model, const nn::Tensor& x,
                               int logit_a, int logit_b);

// ----------------------------------------------------------- norm-bounded

/// Fast Gradient Sign Method (Goodfellow et al.): single signed-gradient
/// step of magnitude ε.
class Fgsm : public Pgm {
 public:
  explicit Fgsm(float eps);

  std::string name() const override { return "FGSM"; }
  PgmPtr clone() const override { return PgmPtr(new Fgsm(*this)); }
  bool norm_bounded() const override { return true; }
  nn::Tensor perturb(nn::Model& model, const nn::Tensor& x,
                     int label) override;
  nn::Tensor perturb_targeted(nn::Model& model, const nn::Tensor& x,
                              int target) override;

  float eps() const { return eps_; }

 private:
  float eps_;
};

/// Fast Gradient Method, the ℓ2 variant of FGSM: one step of L2 length ε
/// along the normalised loss gradient. Useful when the ε budget is an
/// energy (L2) constraint rather than a per-feature (ℓ∞) one — e.g. KPM
/// feature vectors where per-feature clamps are conspicuous.
class Fgm : public Pgm {
 public:
  explicit Fgm(float eps);

  std::string name() const override { return "FGM-L2"; }
  PgmPtr clone() const override { return PgmPtr(new Fgm(*this)); }
  bool norm_bounded() const override { return true; }
  nn::Tensor perturb(nn::Model& model, const nn::Tensor& x,
                     int label) override;
  nn::Tensor perturb_targeted(nn::Model& model, const nn::Tensor& x,
                              int target) override;

 private:
  float eps_;
};

/// Projected Gradient Descent (Madry et al.): iterated FGSM steps with
/// random initialisation, projected back into the ℓ∞ ε-ball each step.
class Pgd : public Pgm {
 public:
  Pgd(float eps, int steps = 10, float alpha = 0.0f,
      std::uint64_t seed = 0x96d);

  std::string name() const override { return "PGD"; }
  PgmPtr clone() const override { return PgmPtr(new Pgd(*this)); }
  bool norm_bounded() const override { return true; }

  /// Re-derive the random-start generator from the construction seed and
  /// a counter stream, so each sample's start is schedule-independent.
  void reseed(std::uint64_t stream_id) override {
    rng_ = Rng(seed_).split(stream_id);
  }

  nn::Tensor perturb(nn::Model& model, const nn::Tensor& x,
                     int label) override;
  nn::Tensor perturb_targeted(nn::Model& model, const nn::Tensor& x,
                              int target) override;

 private:
  nn::Tensor run(nn::Model& model, const nn::Tensor& x, int cls,
                 bool targeted);

  float eps_;
  int steps_;
  float alpha_;
  std::uint64_t seed_;
  Rng rng_;
};

// --------------------------------------------------------- norm-unbounded

/// Carlini & Wagner L2: minimise ||r||₂² + c · f(x + r) by gradient
/// descent on r, where f is the logit-margin surrogate objective.
class CarliniWagner : public Pgm {
 public:
  CarliniWagner(float c = 1.0f, float lr = 0.05f, int steps = 40,
                float kappa = 0.0f);

  std::string name() const override { return "C&W"; }
  PgmPtr clone() const override { return PgmPtr(new CarliniWagner(*this)); }
  bool norm_bounded() const override { return false; }
  nn::Tensor perturb(nn::Model& model, const nn::Tensor& x,
                     int label) override;
  nn::Tensor perturb_targeted(nn::Model& model, const nn::Tensor& x,
                              int target) override;

 private:
  nn::Tensor run(nn::Model& model, const nn::Tensor& x, int cls,
                 bool targeted);

  float c_;
  float lr_;
  int steps_;
  float kappa_;
};

/// DeepFool (Moosavi-Dezfooli et al.): iterative minimal perturbation to
/// the nearest linearised decision boundary, with overshoot.
class DeepFool : public Pgm {
 public:
  explicit DeepFool(int max_iter = 30, float overshoot = 0.02f);

  std::string name() const override { return "DeepFool"; }
  PgmPtr clone() const override { return PgmPtr(new DeepFool(*this)); }
  bool norm_bounded() const override { return false; }
  nn::Tensor perturb(nn::Model& model, const nn::Tensor& x,
                     int label) override;
  nn::Tensor perturb_targeted(nn::Model& model, const nn::Tensor& x,
                              int target) override;

 private:
  int max_iter_;
  float overshoot_;
};

}  // namespace orev::attack
