// Model: a named network (root layer + expected input shape + class count)
// with the inference and gradient entry points the attack library uses.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/blocks.hpp"
#include "nn/grad_plan.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"

namespace orev::nn {

class Model {
 public:
  /// `input_shape` excludes the batch axis (e.g. {1, 32, 32} for images,
  /// {4} for KPM feature vectors). `root` maps [N, ...input_shape] to
  /// [N, num_classes] logits.
  Model(std::string name, LayerPtr root, Shape input_shape, int num_classes);

  /// Moving a model drops its gradient plan; the next gradient call
  /// compiles a fresh one.
  Model(Model&& other) noexcept;
  Model& operator=(Model&& other) noexcept;

  /// Deep copy (layer tree, weights, running stats). Thread-safe against
  /// other concurrent clone()/forward-on-replica calls, which is what the
  /// parallel attack runner and evaluator rely on for per-worker replicas.
  Model clone() const;

  const std::string& name() const { return name_; }
  const Shape& input_shape() const { return input_shape_; }
  int num_classes() const { return num_classes_; }

  /// Forward pass producing [N, num_classes] logits. Accepts either a
  /// batched tensor or a single sample (which is auto-batched).
  Tensor forward(const Tensor& x, bool training = false);

  /// Inference-mode guard. A locked model rejects training-mode forwards,
  /// which are the only forwards that mutate layer state (BatchNorm
  /// running-stat updates, Dropout mask draws) — and whose state
  /// transitions depend on how samples are batched. Locking a model
  /// guarantees the batched path and the per-sample path run the exact
  /// same stateless computation, so logits are bit-identical either way
  /// (regression-tested in tests/test_serve.cpp). The serving engine
  /// locks every replica it owns.
  /// Locking also switches every layer into inference mode so forwards
  /// skip storing backward caches — the serving hot path neither copies
  /// activations nor allocates im2col buffers it will never backprop
  /// through.
  void set_inference_only(bool on) {
    inference_only_ = on;
    root_->set_inference_mode(on);
  }
  bool inference_only() const { return inference_only_; }

  /// Backpropagate dLoss/dLogits through the cached forward pass and
  /// return dLoss/dInput. Parameter gradients accumulate.
  Tensor backward(const Tensor& dlogits);

  /// Argmax predictions for a batch.
  std::vector<int> predict(const Tensor& x);

  /// Softmax probabilities for a batch.
  Tensor predict_proba(const Tensor& x);

  /// Predicted class of one (unbatched) sample. Runs the forward half of
  /// the gradient plan when the model compiles one (bit-identical logits).
  int predict_one(const Tensor& sample);

  /// Logits of one (unbatched) sample as a flat [C] tensor; the same path
  /// as predict_one.
  Tensor logits_one(const Tensor& sample);

  /// Gradient of the mean cross-entropy loss w.r.t. the input batch —
  /// the primitive that all gradient-based perturbation methods build on.
  /// Returned with a batch axis, [N, ...input_shape].
  ///
  /// The input-gradient calls run the model's nn::GradPlan (grad_plan.hpp)
  /// when its architecture compiles to one — forward plus the
  /// backward-data chain in plan-owned scratch, dx bit-identical to the
  /// layer walk's — and the walk otherwise. Parameter gradients are
  /// unspecified afterwards: the plan leaves them untouched and the walk
  /// accumulates into them. No caller reads them; the Trainer zeroes them
  /// before every step.
  Tensor input_gradient(const Tensor& x, const std::vector<int>& labels);

  /// The same gradient into a caller-owned tensor that takes x's own shape
  /// (batched or not). Its storage is reused when it already has that
  /// shape, so a loop of steps on one sample (PGD) allocates nothing after
  /// the first.
  void input_gradient_into(const Tensor& x, std::span<const int> labels,
                           Tensor& dx);

  /// Gradient of an arbitrary logits-space objective: caller supplies
  /// dObjective/dLogits.
  Tensor input_gradient_custom(const Tensor& x, const Tensor& dlogits);

  /// Why input gradients take the layer walk (kOk when this model runs
  /// a gradient plan). Compiles the plan if no call has yet.
  CompileError grad_plan_refusal();

  std::vector<Param*> params();
  void init(Rng& rng);
  void zero_grad();

  /// Total learnable scalar count.
  std::size_t num_parameters();

  /// Snapshot / restore all parameter values (used by the Trainer to keep
  /// the best-validation weights, and by defenses to copy models).
  std::vector<Tensor> weights();
  void set_weights(const std::vector<Tensor>& ws);

  /// Serialise every byte a resume needs to reproduce this model exactly:
  /// parameter tensors in params() order followed by the layer tree's
  /// persistent state (batch-norm running stats, dropout RNG engines).
  void write_state(persist::ByteWriter& w);

  /// Restore state written by write_state() on an identically-built model.
  /// Validates every shape against the live layer tree before touching it.
  persist::Status read_state(persist::ByteReader& r);

  /// Crash-safe binary serialisation: framed container with per-section
  /// CRCs, committed via write-temp → flush → rename. Loads reject
  /// truncated, bit-flipped or trailing-garbage files with a typed error.
  persist::Status save_status(const std::string& path);
  persist::Status load_status(const std::string& path);

  /// Thin bool wrappers over save_status()/load_status() for callers that
  /// only care about success.
  bool save(const std::string& path);
  bool load(const std::string& path);

  Layer& root() { return *root_; }

 private:
  Tensor batched(const Tensor& x) const;
  /// Rows of x after batched()'s shape checks, without its copy.
  int rows_of(const Tensor& x) const;
  /// The compiled plan, built on first use; null when refused.
  GradPlan* grad_plan();
  /// Forget the plan (and any refusal); the next use compiles again.
  void drop_plan();
  /// The input-gradient entry points' shared core: dLoss/dx of x's rows
  /// into dx (x.numel() floats). A null `dlogits` selects cross-entropy
  /// against `labels`.
  void gradient_rows(const Tensor& x, std::span<const int> labels,
                     const Tensor* dlogits, float* dx);
  /// The plan's logits of x's first row, or null when x takes the walk.
  const float* plan_logits_one(const Tensor& sample);

  std::string name_;
  LayerPtr root_;
  Shape input_shape_;
  int num_classes_;
  bool inference_only_ = false;
  std::unique_ptr<GradPlan> plan_;
  CompileError plan_refusal_ = CompileError::kOk;
  bool plan_tried_ = false;
};

}  // namespace orev::nn
