#include "serve/compiled.hpp"

#include <algorithm>

#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "nn/kernels.hpp"
#include "util/check.hpp"

namespace orev::serve {

const char* compile_error_name(CompileError e) {
  switch (e) {
    case CompileError::kOk: return "ok";
    case CompileError::kNonSequentialRoot: return "non-sequential-root";
    case CompileError::kUnsupportedLayer: return "unsupported-layer";
    case CompileError::kNotInferenceMode: return "not-inference-mode";
    case CompileError::kBadDims: return "bad-dims";
    case CompileError::kShapeMismatch: return "shape-mismatch";
    case CompileError::kNonFiniteStats: return "non-finite-stats";
  }
  return "unknown";
}

std::optional<CompiledMlp> CompiledMlp::compile(nn::Model& model) {
  auto* seq = dynamic_cast<nn::Sequential*>(&model.root());
  if (seq == nullptr) return std::nullopt;
  if (model.input_shape().size() != 1) return std::nullopt;

  CompiledMlp plan;
  plan.in0_ = model.input_shape()[0];
  plan.classes_ = model.num_classes();
  int width = plan.in0_;
  for (std::size_t i = 0; i < seq->size(); ++i) {
    nn::Layer& l = seq->layer(i);
    if (auto* d = dynamic_cast<nn::Dense*>(&l)) {
      if (d->in_features() != width) return std::nullopt;
      const std::vector<nn::Param*> ps = d->params();
      Stage s;
      s.in = d->in_features();
      s.out = d->out_features();
      const nn::Tensor& w = ps[0]->value;  // [out, in] row-major
      s.bt.resize(static_cast<std::size_t>(s.in) * s.out);
      for (int o = 0; o < s.out; ++o)
        for (int kk = 0; kk < s.in; ++kk)
          s.bt[static_cast<std::size_t>(kk) * s.out + o] = static_cast<double>(
              w.raw()[static_cast<std::size_t>(o) * s.in + kk]);
      if (ps.size() == 2) {
        const nn::Tensor& b = ps[1]->value;
        s.bias.assign(b.raw(), b.raw() + b.numel());
      }
      width = s.out;
      plan.stages_.push_back(std::move(s));
    } else if (dynamic_cast<nn::ReLU*>(&l) != nullptr) {
      if (plan.stages_.empty() || plan.stages_.back().relu)
        return std::nullopt;
      plan.stages_.back().relu = true;
    } else {
      return std::nullopt;
    }
  }
  if (plan.stages_.empty() || width != plan.classes_) return std::nullopt;
  return plan;
}

std::vector<int> CompiledMlp::predict(const nn::Tensor& batch) {
  OREV_CHECK(batch.rank() == 2 && batch.dim(1) == in0_,
             "CompiledMlp::predict expects [m, in_features]");
  return predict_rows(batch.raw(), batch.dim(0));
}

std::vector<int> CompiledMlp::predict_rows(const float* rows, int m) {
  int max_width = 0;
  for (const Stage& s : stages_) max_width = std::max(max_width, s.out);
  const std::size_t cap =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(max_width);
  if (buf_a_.size() < cap) buf_a_.resize(cap);
  if (buf_b_.size() < cap) buf_b_.resize(cap);

  const float* cur = rows;
  float* nxt = buf_a_.data();
  for (const Stage& s : stages_) {
    nn::kernels::dense_stage(cur, s.bt.data(),
                             s.bias.empty() ? nullptr : s.bias.data(), s.relu,
                             nxt, m, s.in, s.out);
    cur = nxt;
    nxt = nxt == buf_a_.data() ? buf_b_.data() : buf_a_.data();
  }

  // Argmax with the exact comparison order of nn::Model::predict: strict
  // greater-than with the first maximum winning.
  std::vector<int> out(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const float* logits = cur + static_cast<std::size_t>(i) * classes_;
    int best = 0;
    for (int j = 1; j < classes_; ++j)
      if (logits[j] > logits[best]) best = j;
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

}  // namespace orev::serve
