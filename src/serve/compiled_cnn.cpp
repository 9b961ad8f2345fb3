#include "serve/compiled_cnn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "nn/kernels.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

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

namespace {

CompiledCnn::CompileResult fail(CompileError code, std::string detail) {
  CompiledCnn::CompileResult r;
  r.failure.code = code;
  r.failure.detail = std::move(detail);
  return r;
}

bool all_finite(const float* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(p[i])) return false;
  return true;
}

/// Snapshot a BatchNorm's inference-time affine parameters into a stage,
/// computing invstd exactly as the walk does: 1.0f / sqrt(var + eps).
bool snapshot_bn(nn::BatchNorm& bn, CnnStage& s) {
  const int ch = bn.channels();
  const std::vector<nn::Param*> ps = bn.params();  // {gamma, beta}
  s.bn_gamma.assign(ps[0]->value.raw(), ps[0]->value.raw() + ch);
  s.bn_beta.assign(ps[1]->value.raw(), ps[1]->value.raw() + ch);
  s.bn_mean.assign(bn.running_mean().raw(), bn.running_mean().raw() + ch);
  s.bn_invstd.resize(static_cast<std::size_t>(ch));
  for (int c = 0; c < ch; ++c) {
    s.bn_invstd[static_cast<std::size_t>(c)] =
        1.0f / std::sqrt(bn.running_var().raw()[c] + bn.eps());
  }
  return all_finite(s.bn_invstd.data(), s.bn_invstd.size()) &&
         all_finite(s.bn_mean.data(), s.bn_mean.size()) &&
         all_finite(s.bn_gamma.data(), s.bn_gamma.size()) &&
         all_finite(s.bn_beta.data(), s.bn_beta.size());
}

/// The fused per-element epilogue, in the walk's exact op order: the
/// GEMM/accumulator value first takes the stage's own bias (already done
/// by the caller), then BatchNorm's (v − mean)·invstd·γ + β, then ReLU.
inline float epilogue_bn_relu(const CnnStage& s, int c, float v) {
  if (s.bn) {
    const float xh = (v - s.bn_mean[static_cast<std::size_t>(c)]) *
                     s.bn_invstd[static_cast<std::size_t>(c)];
    v = s.bn_gamma[static_cast<std::size_t>(c)] * xh +
        s.bn_beta[static_cast<std::size_t>(c)];
  }
  if (s.relu) v = std::max(v, 0.0f);
  return v;
}

}  // namespace

void run_pool_stage(const CnnStage& s, const float* in, float* out) {
  if (s.k == 2 && s.stride == 2)
    return nn::kernels::max_pool2x2(in, s.in_c, s.in_h, s.in_w, s.relu, out);
  const int ihw = s.in_h * s.in_w;
  const int ohw = s.out_h * s.out_w;
  for (int c = 0; c < s.in_c; ++c) {
    const float* plane = in + static_cast<std::size_t>(c) * ihw;
    float* oplane = out + static_cast<std::size_t>(c) * ohw;
    for (int oy = 0; oy < s.out_h; ++oy) {
      for (int ox = 0; ox < s.out_w; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        for (int ky = 0; ky < s.k; ++ky) {
          const int iy = oy * s.stride + ky;
          for (int kx = 0; kx < s.k; ++kx) {
            const int ix = ox * s.stride + kx;
            const float v = plane[static_cast<std::size_t>(iy) * s.in_w + ix];
            if (v > best) best = v;
          }
        }
        if (s.relu) best = std::max(best, 0.0f);
        oplane[static_cast<std::size_t>(oy) * s.out_w + ox] = best;
      }
    }
  }
}

void run_bn_stage(const CnnStage& s, const float* in, float* out) {
  const int sp = s.in_h * s.in_w;  // 1 for flat features
  for (int c = 0; c < s.in_c; ++c) {
    const float* ip = in + static_cast<std::size_t>(c) * sp;
    float* op = out + static_cast<std::size_t>(c) * sp;
    for (int p = 0; p < sp; ++p) {
      const float xh = (ip[p] - s.bn_mean[static_cast<std::size_t>(c)]) *
                       s.bn_invstd[static_cast<std::size_t>(c)];
      float v = s.bn_gamma[static_cast<std::size_t>(c)] * xh +
                s.bn_beta[static_cast<std::size_t>(c)];
      if (s.relu) v = std::max(v, 0.0f);
      op[p] = v;
    }
  }
}

void run_relu_stage(const CnnStage& s, const float* in, float* out) {
  const std::size_t n = s.in_elems();
  for (std::size_t i = 0; i < n; ++i) out[i] = std::max(in[i], 0.0f);
}

CompiledCnn::CompileResult CompiledCnn::compile(nn::Model& model) {
  if (!model.inference_only())
    return fail(CompileError::kNotInferenceMode,
                "model must be inference-locked before compilation "
                "(BatchNorm running stats are snapshotted)");
  auto* seq = dynamic_cast<nn::Sequential*>(&model.root());
  if (seq == nullptr)
    return fail(CompileError::kNonSequentialRoot,
                "root layer is " + model.root().name() +
                    ", not a flat Sequential");

  const nn::Shape& in_shape = model.input_shape();
  bool flat = false;
  int c = 0, h = 1, w = 1;
  if (in_shape.size() == 3) {
    c = in_shape[0];
    h = in_shape[1];
    w = in_shape[2];
  } else if (in_shape.size() == 1) {
    flat = true;
    c = in_shape[0];
  } else {
    return fail(CompileError::kBadDims,
                "input must be [C, H, W] or [F], got rank " +
                    std::to_string(in_shape.size()));
  }
  if (c <= 0 || h <= 0 || w <= 0)
    return fail(CompileError::kBadDims, "input has a non-positive extent");

  auto plan = std::unique_ptr<CompiledCnn>(new CompiledCnn());
  plan->in0_ = c * h * w;
  plan->classes_ = model.num_classes();
  std::vector<CnnStage>& stages = plan->stages_;

  // A BatchNorm fuses into the stage before it only when that stage's
  // output channels are the BatchNorm's channels: after Flatten a
  // BatchNorm indexes flattened features, which a conv stage's
  // per-channel epilogue cannot express.
  auto bn_host = [&](int channels) -> CnnStage* {
    if (stages.empty()) return nullptr;
    CnnStage& s = stages.back();
    return (s.is_gemm() && !s.bn && !s.relu && s.out_c == channels) ? &s
                                                                     : nullptr;
  };

  for (std::size_t li = 0; li < seq->size(); ++li) {
    nn::Layer& l = seq->layer(li);
    if (auto* conv = dynamic_cast<nn::Conv2D*>(&l)) {
      if (flat)
        return fail(CompileError::kShapeMismatch,
                    "Conv2D after the input was flattened");
      if (conv->in_channels() != c)
        return fail(CompileError::kShapeMismatch,
                    "Conv2D expects " + std::to_string(conv->in_channels()) +
                        " channels, pipeline carries " + std::to_string(c));
      const int oh = conv->out_height(h), ow = conv->out_width(w);
      if (oh <= 0 || ow <= 0)
        return fail(CompileError::kBadDims,
                    "Conv2D output collapses to zero size");
      CnnStage s;
      s.kind = CnnStage::Kind::kConv;
      s.in_c = c;
      s.in_h = h;
      s.in_w = w;
      s.out_c = conv->out_channels();
      s.out_h = oh;
      s.out_w = ow;
      s.k = conv->kernel();
      s.stride = conv->stride();
      s.pad = conv->padding();
      s.geom = nn::kernels::conv_geometry(c, h, w, s.k, s.stride, s.pad);
      const std::vector<nn::Param*> ps = conv->params();
      const nn::Tensor& wt = ps[0]->value;  // [out_c, patch]
      s.weight.assign(wt.raw(), wt.raw() + wt.numel());
      // conv_stage reads the filter bank in its natural [out_c, patch]
      // layout (pixel lanes, not column tiles) — widen in place.
      s.bt.resize(wt.numel());
      for (std::size_t e = 0; e < wt.numel(); ++e)
        s.bt[e] = static_cast<double>(wt.raw()[e]);
      // The walk adds the bias term unconditionally (0.0f when bias-less).
      s.bias.assign(static_cast<std::size_t>(s.out_c), 0.0f);
      if (conv->has_bias()) {
        const nn::Tensor& b = ps[1]->value;
        s.bias.assign(b.raw(), b.raw() + b.numel());
      }
      c = s.out_c;
      h = oh;
      w = ow;
      stages.push_back(std::move(s));
    } else if (auto* dw = dynamic_cast<nn::DepthwiseConv2D*>(&l)) {
      if (flat)
        return fail(CompileError::kShapeMismatch,
                    "DepthwiseConv2D after the input was flattened");
      if (dw->channels() != c)
        return fail(CompileError::kShapeMismatch,
                    "DepthwiseConv2D channel mismatch");
      const int oh = (h + 2 * dw->padding() - dw->kernel()) / dw->stride() + 1;
      const int ow = (w + 2 * dw->padding() - dw->kernel()) / dw->stride() + 1;
      if (oh <= 0 || ow <= 0)
        return fail(CompileError::kBadDims,
                    "DepthwiseConv2D output collapses to zero size");
      CnnStage s;
      s.kind = CnnStage::Kind::kDepthwise;
      s.in_c = c;
      s.in_h = h;
      s.in_w = w;
      s.out_c = c;
      s.out_h = oh;
      s.out_w = ow;
      s.k = dw->kernel();
      s.stride = dw->stride();
      s.pad = dw->padding();
      const std::vector<nn::Param*> ps = dw->params();  // {weight, bias}
      s.weight.assign(ps[0]->value.raw(),
                      ps[0]->value.raw() + ps[0]->value.numel());
      s.bias.assign(ps[1]->value.raw(),
                    ps[1]->value.raw() + ps[1]->value.numel());
      h = oh;
      w = ow;
      stages.push_back(std::move(s));
    } else if (auto* pool = dynamic_cast<nn::MaxPool2D*>(&l)) {
      if (flat)
        return fail(CompileError::kShapeMismatch,
                    "MaxPool2D after the input was flattened");
      const int oh = (h - pool->kernel()) / pool->stride() + 1;
      const int ow = (w - pool->kernel()) / pool->stride() + 1;
      if (oh <= 0 || ow <= 0 || pool->kernel() > h || pool->kernel() > w)
        return fail(CompileError::kBadDims,
                    "MaxPool2D output collapses to zero size");
      CnnStage s;
      s.kind = CnnStage::Kind::kPool;
      s.in_c = c;
      s.in_h = h;
      s.in_w = w;
      s.out_c = c;
      s.out_h = oh;
      s.out_w = ow;
      s.k = pool->kernel();
      s.stride = pool->stride();
      h = oh;
      w = ow;
      stages.push_back(std::move(s));
    } else if (auto* bn = dynamic_cast<nn::BatchNorm*>(&l)) {
      if (bn->channels() != c)
        return fail(CompileError::kShapeMismatch, "BatchNorm channel mismatch");
      if (CnnStage* host = bn_host(c)) {
        if (!snapshot_bn(*bn, *host))
          return fail(CompileError::kNonFiniteStats,
                      "BatchNorm running stats produce non-finite scales");
        host->bn = true;
      } else {
        CnnStage s;
        s.kind = CnnStage::Kind::kBatchNorm;
        s.in_c = c;
        s.in_h = flat ? 1 : h;
        s.in_w = flat ? 1 : w;
        s.out_c = c;
        s.out_h = s.in_h;
        s.out_w = s.in_w;
        if (!snapshot_bn(*bn, s))
          return fail(CompileError::kNonFiniteStats,
                      "BatchNorm running stats produce non-finite scales");
        s.bn = true;
        stages.push_back(std::move(s));
      }
    } else if (dynamic_cast<nn::ReLU*>(&l) != nullptr) {
      if (!stages.empty() && !stages.back().relu) {
        stages.back().relu = true;
      } else {
        CnnStage s;
        s.kind = CnnStage::Kind::kRelu;
        s.in_c = c;
        s.in_h = flat ? 1 : h;
        s.in_w = flat ? 1 : w;
        s.out_c = c;
        s.out_h = s.in_h;
        s.out_w = s.in_w;
        s.relu = true;
        stages.push_back(std::move(s));
      }
    } else if (dynamic_cast<nn::Flatten*>(&l) != nullptr) {
      if (!flat) {
        flat = true;
        plan->flat_begin_ = stages.size();
        c = c * h * w;
        h = 1;
        w = 1;
      }
    } else if (dynamic_cast<nn::Dropout*>(&l) != nullptr) {
      // Identity at inference.
    } else if (auto* d = dynamic_cast<nn::Dense*>(&l)) {
      if (!flat)
        return fail(CompileError::kShapeMismatch,
                    "Dense over a spatial tensor (missing Flatten)");
      if (d->in_features() != c)
        return fail(CompileError::kShapeMismatch,
                    "Dense expects " + std::to_string(d->in_features()) +
                        " features, pipeline carries " + std::to_string(c));
      CnnStage s;
      s.kind = CnnStage::Kind::kDense;
      s.in_c = c;
      s.out_c = d->out_features();
      const std::vector<nn::Param*> ps = d->params();
      const nn::Tensor& wt = ps[0]->value;  // [out, in]
      s.weight.assign(wt.raw(), wt.raw() + wt.numel());
      s.bt.resize(static_cast<std::size_t>(s.in_c) * s.out_c);
      for (int o = 0; o < s.out_c; ++o)
        for (int kk = 0; kk < s.in_c; ++kk)
          s.bt[static_cast<std::size_t>(kk) * s.out_c + o] =
              static_cast<double>(
                  wt.raw()[static_cast<std::size_t>(o) * s.in_c + kk]);
      if (ps.size() == 2) {
        s.has_bias = true;
        const nn::Tensor& b = ps[1]->value;
        s.bias.assign(b.raw(), b.raw() + b.numel());
      }
      c = s.out_c;
      stages.push_back(std::move(s));
    } else {
      return fail(CompileError::kUnsupportedLayer,
                  "unsupported layer " + l.name());
    }
  }

  if (stages.empty())
    return fail(CompileError::kBadDims, "model compiles to zero stages");
  if (!flat || c != plan->classes_)
    return fail(CompileError::kShapeMismatch,
                "model does not end in " + std::to_string(plan->classes_) +
                    " flat logits");

  // Scratch capacities: per sample for the prefix, per row for the suffix.
  for (std::size_t si = 0; si < stages.size(); ++si) {
    const CnnStage& s = stages[si];
    if (si >= plan->flat_begin_) {
      plan->flat_elems_ =
          std::max({plan->flat_elems_, s.in_elems(), s.out_elems()});
      continue;
    }
    plan->prefix_elems_ = std::max(plan->prefix_elems_, s.out_elems());
  }

  CompileResult r;
  r.plan = std::move(plan);
  return r;
}

void CompiledCnn::ensure_scratch(int m) {
  const std::size_t mm = static_cast<std::size_t>(m);
  if (buf_a_.size() < mm * prefix_elems_) buf_a_.resize(mm * prefix_elems_);
  if (buf_b_.size() < mm * prefix_elems_) buf_b_.resize(mm * prefix_elems_);
  if (flat_a_.size() < mm * flat_elems_) flat_a_.resize(mm * flat_elems_);
  if (flat_b_.size() < mm * flat_elems_) flat_b_.resize(mm * flat_elems_);
}

void CompiledCnn::run_batch(const float* rows, int m, float* logits_out,
                            std::vector<float>* maxabs) {
  ensure_scratch(m);
  if (maxabs != nullptr) maxabs->assign(stages_.size(), 0.0f);
  auto note_maxabs = [&](std::size_t si, const float* in, std::size_t n) {
    if (maxabs == nullptr || !stages_[si].is_gemm()) return;
    float mx = (*maxabs)[si];
    for (std::size_t e = 0; e < n; ++e) mx = std::max(mx, std::fabs(in[e]));
    (*maxabs)[si] = mx;
  };

  // Spatial prefix, one sample at a time. Its last stage writes the
  // sample's flattened row into the suffix input (or the logits when the
  // model ends at Flatten).
  const std::size_t nstages = stages_.size();
  float* handoff = flat_begin_ == nstages ? logits_out : flat_a_.data();
  const std::size_t width =
      flat_begin_ > 0 ? stages_[flat_begin_ - 1].out_elems() : 0;
  auto run_sample = [&](std::int64_t i) {
    float* a = buf_a_.data() + static_cast<std::size_t>(i) * prefix_elems_;
    float* b = buf_b_.data() + static_cast<std::size_t>(i) * prefix_elems_;
    const float* cur = rows + static_cast<std::size_t>(i) * in0_;
    for (std::size_t si = 0; si < flat_begin_; ++si) {
      const CnnStage& s = stages_[si];
      float* dst = si + 1 == flat_begin_
                       ? handoff + static_cast<std::size_t>(i) * width
                       : (cur == a ? b : a);
      note_maxabs(si, cur, s.in_elems());
      switch (s.kind) {
        case CnnStage::Kind::kConv: {
          // Packed-plane conv writing each channel plane of dst — bias/BN/
          // ReLU fused in the kernel with the walk's exact per-element op
          // order; its packing scratch is per thread.
          nn::kernels::ConvEpilogue e;
          e.bias = s.bias.data();
          if (s.bn) {
            e.bn_mean = s.bn_mean.data();
            e.bn_invstd = s.bn_invstd.data();
            e.bn_gamma = s.bn_gamma.data();
            e.bn_beta = s.bn_beta.data();
          }
          e.relu = s.relu;
          nn::kernels::conv_forward(cur, s.geom, s.bt.data(), e, s.out_c, dst);
          break;
        }
        case CnnStage::Kind::kDepthwise: {
          const int ihw = s.in_h * s.in_w;
          const int ohw = s.out_h * s.out_w;
          for (int cc = 0; cc < s.in_c; ++cc) {
            const float* plane = cur + static_cast<std::size_t>(cc) * ihw;
            const float* kern =
                s.weight.data() + static_cast<std::size_t>(cc) * s.k * s.k;
            float* oplane = dst + static_cast<std::size_t>(cc) * ohw;
            for (int oy = 0; oy < s.out_h; ++oy) {
              for (int ox = 0; ox < s.out_w; ++ox) {
                // Float accumulator seeded with the bias and implicit
                // (skipped) zero padding — the walk's exact op order.
                float acc = s.bias[static_cast<std::size_t>(cc)];
                for (int ky = 0; ky < s.k; ++ky) {
                  const int iy = oy * s.stride - s.pad + ky;
                  if (iy < 0 || iy >= s.in_h) continue;
                  for (int kx = 0; kx < s.k; ++kx) {
                    const int ix = ox * s.stride - s.pad + kx;
                    if (ix < 0 || ix >= s.in_w) continue;
                    acc += kern[ky * s.k + kx] *
                           plane[static_cast<std::size_t>(iy) * s.in_w + ix];
                  }
                }
                oplane[static_cast<std::size_t>(oy) * s.out_w + ox] =
                    epilogue_bn_relu(s, cc, acc);
              }
            }
          }
          break;
        }
        case CnnStage::Kind::kPool:
          run_pool_stage(s, cur, dst);
          break;
        case CnnStage::Kind::kBatchNorm:
          run_bn_stage(s, cur, dst);
          break;
        case CnnStage::Kind::kRelu:
          run_relu_stage(s, cur, dst);
          break;
        case CnnStage::Kind::kDense:  // never before Flatten
          break;
      }
      cur = dst;
    }
  };
  if (flat_begin_ > 0 && maxabs != nullptr) {
    // Calibration path: serial so the shared maxabs accumulators are safe
    // (and deterministic regardless of pool size).
    for (int i = 0; i < m; ++i) run_sample(i);
  } else if (flat_begin_ > 0) {
    // Sample-parallel with disjoint per-sample scratch slices (and
    // per-thread conv packing scratch): identical arithmetic per sample
    // at every thread count.
    util::parallel_for(0, m, 1, run_sample);
  }

  // Flat suffix, stage-major over all m rows ([m, width] row-major).
  const float* cur = flat_begin_ > 0 ? handoff : rows;
  for (std::size_t si = flat_begin_; si < nstages; ++si) {
    const CnnStage& s = stages_[si];
    float* dst = si + 1 == nstages ? logits_out
                 : cur == flat_a_.data() ? flat_b_.data()
                                         : flat_a_.data();
    const std::size_t in_w = s.in_elems(), out_w = s.out_elems();
    note_maxabs(si, cur, static_cast<std::size_t>(m) * in_w);
    switch (s.kind) {
      case CnnStage::Kind::kDense:
        // Bias and ReLU ride in the kernel; a fused BatchNorm sits
        // between them, so then the kernel adds only the bias.
        nn::kernels::dense_stage(cur, s.bt.data(),
                                 s.has_bias ? s.bias.data() : nullptr,
                                 s.relu && !s.bn, dst, m, s.in_c, s.out_c);
        if (s.bn) {
          for (int i = 0; i < m; ++i) {
            float* row = dst + static_cast<std::size_t>(i) * out_w;
            for (int j = 0; j < s.out_c; ++j)
              row[j] = epilogue_bn_relu(s, j, row[j]);
          }
        }
        break;
      case CnnStage::Kind::kBatchNorm:
        for (int i = 0; i < m; ++i)
          run_bn_stage(s, cur + static_cast<std::size_t>(i) * in_w,
                       dst + static_cast<std::size_t>(i) * out_w);
        break;
      case CnnStage::Kind::kRelu:
        for (int i = 0; i < m; ++i)
          run_relu_stage(s, cur + static_cast<std::size_t>(i) * in_w,
                         dst + static_cast<std::size_t>(i) * out_w);
        break;
      case CnnStage::Kind::kConv:  // spatial kinds never follow Flatten
      case CnnStage::Kind::kDepthwise:
      case CnnStage::Kind::kPool:
        break;
    }
    cur = dst;
  }
}

void CompiledCnn::logits_rows(const float* rows, int m, float* out) {
  run_batch(rows, m, out, nullptr);
}

nn::Tensor CompiledCnn::logits(const nn::Tensor& batch) {
  OREV_CHECK(batch.rank() >= 2 &&
                 batch.numel() ==
                     static_cast<std::size_t>(batch.dim(0)) * in0_,
             "CompiledCnn::logits expects [m, ...input_shape]");
  nn::Tensor out({batch.dim(0), classes_});
  run_batch(batch.raw(), batch.dim(0), out.raw(), nullptr);
  return out;
}

std::vector<int> CompiledCnn::predict_rows(const float* rows, int m) {
  const std::size_t need = static_cast<std::size_t>(m) * classes_;
  if (logits_.size() < need) logits_.resize(need);
  run_batch(rows, m, logits_.data(), nullptr);
  // Argmax with the exact comparison order of nn::Model::predict: strict
  // greater-than with the first maximum winning.
  std::vector<int> out(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const float* row = logits_.data() + static_cast<std::size_t>(i) * classes_;
    int best = 0;
    for (int j = 1; j < classes_; ++j)
      if (row[j] > row[best]) best = j;
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

std::vector<int> CompiledCnn::predict(const nn::Tensor& batch) {
  OREV_CHECK(batch.rank() >= 2 &&
                 batch.numel() ==
                     static_cast<std::size_t>(batch.dim(0)) * in0_,
             "CompiledCnn::predict expects [m, ...input_shape]");
  return predict_rows(batch.raw(), batch.dim(0));
}

std::vector<float> CompiledCnn::calibrate_input_maxabs(const float* rows,
                                                       int m) {
  std::vector<float> maxabs;
  std::vector<float> logits(static_cast<std::size_t>(m) * classes_);
  run_batch(rows, m, logits.data(), &maxabs);
  return maxabs;
}

std::unique_ptr<CompiledPlan> compile_plan(nn::Model& model,
                                           CompileFailure* why) {
  CompiledCnn::CompileResult r = CompiledCnn::compile(model);
  if (why != nullptr) *why = r.failure;
  return std::move(r.plan);
}

}  // namespace orev::serve
