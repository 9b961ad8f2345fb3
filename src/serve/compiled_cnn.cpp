#include "serve/compiled_cnn.hpp"

#include <algorithm>
#include <cmath>

#include "nn/layers.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace orev::serve {

namespace {

CompiledCnn::CompileResult fail(nn::CompileError code, std::string detail) {
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

}  // namespace

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

CompiledCnn::CompileResult CompiledCnn::compile(nn::Model& model) {
  if (!model.inference_only())
    return fail(nn::CompileError::kNotInferenceMode,
                "model must be inference-locked before compilation "
                "(BatchNorm running stats are snapshotted)");
  nn::LoweredChain chain = nn::lower_chain(model.root(), model.input_shape(),
                                           model.num_classes());
  if (chain.failure.code != nn::CompileError::kOk)
    return fail(chain.failure.code, std::move(chain.failure.detail));

  auto plan = std::unique_ptr<CompiledCnn>(new CompiledCnn());
  plan->in0_ = chain.input_features;
  plan->classes_ = model.num_classes();
  plan->flat_begin_ = chain.flat_begin;
  std::vector<CnnStage>& stages = plan->stages_;
  for (const nn::ChainStage& lowered : chain.stages) {
    CnnStage s(lowered);
    if (s.is_gemm()) {
      const std::vector<nn::Param*> ps = s.layer->params();  // {weight[, bias]}
      const nn::Tensor& wt = ps[0]->value;
      s.weight.assign(wt.raw(), wt.raw() + wt.numel());
      if (ps.size() == 2)
        s.bias.assign(ps[1]->value.raw(),
                      ps[1]->value.raw() + ps[1]->value.numel());
    }
    switch (s.kind) {
      case CnnStage::Kind::kConv:
        // conv_stage reads the filter bank in its natural [out_c, patch]
        // layout (pixel lanes, not column tiles) — widen in place. The
        // walk adds the bias term unconditionally (0.0f when bias-less).
        s.bt.assign(s.weight.begin(), s.weight.end());
        s.bias.resize(static_cast<std::size_t>(s.out_c), 0.0f);
        break;
      case CnnStage::Kind::kDense:
        // dense_stage's column tiles read W^T as [in, out].
        s.has_bias = !s.bias.empty();
        s.bt.resize(static_cast<std::size_t>(s.in_c) * s.out_c);
        for (int o = 0; o < s.out_c; ++o)
          for (int kk = 0; kk < s.in_c; ++kk)
            s.bt[static_cast<std::size_t>(kk) * s.out_c + o] =
                static_cast<double>(
                    s.weight[static_cast<std::size_t>(o) * s.in_c + kk]);
        break;
      default:
        break;
    }
    if (s.bn_layer != nullptr) {
      if (!snapshot_bn(*s.bn_layer, s))
        return fail(nn::CompileError::kNonFiniteStats,
                    "BatchNorm running stats produce non-finite scales");
      s.bn = true;
    }
    s.layer = nullptr;  // the plan keeps its snapshot, not the replica
    s.bn_layer = nullptr;
    stages.push_back(std::move(s));
  }

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
          nn::run_pool_stage(s, cur, dst);
          break;
        case CnnStage::Kind::kBatchNorm:
          run_bn_stage(s, cur, dst);
          break;
        case CnnStage::Kind::kRelu:
          nn::run_relu_stage(s, cur, dst, 1);
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
        nn::run_relu_stage(s, cur, dst, m);
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

void CompiledCnn::predict_rows(const float* rows, int m, int* out) {
  const std::size_t need = static_cast<std::size_t>(m) * classes_;
  if (logits_.size() < need) logits_.resize(need);
  run_batch(rows, m, logits_.data(), nullptr);
  for (int i = 0; i < m; ++i)
    out[i] = nn::argmax_row(
        logits_.data() + static_cast<std::size_t>(i) * classes_, classes_);
}

std::vector<int> CompiledCnn::predict_rows(const float* rows, int m) {
  std::vector<int> out(static_cast<std::size_t>(m));
  predict_rows(rows, m, out.data());
  return out;
}

std::vector<float> CompiledCnn::calibrate_input_maxabs(const float* rows,
                                                       int m) {
  std::vector<float> maxabs;
  std::vector<float> logits(static_cast<std::size_t>(m) * classes_);
  run_batch(rows, m, logits.data(), &maxabs);
  return maxabs;
}

std::unique_ptr<CompiledPlan> compile_plan(nn::Model& model,
                                           nn::CompileFailure* why) {
  CompiledCnn::CompileResult r = CompiledCnn::compile(model);
  if (why != nullptr) *why = r.failure;
  return std::move(r.plan);
}

}  // namespace orev::serve
