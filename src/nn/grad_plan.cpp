#include "nn/grad_plan.hpp"

#include <algorithm>

#include "nn/layers.hpp"
#include "util/thread_pool.hpp"

namespace orev::nn {

namespace {

const Conv2D& conv_of(const ChainStage& s) {
  return static_cast<const Conv2D&>(*s.layer);
}

const Dense& dense_of(const ChainStage& s) {
  return static_cast<const Dense&>(*s.layer);
}

}  // namespace

GradPlan::CompileResult GradPlan::compile(Layer& root,
                                          const Shape& input_shape,
                                          int num_classes) {
  LoweredChain chain = lower_chain(root, input_shape, num_classes);
  CompileResult out;
  if (chain.failure.code != CompileError::kOk) {
    out.failure = std::move(chain.failure);
    return out;
  }
  std::unique_ptr<GradPlan> plan(new GradPlan());
  plan->in0_ = chain.input_features;
  plan->classes_ = num_classes;
  plan->flat_begin_ = chain.flat_begin;
  plan->widest_ = static_cast<std::size_t>(plan->in0_);
  std::size_t wide = 0;
  for (std::size_t i = 0; i < chain.stages.size(); ++i) {
    const ChainStage& s = chain.stages[i];
    if (s.bn_layer != nullptr || s.kind == ChainStage::Kind::kDepthwise) {
      const Layer& l = s.bn_layer != nullptr ? *s.bn_layer : *s.layer;
      out.failure.code = CompileError::kUnsupportedLayer;
      out.failure.detail = "stage " + std::to_string(i) + " (" + l.name() +
                           ") has no compiled gradient";
      return out;
    }
    plan->wide_off_.push_back(wide);
    if (s.kind == ChainStage::Kind::kConv)
      wide += conv_of(s).weight().numel();
    plan->widest_ = std::max(plan->widest_, s.out_elems());
  }
  plan->stages_ = std::move(chain.stages);
  plan->wide_.resize(wide);
  out.plan = std::move(plan);
  return out;
}

void GradPlan::ensure_rows(int m) {
  if (m == m_) return;
  m_ = m;
  const auto rows = static_cast<std::size_t>(m);
  act_off_.resize(stages_.size());
  std::size_t total = 0;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    act_off_[s] = total;
    total += rows * stages_[s].out_elems();
  }
  // Grow only: alternating batch sizes reuse the widest scratch.
  if (acts_.size() < total) acts_.resize(total);
  if (grad_a_.size() < rows * widest_) {
    grad_a_.resize(rows * widest_);
    grad_b_.resize(rows * widest_);
  }
  if (dlogits_.size() < rows * classes_) dlogits_.resize(rows * classes_);
}

void GradPlan::widen_weights() {
  // conv_stage reads the natural [out_c, patch] filter bank in double.
  for (std::size_t s = 0; s < stages_.size(); ++s)
    if (stages_[s].kind == ChainStage::Kind::kConv) {
      const Tensor& wt = conv_of(stages_[s]).weight();
      std::copy(wt.raw(), wt.raw() + wt.numel(), wide_.data() + wide_off_[s]);
    }
}

const float* GradPlan::stage_input(std::size_t s) const {
  return s == 0 ? x_ : acts_.data() + act_off_[s - 1];
}

float* GradPlan::stage_output(std::size_t s) {
  return acts_.data() + act_off_[s];
}

void GradPlan::forward_sample(int i) {
  for (std::size_t s = 0; s < flat_begin_; ++s) {
    const ChainStage& st = stages_[s];
    const float* in = stage_input(s) + static_cast<std::size_t>(i) *
                                           st.in_elems();
    float* out = stage_output(s) + static_cast<std::size_t>(i) * st.out_elems();
    switch (st.kind) {
      case ChainStage::Kind::kConv: {
        kernels::ConvEpilogue epi;
        epi.bias = conv_of(st).bias().raw();
        epi.relu = st.relu;
        kernels::conv_forward(in, st.geom, wide_.data() + wide_off_[s], epi,
                              st.out_c, out);
        break;
      }
      case ChainStage::Kind::kPool:
        run_pool_stage(st, in, out);
        break;
      case ChainStage::Kind::kRelu:
        run_relu_stage(st, in, out, 1);
        break;
      default:
        break;  // the flat suffix is run row-major by forward()
    }
  }
}

const float* GradPlan::forward(const float* x, int m) {
  ensure_rows(m);
  widen_weights();
  x_ = x;
  // Spatial prefix: sample-parallel, each sample through every stage.
  if (flat_begin_ > 0)
    util::parallel_for(0, m, 1, [&](std::int64_t i) {
      forward_sample(static_cast<int>(i));
    });
  // Flat suffix: one call per stage over all rows.
  for (std::size_t s = flat_begin_; s < stages_.size(); ++s) {
    const ChainStage& st = stages_[s];
    const float* in = stage_input(s);
    float* out = stage_output(s);
    if (st.kind == ChainStage::Kind::kDense) {
      const Dense& d = dense_of(st);
      kernels::dense_rows(in, d.weight().raw(),
                          d.has_bias() ? d.bias().raw() : nullptr, st.relu,
                          out, m, st.in_c, st.out_c);
    } else {
      run_relu_stage(st, in, out, m);
    }
  }
  return stage_output(stages_.size() - 1);
}

void GradPlan::pool_backward(const ChainStage& st, const float* in,
                             const float* g, float* dx, int m) {
  const std::size_t plane = static_cast<std::size_t>(st.in_h) * st.in_w;
  const std::size_t in_n = st.in_elems(), out_n = st.out_elems();
  const bool two = st.k == 2 && st.stride == 2;
  // Every window scatters into its own plane (a window with no strict max
  // into its first tap, as nn::MaxPool2D does), so samples are disjoint.
  util::parallel_for(0, m, 1, [&](std::int64_t i) {
    const float* x = in + static_cast<std::size_t>(i) * in_n;
    const float* gi = g + static_cast<std::size_t>(i) * out_n;
    float* d = dx + static_cast<std::size_t>(i) * in_n;
    if (two)
      return kernels::max_pool2x2_backward(x, gi, st.in_c, st.in_h, st.in_w,
                                           d);
    std::fill(d, d + in_n, 0.0f);
    for (int c = 0; c < st.in_c; ++c, x += plane, d += plane)
      for (int oy = 0; oy < st.out_h; ++oy)
        for (int ox = 0; ox < st.out_w; ++ox, ++gi) {
          const int iy0 = oy * st.stride, ix0 = ox * st.stride;
          const std::ptrdiff_t a =
              kernels::pool_window_argmax(x, st.in_w, iy0, ix0, st.k);
          d[kernels::pool_grad_tap(a, st.in_w, iy0, ix0)] += *gi;
        }
  });
}

void GradPlan::backward_stage(std::size_t s, float* g_out, float* g_in) {
  const ChainStage& st = stages_[s];
  const int m = m_;
  const std::size_t out_n = static_cast<std::size_t>(m) * st.out_elems();
  if (st.relu) {
    // The walk zeroes dy where the pre-ReLU value was <= 0; the stored
    // post-ReLU value max(v, 0) is <= 0 for exactly those v (−0.0 and
    // NaN included).
    const float* y = stage_output(s);
    for (std::size_t e = 0; e < out_n; ++e)
      g_out[e] = y[e] <= 0.0f ? 0.0f : g_out[e];
  }
  const float* in = stage_input(s);
  switch (st.kind) {
    case ChainStage::Kind::kRelu:
      std::copy(g_out, g_out + out_n, g_in);
      return;
    case ChainStage::Kind::kDense: {
      // dx = dy · W, the walk's matmul: rows accumulate in ascending out.
      std::fill(g_in, g_in + static_cast<std::size_t>(m) * st.in_c, 0.0f);
      kernels::row_axpy(g_out, st.out_c, 1, dense_of(st).weight().raw(), g_in,
                        m, st.out_c, st.in_c);
      return;
    }
    case ChainStage::Kind::kPool:
      pool_backward(st, in, g_out, g_in, m);
      return;
    case ChainStage::Kind::kConv: {
      const float* wt = conv_of(st).weight().raw();
      util::parallel_for(0, m, 1, [&](std::int64_t i) {
        kernels::conv_backward_data(
            g_out + static_cast<std::size_t>(i) * st.out_elems(), st.geom, wt,
            st.out_c, g_in + static_cast<std::size_t>(i) * st.in_elems());
      });
      return;
    }
    case ChainStage::Kind::kDepthwise:  // refused by compile()
    case ChainStage::Kind::kBatchNorm:
      return;
  }
}

void GradPlan::backward(const float* dlogits, float* dx) {
  const std::size_t last = stages_.size() - 1;
  const std::size_t n_out = static_cast<std::size_t>(m_) * classes_;
  float* g = grad_a_.data();
  float* spare = grad_b_.data();
  std::copy(dlogits, dlogits + n_out, g);
  for (std::size_t s = last + 1; s-- > 0;) {
    float* target = s == 0 ? dx : spare;
    backward_stage(s, g, target);
    spare = g;
    g = target;
  }
}

}  // namespace orev::nn
