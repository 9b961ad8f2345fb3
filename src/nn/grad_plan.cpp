#include "nn/grad_plan.hpp"

#include <algorithm>
#include <limits>

#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "util/thread_pool.hpp"

namespace orev::nn {

const char* grad_plan_refusal_name(GradPlanRefusal r) {
  switch (r) {
    case GradPlanRefusal::kNone: return "none";
    case GradPlanRefusal::kNotSequential: return "not_sequential";
    case GradPlanRefusal::kUnsupportedLayer: return "unsupported_layer";
    case GradPlanRefusal::kShapeMismatch: return "shape_mismatch";
  }
  return "?";
}

namespace {

GradPlan::CompileResult refuse(GradPlanRefusal r, std::string detail) {
  GradPlan::CompileResult out;
  out.refusal = r;
  out.detail = std::move(detail);
  return out;
}

}  // namespace

GradPlan::CompileResult GradPlan::compile(Layer& root,
                                          const Shape& input_shape,
                                          int num_classes) {
  auto* seq = dynamic_cast<Sequential*>(&root);
  if (seq == nullptr)
    return refuse(GradPlanRefusal::kNotSequential,
                  "root layer is " + root.name() + ", not a flat Sequential");
  bool flat = false;
  int c = 0, h = 1, w = 1;
  if (input_shape.size() == 3) {
    c = input_shape[0];
    h = input_shape[1];
    w = input_shape[2];
  } else if (input_shape.size() == 1) {
    flat = true;
    c = input_shape[0];
  } else {
    return refuse(GradPlanRefusal::kShapeMismatch,
                  "input must be [C, H, W] or [F], got " +
                      shape_str(input_shape));
  }

  std::unique_ptr<GradPlan> plan(new GradPlan());
  plan->in0_ = c * h * w;
  plan->classes_ = num_classes;
  std::vector<Stage>& stages = plan->stages_;
  std::size_t wide = 0;
  auto stage_in = [&](Stage::Kind kind) {
    Stage s;
    s.kind = kind;
    s.in_c = c;
    s.in_h = h;
    s.in_w = w;
    return s;
  };

  for (std::size_t li = 0; li < seq->size(); ++li) {
    Layer& l = seq->layer(li);
    const std::string where = "layer " + std::to_string(li) + " (" +
                              l.name() + ")";
    if (auto* conv = dynamic_cast<Conv2D*>(&l)) {
      const int oh = conv->out_height(h), ow = conv->out_width(w);
      if (flat || conv->in_channels() != c || oh <= 0 || ow <= 0)
        return refuse(GradPlanRefusal::kShapeMismatch,
                      where + " does not fit its input");
      Stage s = stage_in(Stage::Kind::kConv);
      s.conv = conv;
      s.out_c = conv->out_channels();
      s.out_h = oh;
      s.out_w = ow;
      s.geom = kernels::conv_geometry(c, h, w, conv->kernel(), conv->stride(),
                                      conv->padding());
      s.wide_off = wide;
      wide += conv->weight().numel();
      stages.push_back(std::move(s));
    } else if (auto* pool = dynamic_cast<MaxPool2D*>(&l)) {
      const int k = pool->kernel(), st = pool->stride();
      if (flat || k > h || k > w)
        return refuse(GradPlanRefusal::kShapeMismatch,
                      where + " does not fit its input");
      Stage s = stage_in(Stage::Kind::kPool);
      s.k = k;
      s.stride = st;
      s.out_c = c;
      s.out_h = (h - k) / st + 1;
      s.out_w = (w - k) / st + 1;
      stages.push_back(std::move(s));
    } else if (auto* dense = dynamic_cast<Dense*>(&l)) {
      if (!flat || dense->in_features() != c)
        return refuse(GradPlanRefusal::kShapeMismatch,
                      where + " does not fit its input");
      Stage s = stage_in(Stage::Kind::kDense);
      s.dense = dense;
      s.out_c = dense->out_features();
      stages.push_back(std::move(s));
    } else if (dynamic_cast<ReLU*>(&l) != nullptr) {
      // Fused into the op before it, unless that op already ends in one.
      if (!stages.empty() && !stages.back().relu) {
        stages.back().relu = true;
        continue;
      }
      Stage s = stage_in(Stage::Kind::kRelu);
      s.out_c = c;
      s.out_h = h;
      s.out_w = w;
      s.relu = true;
      stages.push_back(std::move(s));
    } else if (dynamic_cast<Flatten*>(&l) != nullptr) {
      if (!flat) {
        flat = true;
        plan->flat_begin_ = stages.size();
        c = c * h * w;
        h = w = 1;
      }
      continue;
    } else if (dynamic_cast<Dropout*>(&l) != nullptr) {
      continue;  // identity at inference
    } else {
      return refuse(GradPlanRefusal::kUnsupportedLayer,
                    where + " has no compiled gradient");
    }
    const Stage& s = stages.back();
    c = s.out_c;
    h = s.out_h;
    w = s.out_w;
  }
  if (stages.empty() || !flat || c != num_classes)
    return refuse(GradPlanRefusal::kShapeMismatch,
                  "the layers do not end in [" + std::to_string(num_classes) +
                      "] logits");
  plan->widest_ = static_cast<std::size_t>(plan->in0_);
  for (const Stage& s : stages)
    plan->widest_ = std::max(plan->widest_, s.out_elems());
  plan->wide_.resize(wide);
  CompileResult out;
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
  for (const Stage& s : stages_)
    if (s.kind == Stage::Kind::kConv) {
      const Tensor& wt = s.conv->weight();
      std::copy(wt.raw(), wt.raw() + wt.numel(), wide_.data() + s.wide_off);
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
    const Stage& st = stages_[s];
    const float* in = stage_input(s) + static_cast<std::size_t>(i) *
                                           st.in_elems();
    float* out = stage_output(s) + static_cast<std::size_t>(i) * st.out_elems();
    switch (st.kind) {
      case Stage::Kind::kConv: {
        kernels::ConvEpilogue epi;
        epi.bias = st.conv->bias().raw();
        epi.relu = st.relu;
        kernels::conv_forward(in, st.geom, wide_.data() + st.wide_off, epi,
                              st.out_c, out);
        break;
      }
      case Stage::Kind::kPool: {
        if (st.k == 2 && st.stride == 2) {
          kernels::max_pool2x2(in, st.in_c, st.in_h, st.in_w, st.relu, out);
          break;
        }
        const std::size_t plane = static_cast<std::size_t>(st.in_h) * st.in_w;
        for (int c = 0; c < st.in_c; ++c) {
          const float* p = in + c * plane;
          for (int oy = 0; oy < st.out_h; ++oy)
            for (int ox = 0; ox < st.out_w; ++ox) {
              const std::ptrdiff_t a = kernels::pool_window_argmax(
                  p, st.in_w, oy * st.stride, ox * st.stride, st.k);
              float v = a < 0 ? -std::numeric_limits<float>::infinity() : p[a];
              if (st.relu) v = std::max(v, 0.0f);
              *out++ = v;
            }
        }
        break;
      }
      case Stage::Kind::kRelu: {
        const std::size_t n = st.in_elems();
        for (std::size_t e = 0; e < n; ++e) out[e] = std::max(in[e], 0.0f);
        break;
      }
      case Stage::Kind::kDense:
        break;  // flat suffix: run row-major by forward()
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
    const Stage& st = stages_[s];
    const float* in = stage_input(s);
    float* out = stage_output(s);
    if (st.kind == Stage::Kind::kDense) {
      kernels::dense_rows(in, st.dense->weight().raw(),
                          st.dense->has_bias() ? st.dense->bias().raw()
                                               : nullptr,
                          st.relu, out, m, st.in_c, st.out_c);
    } else {
      const std::size_t n = static_cast<std::size_t>(m) * st.in_elems();
      for (std::size_t e = 0; e < n; ++e) out[e] = std::max(in[e], 0.0f);
    }
  }
  return stage_output(stages_.size() - 1);
}

void GradPlan::pool_backward(const Stage& st, const float* in,
                             const float* g, float* dx, int m) {
  const std::size_t plane = static_cast<std::size_t>(st.in_h) * st.in_w;
  const std::size_t in_n = st.in_elems(), out_n = st.out_elems();
  // A window with no strict max (all NaN or −inf) routes its gradient to
  // flat index 0 of the whole batch, as nn::MaxPool2D does; sample 0's
  // own such windows land in order inside its pass, later samples' are
  // replayed after every sample's scatter, in ascending (sample, plane,
  // window) order — the walk's serial order.
  auto scatter = [&](int i, bool replay) {
    const float* x = in + static_cast<std::size_t>(i) * in_n;
    const float* gi = g + static_cast<std::size_t>(i) * out_n;
    float* d = dx + static_cast<std::size_t>(i) * in_n;
    bool deferred = false;
    const bool two = st.k == 2;
    for (int c = 0; c < st.in_c; ++c) {
      const float* p = x + c * plane;
      for (int oy = 0; oy < st.out_h; ++oy)
        for (int ox = 0; ox < st.out_w; ++ox, ++gi) {
          // A literal 2 lets the window loops unroll for the common pool.
          const std::ptrdiff_t a =
              two ? kernels::pool_window_argmax(p, st.in_w, oy * st.stride,
                                                ox * st.stride, 2)
                  : kernels::pool_window_argmax(p, st.in_w, oy * st.stride,
                                                ox * st.stride, st.k);
          if (replay) {
            if (a < 0) dx[0] += *gi;
          } else if (a >= 0) {
            d[c * plane + static_cast<std::size_t>(a)] += *gi;
          } else if (i == 0) {
            dx[0] += *gi;
          } else {
            deferred = true;
          }
        }
    }
    return deferred;
  };
  std::vector<char>& deferred = pool_deferred_;
  deferred.assign(static_cast<std::size_t>(m), 0);
  util::parallel_for(0, m, 1, [&](std::int64_t i) {
    float* d = dx + static_cast<std::size_t>(i) * in_n;
    std::fill(d, d + in_n, 0.0f);
    deferred[static_cast<std::size_t>(i)] = scatter(static_cast<int>(i), false);
  });
  for (int i = 1; i < m; ++i)
    if (deferred[static_cast<std::size_t>(i)]) scatter(i, true);
}

void GradPlan::backward_stage(std::size_t s, float* g_out, float* g_in) {
  const Stage& st = stages_[s];
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
    case Stage::Kind::kRelu:
      std::copy(g_out, g_out + out_n, g_in);
      return;
    case Stage::Kind::kDense: {
      // dx = dy · W, the walk's matmul: rows accumulate in ascending out.
      std::fill(g_in, g_in + static_cast<std::size_t>(m) * st.in_c, 0.0f);
      kernels::row_axpy(g_out, st.out_c, 1, st.dense->weight().raw(), g_in, m,
                        st.out_c, st.in_c);
      return;
    }
    case Stage::Kind::kPool:
      pool_backward(st, in, g_out, g_in, m);
      return;
    case Stage::Kind::kConv: {
      const float* wt = st.conv->weight().raw();
      util::parallel_for(0, m, 1, [&](std::int64_t i) {
        kernels::conv_backward_data(
            g_out + static_cast<std::size_t>(i) * st.out_elems(), st.geom, wt,
            st.out_c, g_in + static_cast<std::size_t>(i) * st.in_elems());
      });
      return;
    }
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
