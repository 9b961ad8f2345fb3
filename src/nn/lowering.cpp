#include "nn/lowering.hpp"

#include <algorithm>
#include <limits>

#include "nn/blocks.hpp"
#include "nn/layers.hpp"

namespace orev::nn {

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

LoweredChain fail(CompileError code, std::string detail) {
  LoweredChain r;
  r.failure.code = code;
  r.failure.detail = std::move(detail);
  return r;
}

}  // namespace

LoweredChain lower_chain(Layer& root, const Shape& input, int classes) {
  auto* seq = dynamic_cast<Sequential*>(&root);
  if (seq == nullptr)
    return fail(CompileError::kNonSequentialRoot,
                "root layer is " + root.name() + ", not a flat Sequential");
  bool flat = false;
  int c = 0, h = 1, w = 1;
  if (input.size() == 3) {
    c = input[0];
    h = input[1];
    w = input[2];
  } else if (input.size() == 1) {
    flat = true;
    c = input[0];
  } else {
    return fail(CompileError::kBadDims,
                "input must be [C, H, W] or [F], got rank " +
                    std::to_string(input.size()));
  }
  if (c <= 0 || h <= 0 || w <= 0)
    return fail(CompileError::kBadDims, "input has a non-positive extent");

  LoweredChain out;
  out.input_features = c * h * w;
  std::vector<ChainStage>& stages = out.stages;
  auto stage = [&](ChainStage::Kind kind, Layer* layer) {
    ChainStage s;
    s.kind = kind;
    s.layer = layer;
    s.in_c = s.out_c = c;
    s.in_h = s.out_h = h;
    s.in_w = s.out_w = w;
    return s;
  };
  // Append a stage; the next layer's input is its output.
  auto push = [&](ChainStage s) {
    c = s.out_c;
    h = s.out_h;
    w = s.out_w;
    stages.push_back(std::move(s));
  };
  // The stage a BatchNorm over `channels` fuses into, or null.
  auto bn_host = [&](int channels) -> ChainStage* {
    if (stages.empty()) return nullptr;
    ChainStage& s = stages.back();
    return (s.is_gemm() && s.bn_layer == nullptr && !s.relu &&
            s.out_c == channels)
               ? &s
               : nullptr;
  };

  for (std::size_t li = 0; li < seq->size(); ++li) {
    Layer& l = seq->layer(li);
    if (auto* conv = dynamic_cast<Conv2D*>(&l)) {
      if (flat)
        return fail(CompileError::kShapeMismatch,
                    "Conv2D after the input was flattened");
      if (conv->in_channels() != c)
        return fail(CompileError::kShapeMismatch,
                    "Conv2D expects " + std::to_string(conv->in_channels()) +
                        " channels, pipeline carries " + std::to_string(c));
      ChainStage s = stage(ChainStage::Kind::kConv, conv);
      s.out_c = conv->out_channels();
      s.out_h = conv->out_height(h);
      s.out_w = conv->out_width(w);
      if (s.out_h <= 0 || s.out_w <= 0)
        return fail(CompileError::kBadDims,
                    "Conv2D output collapses to zero size");
      s.k = conv->kernel();
      s.stride = conv->stride();
      s.pad = conv->padding();
      s.geom = kernels::conv_geometry(c, h, w, s.k, s.stride, s.pad);
      push(std::move(s));
    } else if (auto* dw = dynamic_cast<DepthwiseConv2D*>(&l)) {
      if (flat)
        return fail(CompileError::kShapeMismatch,
                    "DepthwiseConv2D after the input was flattened");
      if (dw->channels() != c)
        return fail(CompileError::kShapeMismatch,
                    "DepthwiseConv2D channel mismatch");
      ChainStage s = stage(ChainStage::Kind::kDepthwise, dw);
      s.k = dw->kernel();
      s.stride = dw->stride();
      s.pad = dw->padding();
      s.out_h = (h + 2 * s.pad - s.k) / s.stride + 1;
      s.out_w = (w + 2 * s.pad - s.k) / s.stride + 1;
      if (s.out_h <= 0 || s.out_w <= 0)
        return fail(CompileError::kBadDims,
                    "DepthwiseConv2D output collapses to zero size");
      push(std::move(s));
    } else if (auto* pool = dynamic_cast<MaxPool2D*>(&l)) {
      if (flat)
        return fail(CompileError::kShapeMismatch,
                    "MaxPool2D after the input was flattened");
      ChainStage s = stage(ChainStage::Kind::kPool, pool);
      s.k = pool->kernel();
      s.stride = pool->stride();
      s.out_h = (h - s.k) / s.stride + 1;
      s.out_w = (w - s.k) / s.stride + 1;
      if (s.k > h || s.k > w)
        return fail(CompileError::kBadDims,
                    "MaxPool2D output collapses to zero size");
      push(std::move(s));
    } else if (auto* bn = dynamic_cast<BatchNorm*>(&l)) {
      if (bn->channels() != c)
        return fail(CompileError::kShapeMismatch, "BatchNorm channel mismatch");
      if (ChainStage* host = bn_host(c)) {
        host->bn_layer = bn;
      } else {
        ChainStage s = stage(ChainStage::Kind::kBatchNorm, bn);
        s.bn_layer = bn;
        push(std::move(s));
      }
    } else if (dynamic_cast<ReLU*>(&l) != nullptr) {
      if (!stages.empty() && !stages.back().relu) {
        stages.back().relu = true;
      } else {
        ChainStage s = stage(ChainStage::Kind::kRelu, nullptr);
        s.relu = true;
        push(std::move(s));
      }
    } else if (dynamic_cast<Flatten*>(&l) != nullptr) {
      if (!flat) {
        flat = true;
        out.flat_begin = stages.size();
        c = c * h * w;
        h = w = 1;
      }
    } else if (dynamic_cast<Dropout*>(&l) != nullptr) {
      // Identity at inference.
    } else if (auto* d = dynamic_cast<Dense*>(&l)) {
      if (!flat)
        return fail(CompileError::kShapeMismatch,
                    "Dense over a spatial tensor (missing Flatten)");
      if (d->in_features() != c)
        return fail(CompileError::kShapeMismatch,
                    "Dense expects " + std::to_string(d->in_features()) +
                        " features, pipeline carries " + std::to_string(c));
      ChainStage s = stage(ChainStage::Kind::kDense, d);
      s.out_c = d->out_features();
      push(std::move(s));
    } else {
      return fail(CompileError::kUnsupportedLayer,
                  "unsupported layer " + l.name());
    }
  }

  if (stages.empty())
    return fail(CompileError::kBadDims, "model compiles to zero stages");
  if (!flat || c != classes)
    return fail(CompileError::kShapeMismatch,
                "model does not end in " + std::to_string(classes) +
                    " flat logits");
  return out;
}

void run_pool_stage(const ChainStage& s, const float* in, float* out) {
  if (s.k == 2 && s.stride == 2)
    return kernels::max_pool2x2(in, s.in_c, s.in_h, s.in_w, s.relu, out);
  const std::size_t plane = static_cast<std::size_t>(s.in_h) * s.in_w;
  for (int c = 0; c < s.in_c; ++c) {
    const float* p = in + c * plane;
    for (int oy = 0; oy < s.out_h; ++oy)
      for (int ox = 0; ox < s.out_w; ++ox) {
        const std::ptrdiff_t a = kernels::pool_window_argmax(
            p, s.in_w, oy * s.stride, ox * s.stride, s.k);
        float v = a < 0 ? -std::numeric_limits<float>::infinity() : p[a];
        if (s.relu) v = std::max(v, 0.0f);
        *out++ = v;
      }
  }
}

void run_relu_stage(const ChainStage& s, const float* in, float* out,
                    int rows) {
  const std::size_t n = static_cast<std::size_t>(rows) * s.in_elems();
  for (std::size_t e = 0; e < n; ++e) out[e] = std::max(in[e], 0.0f);
}

}  // namespace orev::nn
