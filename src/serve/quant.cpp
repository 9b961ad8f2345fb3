#include "serve/quant.hpp"

#include <algorithm>
#include <cmath>

#include "nn/kernels.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace orev::serve {

namespace {

/// Scales below this floor would overflow 1/s or collapse every value to
/// the same bucket; constant-zero and denormal-adjacent calibration
/// distributions hit it. The floored scale keeps quantization a finite
/// no-op-ish map (everything rounds to 0, dequantizes to 0) instead of
/// producing infs.
constexpr float kScaleFloor = 1e-25f;

float symmetric_scale(float maxabs) {
  return std::max(maxabs, kScaleFloor) / 127.0f;
}

/// Round-to-nearest with saturation; tolerates non-finite inputs (NaN
/// quantizes to 0, ±inf saturates) so a hostile activation can never
/// invoke UB in lrintf.
std::int8_t quantize_one(float v, float scale) {
  const float t = v / scale;
  if (t >= 127.0f) return 127;
  if (t <= -127.0f) return -127;
  if (!(std::fabs(t) < 127.0f)) return 0;  // NaN
  return static_cast<std::int8_t>(std::lrintf(t));
}

void quantize_row(const float* v, std::size_t n, float scale,
                  std::int8_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = quantize_one(v[i], scale);
}

bool all_finite(const float* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(p[i])) return false;
  return true;
}

}  // namespace

std::unique_ptr<CompiledInt8> CompiledInt8::build(CompiledCnn& plan,
                                                  const float* calib_rows,
                                                  int m,
                                                  nn::CompileFailure* why) {
  auto reject = [&](nn::CompileError code, const std::string& detail) {
    if (why != nullptr) {
      why->code = code;
      why->detail = detail;
    }
    return std::unique_ptr<CompiledInt8>();
  };
  if (m < 1 || calib_rows == nullptr)
    return reject(nn::CompileError::kBadDims,
                  "int8 calibration needs at least one sample");
  if (!all_finite(calib_rows,
                  static_cast<std::size_t>(m) * plan.input_features()))
    return reject(nn::CompileError::kNonFiniteStats,
                  "int8 calibration set contains non-finite values");

  const std::vector<float> maxabs = plan.calibrate_input_maxabs(calib_rows, m);

  auto q = std::unique_ptr<CompiledInt8>(new CompiledInt8());
  q->in0_ = plan.input_features();
  q->classes_ = plan.num_classes();
  q->max_elems_ = static_cast<std::size_t>(q->in0_);
  q->scales_.assign(plan.stages().size(), 0.0f);

  for (std::size_t si = 0; si < plan.stages().size(); ++si) {
    const CnnStage& fs = plan.stages()[si];
    QStage qs;
    qs.s = fs;
    qs.s.bt.clear();  // int8 stages never touch the double pack
    q->max_elems_ = std::max(q->max_elems_, fs.out_elems());
    if (fs.is_gemm()) {
      if (!std::isfinite(maxabs[si]))
        return reject(nn::CompileError::kNonFiniteStats,
                      "calibration produced a non-finite activation range");
      qs.sx = symmetric_scale(maxabs[si]);
      q->scales_[si] = qs.sx;
      // Per-output-channel symmetric weight quantization over the natural
      // [out_c, per_channel] layout.
      const std::size_t rows = static_cast<std::size_t>(
          fs.kind == CnnStage::Kind::kDepthwise ? fs.in_c : fs.out_c);
      const std::size_t per_ch = fs.weight.size() / rows;
      if (!all_finite(fs.weight.data(), fs.weight.size()))
        return reject(nn::CompileError::kNonFiniteStats,
                      "stage weights contain non-finite values");
      qs.sw.resize(rows);
      qs.wq.resize(fs.weight.size());
      for (std::size_t cc = 0; cc < rows; ++cc) {
        const float* wrow = fs.weight.data() + cc * per_ch;
        float mx = 0.0f;
        for (std::size_t e = 0; e < per_ch; ++e)
          mx = std::max(mx, std::fabs(wrow[e]));
        qs.sw[cc] = symmetric_scale(mx);
        quantize_row(wrow, per_ch, qs.sw[cc], qs.wq.data() + cc * per_ch);
      }
      q->q8_cap_ = std::max(q->q8_cap_, fs.in_elems());
      if (fs.kind == CnnStage::Kind::kConv) {
        const std::size_t patch =
            static_cast<std::size_t>(fs.in_c) * fs.k * fs.k;
        const std::size_t ohw = static_cast<std::size_t>(fs.out_h) * fs.out_w;
        q->cols_cap_ = std::max(q->cols_cap_, ohw * patch);
        q->acc_cap_ = std::max(
            q->acc_cap_, ohw * static_cast<std::size_t>(fs.out_c));
      } else if (fs.kind == CnnStage::Kind::kDense) {
        q->acc_cap_ =
            std::max(q->acc_cap_, static_cast<std::size_t>(fs.out_c));
      }
    }
    q->stages_.push_back(std::move(qs));
  }
  if (why != nullptr) *why = nn::CompileFailure{};
  return q;
}

void CompiledInt8::ensure_scratch(int m) {
  const std::size_t mm = static_cast<std::size_t>(m);
  if (buf_a_.size() < mm * max_elems_) buf_a_.resize(mm * max_elems_);
  if (buf_b_.size() < mm * max_elems_) buf_b_.resize(mm * max_elems_);
  if (q8_.size() < mm * q8_cap_) q8_.resize(mm * q8_cap_);
  if (cols8_.size() < mm * cols_cap_) cols8_.resize(mm * cols_cap_);
  if (acc32_.size() < mm * acc_cap_) acc32_.resize(mm * acc_cap_);
}

void CompiledInt8::run_batch(const float* rows, int m, float* logits_out) {
  ensure_scratch(m);
  util::parallel_for(0, m, 1, [&](std::int64_t i) {
    float* a = buf_a_.data() + static_cast<std::size_t>(i) * max_elems_;
    float* b = buf_b_.data() + static_cast<std::size_t>(i) * max_elems_;
    std::int8_t* q8 = q8_.data() + static_cast<std::size_t>(i) * q8_cap_;
    std::int8_t* cols8 =
        cols8_.data() + static_cast<std::size_t>(i) * cols_cap_;
    std::int32_t* acc = acc32_.data() + static_cast<std::size_t>(i) * acc_cap_;
    const float* cur = rows + static_cast<std::size_t>(i) * in0_;
    for (std::size_t si = 0; si < stages_.size(); ++si) {
      const QStage& qs = stages_[si];
      const CnnStage& s = qs.s;
      float* dst = si + 1 == stages_.size()
                       ? logits_out + static_cast<std::size_t>(i) * classes_
                       : (cur == a ? b : a);
      switch (s.kind) {
        case CnnStage::Kind::kConv: {
          const int patch = s.in_c * s.k * s.k;
          const int ohw = s.out_h * s.out_w;
          quantize_row(cur, s.in_elems(), qs.sx, q8);
          nn::kernels::im2col_s8(q8, s.in_c, s.in_h, s.in_w, s.k, s.stride,
                                 s.pad, s.out_h, s.out_w, cols8);
          nn::kernels::s8_gemm(cols8, qs.wq.data(), acc, ohw, patch, s.out_c);
          for (int cc = 0; cc < s.out_c; ++cc) {
            const float deq = qs.sx * qs.sw[static_cast<std::size_t>(cc)];
            const float bc = s.bias[static_cast<std::size_t>(cc)];
            float* oplane = dst + static_cast<std::size_t>(cc) * ohw;
            for (int p = 0; p < ohw; ++p) {
              const float v =
                  static_cast<float>(
                      acc[static_cast<std::size_t>(p) * s.out_c + cc]) *
                      deq +
                  bc;
              oplane[p] = epilogue_bn_relu(s, cc, v);
            }
          }
          break;
        }
        case CnnStage::Kind::kDepthwise: {
          const int ihw = s.in_h * s.in_w;
          const int ohw = s.out_h * s.out_w;
          quantize_row(cur, s.in_elems(), qs.sx, q8);
          for (int cc = 0; cc < s.in_c; ++cc) {
            const std::int8_t* plane =
                q8 + static_cast<std::size_t>(cc) * ihw;
            const std::int8_t* kern =
                qs.wq.data() + static_cast<std::size_t>(cc) * s.k * s.k;
            const float deq = qs.sx * qs.sw[static_cast<std::size_t>(cc)];
            const float bc = s.bias[static_cast<std::size_t>(cc)];
            float* oplane = dst + static_cast<std::size_t>(cc) * ohw;
            for (int oy = 0; oy < s.out_h; ++oy) {
              for (int ox = 0; ox < s.out_w; ++ox) {
                std::int32_t iacc = 0;
                for (int ky = 0; ky < s.k; ++ky) {
                  const int iy = oy * s.stride - s.pad + ky;
                  if (iy < 0 || iy >= s.in_h) continue;
                  for (int kx = 0; kx < s.k; ++kx) {
                    const int ix = ox * s.stride - s.pad + kx;
                    if (ix < 0 || ix >= s.in_w) continue;
                    iacc += static_cast<std::int32_t>(kern[ky * s.k + kx]) *
                            static_cast<std::int32_t>(
                                plane[static_cast<std::size_t>(iy) * s.in_w +
                                      ix]);
                  }
                }
                const float v = static_cast<float>(iacc) * deq + bc;
                oplane[static_cast<std::size_t>(oy) * s.out_w + ox] =
                    epilogue_bn_relu(s, cc, v);
              }
            }
          }
          break;
        }
        case CnnStage::Kind::kDense: {
          quantize_row(cur, s.in_elems(), qs.sx, q8);
          nn::kernels::s8_gemm(q8, qs.wq.data(), acc, 1, s.in_c, s.out_c);
          for (int j = 0; j < s.out_c; ++j) {
            float v = static_cast<float>(acc[j]) * qs.sx *
                      qs.sw[static_cast<std::size_t>(j)];
            if (s.has_bias) v += s.bias[static_cast<std::size_t>(j)];
            dst[j] = epilogue_bn_relu(s, j, v);
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
      }
      cur = dst;
    }
  });
}

std::vector<int> CompiledInt8::predict_rows(const float* rows, int m) {
  std::vector<float> logits(static_cast<std::size_t>(m) * classes_);
  run_batch(rows, m, logits.data());
  std::vector<int> out(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i)
    out[static_cast<std::size_t>(i)] = nn::argmax_row(
        logits.data() + static_cast<std::size_t>(i) * classes_, classes_);
  return out;
}

}  // namespace orev::serve
