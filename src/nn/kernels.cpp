#include "nn/kernels.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace orev::nn::kernels {

namespace {

/// The float epilogue of one conv output element (ConvEpilogue's order).
inline float conv_epilogue1(float v, const ConvEpilogue& e, int c) {
  v += e.bias[c];
  if (e.bn_mean != nullptr) {
    const float xh = (v - e.bn_mean[c]) * e.bn_invstd[c];
    v = e.bn_gamma[c] * xh + e.bn_beta[c];
  }
  if (e.relu) v = std::max(v, 0.0f);
  return v;
}

/// One conv output pixel on the scalar path: the reference op order every
/// SIMD lane reproduces.
inline float conv_pixel(const float* packed, const int* off,
                        const double* wrow, int k, int p,
                        const ConvEpilogue& e, int c) {
  double acc = 0.0;
  for (int kk = 0; kk < k; ++kk)
    acc += static_cast<double>(packed[off[kk] + p]) * wrow[kk];
  return conv_epilogue1(static_cast<float>(acc), e, c);
}

/// One 2×2 pool output from its taps in (ky, kx) order: the scalar
/// pool's running max from −inf, then the optional ReLU.
inline float pool4(const float* r0, const float* r1, int ox, bool relu) {
  float best = -std::numeric_limits<float>::infinity();
  for (const float v : {r0[2 * ox], r0[2 * ox + 1], r1[2 * ox], r1[2 * ox + 1]})
    if (v > best) best = v;
  return relu ? std::max(best, 0.0f) : best;
}

inline float dense_epilogue1(double acc, const float* bias, bool relu,
                             int j) {
  float v = static_cast<float>(acc);
  if (bias != nullptr) v += bias[j];
  if (relu) v = std::max(v, 0.0f);
  return v;
}

/// Rows of the row-axpy are compacted in chunks of this many k entries:
/// the nonzero multipliers (and their k index) are gathered first, so the
/// SIMD inner loop runs branch-free over exactly the rows the reference
/// does not skip, in the same ascending order.
constexpr int kAxpyChunk = 256;

inline int compact_nonzero(const float* a, std::ptrdiff_t a_stride, int k0,
                           int k1, int* idx, float* val) {
  int cnt = 0;
  for (int kk = k0; kk < k1; ++kk) {
    const float av = a[kk * a_stride];
    idx[cnt] = kk;
    val[cnt] = av;
    cnt += av != 0.0f ? 1 : 0;
  }
  return cnt;
}

/// One Dense output on the natural [n, k] weight layout: the walk's
/// double dot product in ascending kk, then the epilogue.
inline float dense_dot1(const float* xrow, const float* wrow, int k,
                        const float* bias, bool relu, int j) {
  double acc = 0.0;
  for (int kk = 0; kk < k; ++kk) acc += double(xrow[kk]) * wrow[kk];
  return dense_epilogue1(acc, bias, relu, j);
}

#if defined(__x86_64__) && defined(__GNUC__)

// SIMD ReLU as max(0, v), not max(v, 0): _mm*_max_ps returns its second
// operand unless the first is strictly greater, so this form keeps −0.0
// and NaN exactly as std::max(v, 0.0f) does.
__attribute__((target("avx2"))) inline __m128 relu4(__m128 v) {
  return _mm_max_ps(_mm_setzero_ps(), v);
}
__attribute__((target("avx2"))) inline __m256 relu8(__m256 v) {
  return _mm256_max_ps(_mm256_setzero_ps(), v);
}

// Dense epilogue over four cast lanes at column j.
__attribute__((target("avx2"))) inline __m128 dense_epilogue4(
    __m128 v, const float* bias, bool relu, int j) {
  if (bias != nullptr) v = _mm_add_ps(v, _mm_loadu_ps(bias + j));
  if (relu) v = relu4(v);
  return v;
}

// Conv epilogue over eight pixel lanes of channel c. A separate function
// (not a lambda) because GCC lambdas do not inherit the enclosing
// function's target attribute.
__attribute__((target("avx2"))) inline __m256 conv_epilogue8(
    __m256 v, const ConvEpilogue& e, int c) {
  v = _mm256_add_ps(v, _mm256_set1_ps(e.bias[c]));
  if (e.bn_mean != nullptr) {
    v = _mm256_sub_ps(v, _mm256_set1_ps(e.bn_mean[c]));
    v = _mm256_mul_ps(v, _mm256_set1_ps(e.bn_invstd[c]));
    v = _mm256_add_ps(_mm256_mul_ps(v, _mm256_set1_ps(e.bn_gamma[c])),
                      _mm256_set1_ps(e.bn_beta[c]));
  }
  if (e.relu) v = relu8(v);
  return v;
}

// Sixteen dense columns of row xrow as four ymm double accumulators live
// across the whole k loop.
__attribute__((target("avx2,fma"))) inline void dense_tile16_avx2(
    const float* xrow, const double* bt, const float* bias, bool relu,
    float* yrow, int k, int n, int j0) {
  __m256d c0 = _mm256_setzero_pd();
  __m256d c1 = _mm256_setzero_pd();
  __m256d c2 = _mm256_setzero_pd();
  __m256d c3 = _mm256_setzero_pd();
  for (int kk = 0; kk < k; ++kk) {
    const __m256d av = _mm256_set1_pd(static_cast<double>(xrow[kk]));
    const double* bp = bt + static_cast<std::size_t>(kk) * n + j0;
    c0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bp), c0);
    c1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bp + 4), c1);
    c2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bp + 8), c2);
    c3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bp + 12), c3);
  }
  _mm_storeu_ps(yrow + j0,
                dense_epilogue4(_mm256_cvtpd_ps(c0), bias, relu, j0));
  _mm_storeu_ps(yrow + j0 + 4,
                dense_epilogue4(_mm256_cvtpd_ps(c1), bias, relu, j0 + 4));
  _mm_storeu_ps(yrow + j0 + 8,
                dense_epilogue4(_mm256_cvtpd_ps(c2), bias, relu, j0 + 8));
  _mm_storeu_ps(yrow + j0 + 12,
                dense_epilogue4(_mm256_cvtpd_ps(c3), bias, relu, j0 + 12));
}

inline void dense_column(const float* xrow, const double* bt,
                         const float* bias, bool relu, float* yrow, int k,
                         int n, int j) {
  double acc = 0.0;
  for (int kk = 0; kk < k; ++kk)
    acc += double(xrow[kk]) * bt[static_cast<std::size_t>(kk) * n + j];
  yrow[j] = dense_epilogue1(acc, bias, relu, j);
}

// Conv channels [c, c + NC) over the eight pixels at src/y: NC × 2 ymm
// accumulators, so each widened eight-float tap load feeds 2·NC fmadds.
template <int NC>
__attribute__((target("avx2,fma"))) inline void conv_tile8_avx2(
    const float* src, const int* off, const double* w, const ConvEpilogue& e,
    float* y, int m, int k, int c) {
  __m256d lo[NC], hi[NC];
  for (int j = 0; j < NC; ++j) lo[j] = hi[j] = _mm256_setzero_pd();
  const double* wc = w + static_cast<std::size_t>(c) * k;
  for (int kk = 0; kk < k; ++kk) {
    const float* xp = src + off[kk];
    const __m256d x0 = _mm256_cvtps_pd(_mm_loadu_ps(xp));
    const __m256d x1 = _mm256_cvtps_pd(_mm_loadu_ps(xp + 4));
    for (int j = 0; j < NC; ++j) {
      const __m256d wv =
          _mm256_broadcast_sd(wc + static_cast<std::size_t>(j) * k + kk);
      lo[j] = _mm256_fmadd_pd(x0, wv, lo[j]);
      hi[j] = _mm256_fmadd_pd(x1, wv, hi[j]);
    }
  }
  for (int j = 0; j < NC; ++j) {
    const __m256 v =
        _mm256_set_m128(_mm256_cvtpd_ps(hi[j]), _mm256_cvtpd_ps(lo[j]));
    _mm256_storeu_ps(y + static_cast<std::size_t>(c + j) * m,
                     conv_epilogue8(v, e, c + j));
  }
}

// GCC 12's unmasked _mm512_cvtps_pd / _mm512_cvtpd_ps / _mm512_max_ps
// hand the masked builtin an uninitialised pass-through vector, which
// -Wall reports as -W(maybe-)uninitialized. The all-lanes zero-masked
// forms name no pass-through and compile to the same unmasked instruction.
__attribute__((target("avx512f"))) inline __m512d cvtps_pd512(__m256 x) {
  return _mm512_maskz_cvtps_pd(static_cast<__mmask8>(0xff), x);
}

__attribute__((target("avx512f"))) inline __m256 cvtpd_ps512(__m512d x) {
  return _mm512_maskz_cvtpd_ps(static_cast<__mmask8>(0xff), x);
}

__attribute__((target("avx512f"))) inline __m512 max_ps512(__m512 a,
                                                           __m512 b) {
  return _mm512_maskz_max_ps(static_cast<__mmask16>(0xffff), a, b);
}

// Conv channels [c, c + NC) over T consecutive sixteen-pixel tiles:
// NC × 2T zmm accumulators, so each broadcast weight feeds 2T fmadds and
// each widened tap load NC. An fmadd's result is ready only several
// cycles after the FMA ports could start the next one, so the tile must
// keep that many independent chains in flight: NC·2T = 16 for four
// channels (T = 2), 8 for one (T = 4).
template <int NC, int T>
__attribute__((target("avx2,fma,avx512f"))) inline void conv_tile16_avx512(
    const float* src, const int* off, const double* w, const ConvEpilogue& e,
    float* y, int m, int k, int c) {
  __m512d acc[NC][2 * T];
  for (int j = 0; j < NC; ++j)
    for (int h = 0; h < 2 * T; ++h) acc[j][h] = _mm512_setzero_pd();
  const double* wc = w + static_cast<std::size_t>(c) * k;
  for (int kk = 0; kk < k; ++kk) {
    const float* xp = src + off[kk];
    __m512d x[2 * T];
    for (int h = 0; h < 2 * T; ++h)
      x[h] = cvtps_pd512(_mm256_loadu_ps(xp + 8 * h));
    for (int j = 0; j < NC; ++j) {
      const __m512d wv =
          _mm512_set1_pd(wc[static_cast<std::size_t>(j) * k + kk]);
      for (int h = 0; h < 2 * T; ++h)
        acc[j][h] = _mm512_fmadd_pd(x[h], wv, acc[j][h]);
    }
  }
  for (int j = 0; j < NC; ++j) {
    float* out = y + static_cast<std::size_t>(c + j) * m;
    for (int h = 0; h < 2 * T; ++h)
      _mm256_storeu_ps(out + 8 * h,
                       conv_epilogue8(cvtpd_ps512(acc[j][h]), e, c + j));
  }
}

// Channels [c, c + NC) over every pixel; m is whole tiles, so no tail.
template <int NC>
__attribute__((target("avx2,fma"))) void conv_channels_avx2(
    const float* src, const int* off, const double* w, const ConvEpilogue& e,
    float* y, int m, int k, int c) {
  for (int p = 0; p < m; p += 8)
    conv_tile8_avx2<NC>(src + p, off, w, e, y + p, m, k, c);
}

// T tiles at a time, then the grid's last m/16 mod T tiles one by one.
template <int NC>
__attribute__((target("avx2,fma,avx512f"))) void conv_channels_avx512(
    const float* src, const int* off, const double* w, const ConvEpilogue& e,
    float* y, int m, int k, int c) {
  constexpr int T = NC == 1 ? 4 : 2;
  int p = 0;
  for (; p + 16 * T <= m; p += 16 * T)
    conv_tile16_avx512<NC, T>(src + p, off, w, e, y + p, m, k, c);
  for (; p < m; p += 16)
    conv_tile16_avx512<NC, 1>(src + p, off, w, e, y + p, m, k, c);
}

// The four taps of 2×2 pool outputs, already split into (ky, kx) order,
// folded from −inf: max_ps(v, best) is v > best ? v : best, the scalar
// pool's update, and max_ps(0, best) is std::max(best, 0.0f).
__attribute__((target("avx2"))) inline __m256 pool4_avx2(
    __m256 t0, __m256 t1, __m256 t2, __m256 t3, bool relu) {
  const __m256 neg_inf =
      _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  __m256 best = _mm256_max_ps(t0, neg_inf);
  best = _mm256_max_ps(t1, best);
  best = _mm256_max_ps(t2, best);
  best = _mm256_max_ps(t3, best);
  return relu ? relu8(best) : best;
}

// Even and odd elements of the sixteen floats at p, in order.
__attribute__((target("avx2"))) inline void deinterleave8_avx2(
    const float* p, __m256* even, __m256* odd) {
  const __m256 a = _mm256_loadu_ps(p), b = _mm256_loadu_ps(p + 8);
  // shuffle_ps works per 128-bit lane: (a0 a2 b0 b2 | a4 a6 b4 b6);
  // permuting the 64-bit pairs as (0, 2, 1, 3) restores element order.
  *even = _mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_shuffle_ps(a, b, 0x88)), 0xd8));
  *odd = _mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_shuffle_ps(a, b, 0xdd)), 0xd8));
}

// Row-axpy over one compacted k chunk, columns [j0, j0 + 8·NV) as NV ymm
// float accumulators held across the chunk. Masked blocks (a row's last,
// partial one) load and store through lane masks; masked-off lanes read as
// zero and are never written back.
template <int NV, bool Masked>
__attribute__((target("avx2"))) inline void axpy_block_avx2(
    const int* idx, const float* val, int cnt, const float* b, float* y,
    int n, int j0) {
  __m256i mask[NV];
  __m256 acc[NV];
  float* yp = y + j0;
  for (int q = 0; q < NV; ++q) {
    if (Masked) {
      const __m256i lane = _mm256_add_epi32(
          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
          _mm256_set1_epi32(j0 + 8 * q));
      mask[q] = _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lane);
      acc[q] = _mm256_maskload_ps(yp + 8 * q, mask[q]);
    } else {
      acc[q] = _mm256_loadu_ps(yp + 8 * q);
    }
  }
  for (int t = 0; t < cnt; ++t) {
    const __m256 av = _mm256_set1_ps(val[t]);
    const float* bp = b + static_cast<std::size_t>(idx[t]) * n + j0;
    for (int q = 0; q < NV; ++q) {
      const __m256 bv = Masked ? _mm256_maskload_ps(bp + 8 * q, mask[q])
                               : _mm256_loadu_ps(bp + 8 * q);
      acc[q] = _mm256_add_ps(acc[q], _mm256_mul_ps(av, bv));
    }
  }
  for (int q = 0; q < NV; ++q) {
    if (Masked) {
      _mm256_maskstore_ps(yp + 8 * q, mask[q], acc[q]);
    } else {
      _mm256_storeu_ps(yp + 8 * q, acc[q]);
    }
  }
}

// Same over columns [j0, j0 + 16·NV) as NV zmm accumulators; AVX-512
// masks cost nothing, so every block goes through them.
template <int NV>
__attribute__((target("avx2,avx512f"))) inline void axpy_block_avx512(
    const int* idx, const float* val, int cnt, const float* b, float* y,
    int n, int j0) {
  __mmask16 mask[NV];
  __m512 acc[NV];
  float* yp = y + j0;
  for (int q = 0; q < NV; ++q) {
    const int left = std::clamp(n - j0 - 16 * q, 0, 16);
    mask[q] = static_cast<__mmask16>((1u << left) - 1u);
    acc[q] = _mm512_maskz_loadu_ps(mask[q], yp + 16 * q);
  }
  for (int t = 0; t < cnt; ++t) {
    const __m512 av = _mm512_set1_ps(val[t]);
    const float* bp = b + static_cast<std::size_t>(idx[t]) * n + j0;
    for (int q = 0; q < NV; ++q)
      acc[q] = _mm512_add_ps(
          acc[q],
          _mm512_mul_ps(av, _mm512_maskz_loadu_ps(mask[q], bp + 16 * q)));
  }
  for (int q = 0; q < NV; ++q)
    _mm512_mask_storeu_ps(yp + 16 * q, mask[q], acc[q]);
}

// One output row over every column: full four-vector blocks, then one
// block just wide enough for the remainder.
__attribute__((target("avx2"))) inline void axpy_row_avx2(
    const int* idx, const float* val, int cnt, const float* b, float* y,
    int n) {
  int j0 = 0;
  for (; j0 + 32 <= n; j0 += 32)
    axpy_block_avx2<4, false>(idx, val, cnt, b, y, n, j0);
  switch ((n - j0 + 7) / 8) {
    case 1: return axpy_block_avx2<1, true>(idx, val, cnt, b, y, n, j0);
    case 2: return axpy_block_avx2<2, true>(idx, val, cnt, b, y, n, j0);
    case 3: return axpy_block_avx2<3, true>(idx, val, cnt, b, y, n, j0);
    case 4: return axpy_block_avx2<4, true>(idx, val, cnt, b, y, n, j0);
    default: return;
  }
}

__attribute__((target("avx2,avx512f"))) inline void axpy_row_avx512(
    const int* idx, const float* val, int cnt, const float* b, float* y,
    int n) {
  int j0 = 0;
  for (; j0 + 64 <= n; j0 += 64)
    axpy_block_avx512<4>(idx, val, cnt, b, y, n, j0);
  switch ((n - j0 + 15) / 16) {
    case 1: return axpy_block_avx512<1>(idx, val, cnt, b, y, n, j0);
    case 2: return axpy_block_avx512<2>(idx, val, cnt, b, y, n, j0);
    case 3: return axpy_block_avx512<3>(idx, val, cnt, b, y, n, j0);
    case 4: return axpy_block_avx512<4>(idx, val, cnt, b, y, n, j0);
    default: return;
  }
}

// Eight Dense outputs [j0, j0 + 8) of one row from the natural [n, k]
// weight layout: each kk gathers the eight weights (a stride-k column of
// W), widens them and fmadds against the broadcast input — the per-output
// ascending-kk double sum of dense_dot1, with no packed W^T.
__attribute__((target("avx2,fma"))) inline void dense_rows_tile8_avx2(
    const float* xrow, const float* w, const float* bias, bool relu,
    float* yrow, int k, int j0) {
  const __m256i col = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(k));
  const float* wj = w + static_cast<std::size_t>(j0) * k;
  __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
  for (int kk = 0; kk < k; ++kk) {
    const __m256 wv = _mm256_i32gather_ps(wj + kk, col, 4);
    const __m256d xv = _mm256_set1_pd(static_cast<double>(xrow[kk]));
    lo = _mm256_fmadd_pd(xv, _mm256_cvtps_pd(_mm256_castps256_ps128(wv)), lo);
    hi = _mm256_fmadd_pd(xv, _mm256_cvtps_pd(_mm256_extractf128_ps(wv, 1)),
                         hi);
  }
  __m256 v = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
  if (bias != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(bias + j0));
  if (relu) v = relu8(v);
  _mm256_storeu_ps(yrow + j0, v);
}

__attribute__((target("avx2,fma,avx512f"))) inline void
dense_rows_tile8_avx512(const float* xrow, const float* w, const float* bias,
                        bool relu, float* yrow, int k, int j0) {
  const __m256i col = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(k));
  const float* wj = w + static_cast<std::size_t>(j0) * k;
  __m512d acc = _mm512_setzero_pd();
  for (int kk = 0; kk < k; ++kk) {
    const __m256 wv = _mm256_i32gather_ps(wj + kk, col, 4);
    acc = _mm512_fmadd_pd(_mm512_set1_pd(static_cast<double>(xrow[kk])),
                          cvtps_pd512(wv), acc);
  }
  __m256 v = cvtpd_ps512(acc);
  if (bias != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(bias + j0));
  if (relu) v = relu8(v);
  _mm256_storeu_ps(yrow + j0, v);
}

// Stride-1 conv backward-data tile: input channels [ci0, ci0 + CB) over
// the grid positions [q, q + 8). Per lane, each tap (descending (ky, kx))
// sums its dcols entry over the output channels in ascending order,
// skipping zero dy values — row_axpy's update, product then sum, each
// rounded — and the tap sums are added into the dx accumulator in that
// tap order: col2im_accum's ascending-pixel order for stride 1.
template <int CB>
__attribute__((target("avx2"))) inline void conv_bwd_tile8_avx2(
    const float* gp, std::size_t plane, int gw, int k, const float* w,
    int n, int c_in, float* dxg, int m, int ci0, int q) {
  const int taps = k * k;
  const std::size_t patch = static_cast<std::size_t>(c_in) * taps;
  __m256 acc[CB];
  for (int b = 0; b < CB; ++b) acc[b] = _mm256_setzero_ps();
  for (int ky = k - 1; ky >= 0; --ky) {
    for (int kx = k - 1; kx >= 0; --kx) {
      const float* gq = gp + (k - 1 - ky) * gw + (k - 1 - kx) + q;
      const float* wt = w + static_cast<std::size_t>(ci0) * taps + ky * k + kx;
      __m256 d[CB];
      for (int b = 0; b < CB; ++b) d[b] = _mm256_setzero_ps();
      for (int c = 0; c < n; ++c) {
        const __m256 gv = _mm256_loadu_ps(gq + c * plane);
        const __m256 nz = _mm256_cmp_ps(gv, _mm256_setzero_ps(), _CMP_NEQ_UQ);
        const float* wc = wt + c * patch;
        for (int b = 0; b < CB; ++b) {
          const __m256 upd = _mm256_add_ps(
              d[b], _mm256_mul_ps(gv, _mm256_set1_ps(wc[b * taps])));
          d[b] = _mm256_blendv_ps(d[b], upd, nz);
        }
      }
      for (int b = 0; b < CB; ++b) acc[b] = _mm256_add_ps(acc[b], d[b]);
    }
  }
  for (int b = 0; b < CB; ++b)
    _mm256_storeu_ps(dxg + static_cast<std::size_t>(ci0 + b) * m + q, acc[b]);
}

// Same over T consecutive sixteen-position tiles: CB × T dcols chains per
// tap, each dy load and zero mask feeding CB of them and each broadcast
// weight T — 8 chains for four channels (T = 2), 4–12 for fewer (T = 4).
template <int CB, int T>
__attribute__((target("avx2,avx512f"))) inline void conv_bwd_tile16_avx512(
    const float* gp, std::size_t plane, int gw, int k, const float* w,
    int n, int c_in, float* dxg, int m, int ci0, int q) {
  const int taps = k * k;
  const std::size_t patch = static_cast<std::size_t>(c_in) * taps;
  __m512 acc[CB][T];
  for (int b = 0; b < CB; ++b)
    for (int t = 0; t < T; ++t) acc[b][t] = _mm512_setzero_ps();
  for (int ky = k - 1; ky >= 0; --ky) {
    for (int kx = k - 1; kx >= 0; --kx) {
      const float* gq = gp + (k - 1 - ky) * gw + (k - 1 - kx) + q;
      const float* wt = w + static_cast<std::size_t>(ci0) * taps + ky * k + kx;
      __m512 d[CB][T];
      for (int b = 0; b < CB; ++b)
        for (int t = 0; t < T; ++t) d[b][t] = _mm512_setzero_ps();
      for (int c = 0; c < n; ++c) {
        __m512 gv[T];
        __mmask16 nz[T];
        for (int t = 0; t < T; ++t) {
          gv[t] = _mm512_loadu_ps(gq + c * plane + 16 * t);
          nz[t] = _mm512_cmp_ps_mask(gv[t], _mm512_setzero_ps(), _CMP_NEQ_UQ);
        }
        const float* wc = wt + c * patch;
        for (int b = 0; b < CB; ++b) {
          const __m512 wv = _mm512_set1_ps(wc[b * taps]);
          for (int t = 0; t < T; ++t)
            d[b][t] = _mm512_mask_add_ps(d[b][t], nz[t], d[b][t],
                                         _mm512_mul_ps(gv[t], wv));
        }
      }
      for (int b = 0; b < CB; ++b)
        for (int t = 0; t < T; ++t)
          acc[b][t] = _mm512_add_ps(acc[b][t], d[b][t]);
    }
  }
  for (int b = 0; b < CB; ++b)
    for (int t = 0; t < T; ++t)
      _mm512_storeu_ps(dxg + static_cast<std::size_t>(ci0 + b) * m + q + 16 * t,
                       acc[b][t]);
}

// Input channels [ci, ci + CB) over the whole grid: T tiles at a time,
// then the grid's last m/16 mod T tiles one by one.
template <int CB>
__attribute__((target("avx2,avx512f"))) void conv_bwd_block_avx512(
    const float* gp, std::size_t plane, int gw, int k, const float* w, int n,
    int c_in, float* dxg, int m, int ci) {
  constexpr int T = CB < 4 ? 4 : 2;
  int q = 0;
  for (; q + 16 * T <= m; q += 16 * T)
    conv_bwd_tile16_avx512<CB, T>(gp, plane, gw, k, w, n, c_in, dxg, m, ci,
                                  q);
  for (; q < m; q += 16)
    conv_bwd_tile16_avx512<CB, 1>(gp, plane, gw, k, w, n, c_in, dxg, m, ci,
                                  q);
}

// Int8 dot-product rows: widen int8 lanes to int16, multiply-accumulate
// pairs into int32 with pmaddwd. Integer adds associate freely, so lane
// order cannot change the result — the dispatch here is purely about
// speed, unlike the float kernels above where it is about preserving bits.
__attribute__((target("avx2"))) void s8_gemm_avx2(const std::int8_t* a,
                                                  const std::int8_t* w,
                                                  std::int32_t* y, int m,
                                                  int k, int n) {
  for (int i = 0; i < m; ++i) {
    const std::int8_t* arow = a + static_cast<std::size_t>(i) * k;
    std::int32_t* yrow = y + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const std::int8_t* wrow = w + static_cast<std::size_t>(j) * k;
      __m256i acc = _mm256_setzero_si256();
      int kk = 0;
      for (; kk + 16 <= k; kk += 16) {
        const __m256i av = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + kk)));
        const __m256i wv = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(wrow + kk)));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, wv));
      }
      __m128i lo = _mm256_castsi256_si128(acc);
      __m128i hi = _mm256_extracti128_si256(acc, 1);
      __m128i s = _mm_add_epi32(lo, hi);
      s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
      s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
      std::int32_t total = _mm_cvtsi128_si32(s);
      for (; kk < k; ++kk)
        total += static_cast<std::int32_t>(arow[kk]) *
                 static_cast<std::int32_t>(wrow[kk]);
      yrow[j] = total;
    }
  }
}

#endif  // x86_64 && GNUC

void s8_gemm_generic(const std::int8_t* a, const std::int8_t* w,
                     std::int32_t* y, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const std::int8_t* arow = a + static_cast<std::size_t>(i) * k;
    std::int32_t* yrow = y + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const std::int8_t* wrow = w + static_cast<std::size_t>(j) * k;
      std::int32_t total = 0;
      for (int kk = 0; kk < k; ++kk)
        total += static_cast<std::int32_t>(arow[kk]) *
                 static_cast<std::int32_t>(wrow[kk]);
      yrow[j] = total;
    }
  }
}

}  // namespace

// ------------------------------------------------------- ISA variants

// ------------------------------------------------- conv backward-data

namespace {

/// The stride-1 backward-data layout: dy planes zero-padded by k − 1 on
/// every side, so each tap of dx grid position q = y·gw + x reads
/// plane[q + (k−1−ky)·gw + (k−1−kx)] — contiguous in q, like the forward's
/// ConvGeometry. Columns x ≥ w of the grid are computed and dropped.
struct BwdGrid {
  int gw = 0;             // row pitch of the padded dy planes and dx grid
  int m = 0;              // dx grid positions, whole kConvTile tiles
  std::size_t plane = 0;  // floats per padded dy plane, tail reads included
};

BwdGrid bwd_grid(const ConvGeometry& g) {
  BwdGrid b;
  b.gw = g.w + g.k - 1;
  const int rows = (g.h - 1) * b.gw + g.w;
  b.m = (rows + kConvTile - 1) / kConvTile * kConvTile;
  // The last tile's reads end below m + (k−1)·(gw+1), which also covers
  // the h + k − 1 padded rows.
  const std::size_t span = static_cast<std::size_t>(b.m) +
                           static_cast<std::size_t>(g.k - 1) * (b.gw + 1);
  b.plane = (span + kConvTile - 1) / kConvTile * kConvTile;
  return b;
}

void pack_bwd_dy(const float* dy, const ConvGeometry& g, const BwdGrid& b,
                 int n, float* gp) {
  // Padded row r holds dy row r − shift; columns likewise.
  const int shift = g.k - 1 - g.pad;
  const int rows = g.h + g.k - 1;
  const int ox_lo = std::max(0, -shift);
  const int ox_hi = std::min(g.ow, b.gw - shift);
  for (int c = 0; c < n; ++c) {
    float* plane = gp + static_cast<std::size_t>(c) * b.plane;
    std::fill(plane, plane + b.plane, 0.0f);
    if (ox_lo >= ox_hi) continue;
    const float* src = dy + static_cast<std::size_t>(c) * g.oh * g.ow;
    for (int oy = std::max(0, -shift); oy < g.oh && oy + shift < rows; ++oy)
      std::copy(src + static_cast<std::size_t>(oy) * g.ow + ox_lo,
                src + static_cast<std::size_t>(oy) * g.ow + ox_hi,
                plane + static_cast<std::size_t>(oy + shift) * b.gw + ox_lo +
                    shift);
  }
}

using BwdGridFn = void (*)(const float* gp, std::size_t plane, int gw, int k,
                           const float* w, int n, int c_in, float* dxg,
                           int m);

/// conv_backward_data around one ISA's grid kernel. Other strides take
/// the im2col route itself: zeroed dcols through row_axpy, then
/// col2im_accum.
void conv_backward_data_with(BwdGridFn grid, const float* dy,
                             const ConvGeometry& g, const float* w, int n,
                             float* dx) {
  if (g.stride != 1) {
    const int patch = g.c_in * g.k * g.k;
    const int ohw = g.oh * g.ow;
    const std::size_t cols_n = static_cast<std::size_t>(ohw) * patch;
    float* cols = thread_scratch(cols_n);
    std::fill(cols, cols + cols_n, 0.0f);
    row_axpy(dy, 1, ohw, w, cols, ohw, n, patch);
    std::fill(dx, dx + static_cast<std::size_t>(g.c_in) * g.h * g.w, 0.0f);
    col2im_accum(cols, g.c_in, g.h, g.w, g.k, g.stride, g.pad, g.oh, g.ow,
                 dx);
    return;
  }
  const BwdGrid b = bwd_grid(g);
  float* gp = thread_scratch(static_cast<std::size_t>(n) * b.plane +
                             static_cast<std::size_t>(g.c_in) * b.m);
  float* dxg = gp + static_cast<std::size_t>(n) * b.plane;
  pack_bwd_dy(dy, g, b, n, gp);
  grid(gp, b.plane, b.gw, g.k, w, n, g.c_in, dxg, b.m);
  for (int c = 0; c < g.c_in; ++c)
    for (int y = 0; y < g.h; ++y) {
      const float* src = dxg + static_cast<std::size_t>(c) * b.m +
                         static_cast<std::size_t>(y) * b.gw;
      std::copy(src, src + g.w,
                dx + (static_cast<std::size_t>(c) * g.h + y) * g.w);
    }
}

}  // namespace

namespace detail {

// Reference dense stage. Every output element accumulates double(x) * bt
// in ascending-k order, casts once to float, then applies the optional
// bias add and ReLU as single float ops.
void dense_stage_generic(const float* x, const double* bt, const float* bias,
                         bool relu, float* y, int m, int k, int n) {
  std::vector<double> acc(static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * k;
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int kk = 0; kk < k; ++kk) {
      const double av = xrow[kk];
      const double* btrow = bt + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) acc[j] += av * btrow[j];
    }
    float* yrow = y + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j)
      yrow[j] = dense_epilogue1(acc[j], bias, relu, j);
  }
}

void conv_stage_generic(const float* packed, const int* off, const double* w,
                        const ConvEpilogue& e, float* y, int m, int k, int n) {
  for (int c = 0; c < n; ++c) {
    const double* wrow = w + static_cast<std::size_t>(c) * k;
    float* out = y + static_cast<std::size_t>(c) * m;
    for (int p = 0; p < m; ++p)
      out[p] = conv_pixel(packed, off, wrow, k, p, e, c);
  }
}

void max_pool2x2_generic(const float* in, int c, int h, int w, bool relu,
                         float* out) {
  const int oh = h / 2, ow = w / 2;
  for (int ch = 0; ch < c; ++ch) {
    for (int oy = 0; oy < oh; ++oy) {
      const float* r0 = in + (static_cast<std::size_t>(ch) * h + 2 * oy) * w;
      const float* r1 = r0 + w;
      float* o = out + (static_cast<std::size_t>(ch) * oh + oy) * ow;
      for (int ox = 0; ox < ow; ++ox) o[ox] = pool4(r0, r1, ox, relu);
    }
  }
}

void max_pool2x2_backward_generic(const float* in, const float* g, int c,
                                  int h, int w, float* dx) {
  const int oh = h / 2, ow = w / 2;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  std::fill(dx, dx + c * plane, 0.0f);
  for (int ch = 0; ch < c; ++ch, in += plane, dx += plane)
    for (int oy = 0; oy < oh; ++oy)
      for (int ox = 0; ox < ow; ++ox, ++g) {
        const std::ptrdiff_t a =
            pool_window_argmax(in, w, 2 * oy, 2 * ox, 2);
        dx[pool_grad_tap(a, w, 2 * oy, 2 * ox)] += *g;
      }
}

void row_axpy_generic(const float* a, std::ptrdiff_t a_row,
                      std::ptrdiff_t a_k, const float* b, float* y, int m,
                      int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* ai = a + i * a_row;
    float* yi = y + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float av = ai[kk * a_k];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) yi[j] += av * brow[j];
    }
  }
}

void dense_rows_generic(const float* x, const float* w, const float* bias,
                        bool relu, float* y, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * k;
    float* yrow = y + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j)
      yrow[j] = dense_dot1(xrow, w + static_cast<std::size_t>(j) * k, k, bias,
                           relu, j);
  }
}

static void conv_bwd_grid_generic(const float* gp, std::size_t plane,
                                  int gw, int k, const float* w, int n,
                                  int c_in, float* dxg, int m) {
  const int taps = k * k;
  const std::size_t patch = static_cast<std::size_t>(c_in) * taps;
  for (int ci = 0; ci < c_in; ++ci) {
    for (int q = 0; q < m; ++q) {
      float acc = 0.0f;
      for (int ky = k - 1; ky >= 0; --ky) {
        for (int kx = k - 1; kx >= 0; --kx) {
          const float* gq = gp + (k - 1 - ky) * gw + (k - 1 - kx) + q;
          const float* wt =
              w + static_cast<std::size_t>(ci) * taps + ky * k + kx;
          float d = 0.0f;
          for (int c = 0; c < n; ++c) {
            const float gv = gq[c * plane];
            if (gv != 0.0f) d = d + gv * wt[c * patch];
          }
          acc = acc + d;
        }
      }
      dxg[static_cast<std::size_t>(ci) * m + q] = acc;
    }
  }
}

void conv_backward_data_generic(const float* dy, const ConvGeometry& g,
                                const float* w, int n, float* dx) {
  conv_backward_data_with(conv_bwd_grid_generic, dy, g, w, n, dx);
}

#if defined(__x86_64__) && defined(__GNUC__)

// 16-column register tiles; remainder columns take the scalar element
// loop (identical per-element op order either way).
__attribute__((target("avx2,fma"))) void dense_stage_avx2(
    const float* x, const double* bt, const float* bias, bool relu, float* y,
    int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * k;
    float* yrow = y + static_cast<std::size_t>(i) * n;
    int j0 = 0;
    for (; j0 + 16 <= n; j0 += 16)
      dense_tile16_avx2(xrow, bt, bias, relu, yrow, k, n, j0);
    for (; j0 < n; ++j0) dense_column(xrow, bt, bias, relu, yrow, k, n, j0);
  }
}

// 32-column zmm tiles with a 16-column ymm tail; same op order, 8 wide.
__attribute__((target("avx2,fma,avx512f"))) void dense_stage_avx512(
    const float* x, const double* bt, const float* bias, bool relu, float* y,
    int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * k;
    float* yrow = y + static_cast<std::size_t>(i) * n;
    int j0 = 0;
    for (; j0 + 32 <= n; j0 += 32) {
      __m512d c0 = _mm512_setzero_pd();
      __m512d c1 = _mm512_setzero_pd();
      __m512d c2 = _mm512_setzero_pd();
      __m512d c3 = _mm512_setzero_pd();
      for (int kk = 0; kk < k; ++kk) {
        const __m512d av = _mm512_set1_pd(static_cast<double>(xrow[kk]));
        const double* bp = bt + static_cast<std::size_t>(kk) * n + j0;
        c0 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bp), c0);
        c1 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bp + 8), c1);
        c2 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bp + 16), c2);
        c3 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bp + 24), c3);
      }
      const __m512d cs[4] = {c0, c1, c2, c3};
      for (int q = 0; q < 4; ++q) {
        __m256 v = cvtpd_ps512(cs[q]);
        if (bias != nullptr)
          v = _mm256_add_ps(v, _mm256_loadu_ps(bias + j0 + 8 * q));
        if (relu) v = relu8(v);
        _mm256_storeu_ps(yrow + j0 + 8 * q, v);
      }
    }
    for (; j0 + 16 <= n; j0 += 16)
      dense_tile16_avx2(xrow, bt, bias, relu, yrow, k, n, j0);
    for (; j0 < n; ++j0) dense_column(xrow, bt, bias, relu, yrow, k, n, j0);
  }
}

// Pixel-vectorized conv: each SIMD lane owns one output pixel's double
// accumulator, walking k in ascending order — the scalar reference's op
// sequence eight pixels at a time, four output channels per tile and one
// narrower tile for the remaining channels. The float epilogue is
// lane-wise; nothing reassociates.
__attribute__((target("avx2,fma"))) void conv_stage_avx2(
    const float* packed, const int* off, const double* w,
    const ConvEpilogue& e, float* y, int m, int k, int n) {
  int c = 0;
  for (; c + 4 <= n; c += 4)
    conv_channels_avx2<4>(packed, off, w, e, y, m, k, c);
  switch (n - c) {
    case 3: return conv_channels_avx2<3>(packed, off, w, e, y, m, k, c);
    case 2: return conv_channels_avx2<2>(packed, off, w, e, y, m, k, c);
    case 1: return conv_channels_avx2<1>(packed, off, w, e, y, m, k, c);
    default: return;
  }
}

// Sixteen pixels per tile (two zmm per channel).
__attribute__((target("avx2,fma,avx512f"))) void conv_stage_avx512(
    const float* packed, const int* off, const double* w,
    const ConvEpilogue& e, float* y, int m, int k, int n) {
  int c = 0;
  for (; c + 4 <= n; c += 4)
    conv_channels_avx512<4>(packed, off, w, e, y, m, k, c);
  switch (n - c) {
    case 3: return conv_channels_avx512<3>(packed, off, w, e, y, m, k, c);
    case 2: return conv_channels_avx512<2>(packed, off, w, e, y, m, k, c);
    case 1: return conv_channels_avx512<1>(packed, off, w, e, y, m, k, c);
    default: return;
  }
}

// Eight outputs per step from two deinterleaved sixteen-float row spans;
// the last ow mod 8 outputs of a row take the scalar loop.
__attribute__((target("avx2"))) void max_pool2x2_avx2(const float* in, int c,
                                                      int h, int w, bool relu,
                                                      float* out) {
  const int oh = h / 2, ow = w / 2;
  for (int ch = 0; ch < c; ++ch) {
    for (int oy = 0; oy < oh; ++oy) {
      const float* r0 = in + (static_cast<std::size_t>(ch) * h + 2 * oy) * w;
      const float* r1 = r0 + w;
      float* o = out + (static_cast<std::size_t>(ch) * oh + oy) * ow;
      int ox = 0;
      for (; ox + 8 <= ow; ox += 8) {
        __m256 e0, o0, e1, o1;
        deinterleave8_avx2(r0 + 2 * ox, &e0, &o0);
        deinterleave8_avx2(r1 + 2 * ox, &e1, &o1);
        _mm256_storeu_ps(o + ox, pool4_avx2(e0, o0, e1, o1, relu));
      }
      for (; ox < ow; ++ox) o[ox] = pool4(r0, r1, ox, relu);
    }
  }
}

// Sixteen outputs per step; a row's last, partial step loads and stores
// through lane masks (masked-off lanes read as zero and are never
// stored), so there is no scalar tail.
__attribute__((target("avx2,avx512f"))) void max_pool2x2_avx512(
    const float* in, int c, int h, int w, bool relu, float* out) {
  const int oh = h / 2, ow = w / 2;
  const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                         20, 22, 24, 26, 28, 30);
  const __m512i odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
  const __m512 neg_inf =
      _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  auto mask = [](int lanes) {
    return static_cast<__mmask16>((1u << std::clamp(lanes, 0, 16)) - 1u);
  };
  for (int ch = 0; ch < c; ++ch) {
    for (int oy = 0; oy < oh; ++oy) {
      const float* r0 = in + (static_cast<std::size_t>(ch) * h + 2 * oy) * w;
      const float* r1 = r0 + w;
      float* o = out + (static_cast<std::size_t>(ch) * oh + oy) * ow;
      for (int ox = 0; ox < ow; ox += 16) {
        const int left = std::min(ow - ox, 16);
        const __mmask16 m_lo = mask(2 * left), m_hi = mask(2 * left - 16);
        const float* p0 = r0 + 2 * ox;
        const float* p1 = r1 + 2 * ox;
        const __m512 a0 = _mm512_maskz_loadu_ps(m_lo, p0);
        const __m512 a1 = _mm512_maskz_loadu_ps(m_hi, p0 + 16);
        const __m512 b0 = _mm512_maskz_loadu_ps(m_lo, p1);
        const __m512 b1 = _mm512_maskz_loadu_ps(m_hi, p1 + 16);
        __m512 best =
            max_ps512(_mm512_permutex2var_ps(a0, even, a1), neg_inf);
        best = max_ps512(_mm512_permutex2var_ps(a0, odd, a1), best);
        best = max_ps512(_mm512_permutex2var_ps(b0, even, b1), best);
        best = max_ps512(_mm512_permutex2var_ps(b0, odd, b1), best);
        if (relu) best = max_ps512(_mm512_setzero_ps(), best);
        _mm512_mask_storeu_ps(o + ox, mask(left), best);
      }
    }
  }
}

// The pool's backward sixteen windows at a time, deinterleaved as in
// max_pool2x2_avx512. The running max from −inf records which taps beat
// it (ordered v > best, so NaN never does); the last of them is the first
// strict max, and a window none beat routes to tap 0, as pool_grad_tap
// does. The winner's lane gets 0.0f + g (the scalar += into a zeroed dx,
// so a −0.0 gradient stores +0.0), the other taps +0.0; both row spans
// are re-interleaved and stored through the load masks.
__attribute__((target("avx2,avx512f"))) void max_pool2x2_backward_avx512(
    const float* in, const float* g, int c, int h, int w, float* dx) {
  const int oh = h / 2, ow = w / 2;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  std::fill(dx, dx + c * plane, 0.0f);
  const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                         20, 22, 24, 26, 28, 30);
  const __m512i odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
  const __m512i lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5,
                                       21, 6, 22, 7, 23);
  const __m512i hi = _mm512_add_epi32(lo, _mm512_set1_epi32(8));
  const __m512 zero = _mm512_setzero_ps();
  auto mask = [](int lanes) {
    return static_cast<__mmask16>((1u << std::clamp(lanes, 0, 16)) - 1u);
  };
  for (int ch = 0; ch < c; ++ch) {
    for (int oy = 0; oy < oh; ++oy) {
      const std::size_t row = static_cast<std::size_t>(ch) * plane +
                              static_cast<std::size_t>(2 * oy) * w;
      const float* gi = g + (static_cast<std::size_t>(ch) * oh + oy) * ow;
      for (int ox = 0; ox < ow; ox += 16) {
        const int left = std::min(ow - ox, 16);
        const __mmask16 m_lo = mask(2 * left), m_hi = mask(2 * left - 16);
        const float* p0 = in + row + 2 * ox;
        const float* p1 = p0 + w;
        const __m512 a0 = _mm512_maskz_loadu_ps(m_lo, p0);
        const __m512 a1 = _mm512_maskz_loadu_ps(m_hi, p0 + 16);
        const __m512 b0 = _mm512_maskz_loadu_ps(m_lo, p1);
        const __m512 b1 = _mm512_maskz_loadu_ps(m_hi, p1 + 16);
        const __m512 t0 = _mm512_permutex2var_ps(a0, even, a1);
        const __m512 t1 = _mm512_permutex2var_ps(a0, odd, a1);
        const __m512 t2 = _mm512_permutex2var_ps(b0, even, b1);
        const __m512 t3 = _mm512_permutex2var_ps(b0, odd, b1);
        __m512 best = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
        best = _mm512_mask_mov_ps(
            best, _mm512_cmp_ps_mask(t0, best, _CMP_GT_OQ), t0);
        const __mmask16 k1 = _mm512_cmp_ps_mask(t1, best, _CMP_GT_OQ);
        best = _mm512_mask_mov_ps(best, k1, t1);
        const __mmask16 k2 = _mm512_cmp_ps_mask(t2, best, _CMP_GT_OQ);
        best = _mm512_mask_mov_ps(best, k2, t2);
        const __mmask16 k3 = _mm512_cmp_ps_mask(t3, best, _CMP_GT_OQ);
        const __mmask16 w2 = static_cast<__mmask16>(k2 & ~k3);
        const __mmask16 w1 = static_cast<__mmask16>(k1 & ~(k2 | k3));
        const __mmask16 w0 = static_cast<__mmask16>(~(k1 | k2 | k3));
        const __m512 gv =
            _mm512_add_ps(zero, _mm512_maskz_loadu_ps(mask(left), gi + ox));
        const __m512 v0 = _mm512_maskz_mov_ps(w0, gv);
        const __m512 v1 = _mm512_maskz_mov_ps(w1, gv);
        const __m512 v2 = _mm512_maskz_mov_ps(w2, gv);
        const __m512 v3 = _mm512_maskz_mov_ps(k3, gv);
        float* d0 = dx + row + 2 * ox;
        float* d1 = d0 + w;
        _mm512_mask_storeu_ps(d0, m_lo, _mm512_permutex2var_ps(v0, lo, v1));
        _mm512_mask_storeu_ps(d0 + 16, m_hi,
                              _mm512_permutex2var_ps(v0, hi, v1));
        _mm512_mask_storeu_ps(d1, m_lo, _mm512_permutex2var_ps(v2, lo, v3));
        _mm512_mask_storeu_ps(d1 + 16, m_hi,
                              _mm512_permutex2var_ps(v2, hi, v3));
      }
    }
  }
}

// Each row's nonzero multipliers are compacted chunk by chunk, then the
// row is updated a register block at a time over that chunk.
__attribute__((target("avx2"))) void row_axpy_avx2(
    const float* a, std::ptrdiff_t a_row, std::ptrdiff_t a_k, const float* b,
    float* y, int m, int k, int n) {
  int idx[kAxpyChunk];
  float val[kAxpyChunk];
  for (int i = 0; i < m; ++i) {
    for (int k0 = 0; k0 < k; k0 += kAxpyChunk) {
      const int cnt = compact_nonzero(a + i * a_row, a_k, k0,
                                      std::min(k, k0 + kAxpyChunk), idx, val);
      if (cnt > 0)
        axpy_row_avx2(idx, val, cnt, b, y + static_cast<std::size_t>(i) * n,
                      n);
    }
  }
}

__attribute__((target("avx2,avx512f"))) void row_axpy_avx512(
    const float* a, std::ptrdiff_t a_row, std::ptrdiff_t a_k, const float* b,
    float* y, int m, int k, int n) {
  int idx[kAxpyChunk];
  float val[kAxpyChunk];
  for (int i = 0; i < m; ++i) {
    for (int k0 = 0; k0 < k; k0 += kAxpyChunk) {
      const int cnt = compact_nonzero(a + i * a_row, a_k, k0,
                                      std::min(k, k0 + kAxpyChunk), idx, val);
      if (cnt > 0)
        axpy_row_avx512(idx, val, cnt, b,
                        y + static_cast<std::size_t>(i) * n, n);
    }
  }
}

__attribute__((target("avx2,fma"))) void dense_rows_avx2(
    const float* x, const float* w, const float* bias, bool relu, float* y,
    int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * k;
    float* yrow = y + static_cast<std::size_t>(i) * n;
    int j0 = 0;
    for (; j0 + 8 <= n; j0 += 8)
      dense_rows_tile8_avx2(xrow, w, bias, relu, yrow, k, j0);
    for (; j0 < n; ++j0)
      yrow[j0] = dense_dot1(xrow, w + static_cast<std::size_t>(j0) * k, k,
                            bias, relu, j0);
  }
}

__attribute__((target("avx2,fma,avx512f"))) void dense_rows_avx512(
    const float* x, const float* w, const float* bias, bool relu, float* y,
    int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * k;
    float* yrow = y + static_cast<std::size_t>(i) * n;
    int j0 = 0;
    for (; j0 + 8 <= n; j0 += 8)
      dense_rows_tile8_avx512(xrow, w, bias, relu, yrow, k, j0);
    for (; j0 < n; ++j0)
      yrow[j0] = dense_dot1(xrow, w + static_cast<std::size_t>(j0) * k, k,
                            bias, relu, j0);
  }
}

// Input channels in blocks of four (one narrower block for the rest), so
// each dy load and its zero mask feed four dcols accumulators.
static __attribute__((target("avx2"))) void conv_bwd_grid_avx2(
    const float* gp, std::size_t plane, int gw, int k, const float* w, int n,
    int c_in, float* dxg, int m) {
  for (int q = 0; q < m; q += 8) {
    int ci = 0;
    for (; ci + 4 <= c_in; ci += 4)
      conv_bwd_tile8_avx2<4>(gp, plane, gw, k, w, n, c_in, dxg, m, ci, q);
    switch (c_in - ci) {
      case 3:
        conv_bwd_tile8_avx2<3>(gp, plane, gw, k, w, n, c_in, dxg, m, ci, q);
        break;
      case 2:
        conv_bwd_tile8_avx2<2>(gp, plane, gw, k, w, n, c_in, dxg, m, ci, q);
        break;
      case 1:
        conv_bwd_tile8_avx2<1>(gp, plane, gw, k, w, n, c_in, dxg, m, ci, q);
        break;
      default:
        break;
    }
  }
}

// Channel-block-major, like the forward: each block walks the whole grid.
static __attribute__((target("avx2,avx512f"))) void conv_bwd_grid_avx512(
    const float* gp, std::size_t plane, int gw, int k, const float* w, int n,
    int c_in, float* dxg, int m) {
  int ci = 0;
  for (; ci + 4 <= c_in; ci += 4)
    conv_bwd_block_avx512<4>(gp, plane, gw, k, w, n, c_in, dxg, m, ci);
  switch (c_in - ci) {
    case 3:
      return conv_bwd_block_avx512<3>(gp, plane, gw, k, w, n, c_in, dxg, m, ci);
    case 2:
      return conv_bwd_block_avx512<2>(gp, plane, gw, k, w, n, c_in, dxg, m, ci);
    case 1:
      return conv_bwd_block_avx512<1>(gp, plane, gw, k, w, n, c_in, dxg, m, ci);
    default:
      return;
  }
}

void conv_backward_data_avx2(const float* dy, const ConvGeometry& g,
                             const float* w, int n, float* dx) {
  conv_backward_data_with(conv_bwd_grid_avx2, dy, g, w, n, dx);
}

void conv_backward_data_avx512(const float* dy, const ConvGeometry& g,
                               const float* w, int n, float* dx) {
  conv_backward_data_with(conv_bwd_grid_avx512, dy, g, w, n, dx);
}

#endif  // x86_64 && GNUC

}  // namespace detail

// ---------------------------------------------------------- dispatch

int isa_level() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const int isa = [] {
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma"))
      return 2;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
      return 1;
    return 0;
  }();
  return isa;
#else
  return 0;
#endif
}

void dense_stage(const float* x, const double* bt, const float* bias,
                 bool relu, float* y, int m, int k, int n) {
#if defined(__x86_64__) && defined(__GNUC__)
  const int isa = isa_level();
  if (isa == 2)
    return detail::dense_stage_avx512(x, bt, bias, relu, y, m, k, n);
  if (isa == 1) return detail::dense_stage_avx2(x, bt, bias, relu, y, m, k, n);
#endif
  detail::dense_stage_generic(x, bt, bias, relu, y, m, k, n);
}

void conv_stage(const float* packed, const int* off, const double* w,
                const ConvEpilogue& e, float* y, int m, int k, int n) {
#if defined(__x86_64__) && defined(__GNUC__)
  const int isa = isa_level();
  if (isa == 2)
    return detail::conv_stage_avx512(packed, off, w, e, y, m, k, n);
  if (isa == 1) return detail::conv_stage_avx2(packed, off, w, e, y, m, k, n);
#endif
  detail::conv_stage_generic(packed, off, w, e, y, m, k, n);
}

void max_pool2x2(const float* in, int c, int h, int w, bool relu,
                 float* out) {
#if defined(__x86_64__) && defined(__GNUC__)
  const int isa = isa_level();
  if (isa == 2) return detail::max_pool2x2_avx512(in, c, h, w, relu, out);
  if (isa == 1) return detail::max_pool2x2_avx2(in, c, h, w, relu, out);
#endif
  detail::max_pool2x2_generic(in, c, h, w, relu, out);
}

void max_pool2x2_backward(const float* in, const float* g, int c, int h,
                          int w, float* dx) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (isa_level() == 2)
    return detail::max_pool2x2_backward_avx512(in, g, c, h, w, dx);
#endif
  detail::max_pool2x2_backward_generic(in, g, c, h, w, dx);
}

void row_axpy(const float* a, std::ptrdiff_t a_row, std::ptrdiff_t a_k,
              const float* b, float* y, int m, int k, int n) {
#if defined(__x86_64__) && defined(__GNUC__)
  const int isa = isa_level();
  if (isa == 2) return detail::row_axpy_avx512(a, a_row, a_k, b, y, m, k, n);
  if (isa == 1) return detail::row_axpy_avx2(a, a_row, a_k, b, y, m, k, n);
#endif
  detail::row_axpy_generic(a, a_row, a_k, b, y, m, k, n);
}

void conv_backward_data(const float* dy, const ConvGeometry& g,
                        const float* w, int n, float* dx) {
#if defined(__x86_64__) && defined(__GNUC__)
  const int isa = isa_level();
  if (isa == 2) return detail::conv_backward_data_avx512(dy, g, w, n, dx);
  if (isa == 1) return detail::conv_backward_data_avx2(dy, g, w, n, dx);
#endif
  detail::conv_backward_data_generic(dy, g, w, n, dx);
}

void dense_rows(const float* x, const float* w, const float* bias, bool relu,
                float* y, int m, int k, int n) {
#if defined(__x86_64__) && defined(__GNUC__)
  const int isa = isa_level();
  if (isa == 2) return detail::dense_rows_avx512(x, w, bias, relu, y, m, k, n);
  if (isa == 1) return detail::dense_rows_avx2(x, w, bias, relu, y, m, k, n);
#endif
  detail::dense_rows_generic(x, w, bias, relu, y, m, k, n);
}

void s8_gemm(const std::int8_t* a, const std::int8_t* w, std::int32_t* y,
             int m, int k, int n) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (isa_level() >= 1) {
    s8_gemm_avx2(a, w, y, m, k, n);
    return;
  }
#endif
  s8_gemm_generic(a, w, y, m, k, n);
}

// ----------------------------------------------------------- im2col

namespace {

/// Output positions [lo, hi) along one axis whose k taps all land inside
/// [0, extent): interior positions, copied without per-tap checks.
struct Interior {
  int lo, hi;
};

Interior interior(int out, int extent, int k, int stride, int pad) {
  int lo = 0;
  while (lo < out && lo * stride - pad < 0) ++lo;
  int hi = out;
  while (hi > lo && (hi - 1) * stride - pad + k > extent) --hi;
  return {lo, hi};
}

// K > 0 fixes the kernel size at compile time so the per-tap loops
// unroll; K == 0 reads it from k.
template <int K, typename T>
void im2col_rows(const T* src, int c_in, int h, int w, int k, int stride,
                 int pad, int oh, int ow, T* cols) {
  if (K > 0) k = K;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const Interior ry = interior(oh, h, k, stride, pad);
  const Interior rx = interior(ow, w, k, stride, pad);
  T* row = cols;
  for (int oy = 0; oy < oh; ++oy) {
    const int iy0 = oy * stride - pad;
    const bool row_in = oy >= ry.lo && oy < ry.hi;
    for (int ox = 0; ox < ow; ++ox) {
      const int ix0 = ox * stride - pad;
      if (row_in && ox >= rx.lo && ox < rx.hi) {
        const std::size_t corner = static_cast<std::size_t>(iy0) * w + ix0;
        for (int c = 0; c < c_in; ++c) {
          const T* tap = src + c * plane + corner;
          for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx)
              *row++ = tap[static_cast<std::size_t>(ky) * w + kx];
        }
        continue;
      }
      for (int c = 0; c < c_in; ++c) {
        const T* pl = src + c * plane;
        for (int ky = 0; ky < k; ++ky) {
          const int iy = iy0 + ky;
          for (int kx = 0; kx < k; ++kx) {
            const int ix = ix0 + kx;
            *row++ = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                         ? pl[static_cast<std::size_t>(iy) * w + ix]
                         : T(0);
          }
        }
      }
    }
  }
}

template <typename T>
void im2col_any(const T* src, int c_in, int h, int w, int k, int stride,
                int pad, int oh, int ow, T* cols) {
  switch (k) {
    case 1:
      return im2col_rows<1>(src, c_in, h, w, k, stride, pad, oh, ow, cols);
    case 3:
      return im2col_rows<3>(src, c_in, h, w, k, stride, pad, oh, ow, cols);
    default:
      return im2col_rows<0>(src, c_in, h, w, k, stride, pad, oh, ow, cols);
  }
}

// K > 0 fixes the kernel size at compile time so the tap loops unroll;
// K == 0 reads it from k. Interior pixels skip the per-tap bounds checks,
// which changes neither a value nor the accumulation order.
template <int K>
void col2im_rows(const float* cols, int c_in, int h, int w, int k,
                 int stride, int pad, int oh, int ow, float* dst) {
  if (K > 0) k = K;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const float* row = cols;
  for (int oy = 0; oy < oh; ++oy) {
    const int iy0 = oy * stride - pad;
    const bool row_in = iy0 >= 0 && iy0 + k <= h;
    for (int ox = 0; ox < ow; ++ox) {
      const int ix0 = ox * stride - pad;
      if (row_in && ix0 >= 0 && ix0 + k <= w) {
        const std::size_t corner = static_cast<std::size_t>(iy0) * w + ix0;
        for (int c = 0; c < c_in; ++c) {
          float* tap = dst + c * plane + corner;
          for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx)
              tap[static_cast<std::size_t>(ky) * w + kx] += *row++;
        }
        continue;
      }
      for (int c = 0; c < c_in; ++c) {
        float* pl = dst + c * plane;
        for (int ky = 0; ky < k; ++ky) {
          const int iy = iy0 + ky;
          for (int kx = 0; kx < k; ++kx, ++row) {
            const int ix = ix0 + kx;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w)
              pl[static_cast<std::size_t>(iy) * w + ix] += *row;
          }
        }
      }
    }
  }
}

}  // namespace

void im2col_f32(const float* src, int c_in, int h, int w, int k, int stride,
                int pad, int oh, int ow, float* cols) {
  im2col_any<float>(src, c_in, h, w, k, stride, pad, oh, ow, cols);
}

void col2im_accum(const float* cols, int c_in, int h, int w, int k,
                  int stride, int pad, int oh, int ow, float* dst) {
  switch (k) {
    case 1:
      return col2im_rows<1>(cols, c_in, h, w, k, stride, pad, oh, ow, dst);
    case 3:
      return col2im_rows<3>(cols, c_in, h, w, k, stride, pad, oh, ow, dst);
    default:
      return col2im_rows<0>(cols, c_in, h, w, k, stride, pad, oh, ow, dst);
  }
}

void im2col_s8(const std::int8_t* src, int c_in, int h, int w, int k,
               int stride, int pad, int oh, int ow, std::int8_t* cols) {
  im2col_any<std::int8_t>(src, c_in, h, w, k, stride, pad, oh, ow, cols);
}

// ------------------------------------------------------- conv packing

ConvGeometry conv_geometry(int c_in, int h, int w, int k, int stride,
                           int pad) {
  ConvGeometry g;
  g.c_in = c_in;
  g.h = h;
  g.w = w;
  g.k = k;
  g.stride = stride;
  g.pad = pad;
  g.oh = (h + 2 * pad - k) / stride + 1;
  g.ow = (w + 2 * pad - k) / stride + 1;
  g.phases = std::min(stride, k);
  const int reach = (k - 1) / stride;  // phase-plane rows/cols a tap adds
  g.hq = g.oh + reach;
  g.wq = g.ow + reach;
  const int used = (g.oh - 1) * g.wq + g.ow;
  g.grid = (used + kConvTile - 1) / kConvTile * kConvTile;
  const int phase = g.hq * g.wq;
  const int chan = g.phases * g.phases * phase;
  g.packed = static_cast<std::size_t>(c_in) * chan + (g.grid - used);
  g.off.clear();
  for (int c = 0; c < c_in; ++c)
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx)
        g.off.push_back(c * chan +
                        ((ky % stride) * g.phases + kx % stride) * phase +
                        (ky / stride) * g.wq + kx / stride);
  return g;
}

void pack_conv_input(const float* src, const ConvGeometry& g, float* packed) {
  const int s = g.stride;
  float* out = packed;
  for (int c = 0; c < g.c_in; ++c) {
    const float* plane = src + static_cast<std::size_t>(c) * g.h * g.w;
    for (int ry = 0; ry < g.phases; ++ry) {
      for (int rx = 0; rx < g.phases; ++rx) {
        // Phase column qx holds input column qx·s + rx − pad, which lies
        // inside the plane for qx in [lo, hi); the rest is padding.
        const int lo = std::min(g.pad > rx ? (g.pad - rx + s - 1) / s : 0,
                                g.wq);
        const int hi = std::clamp((g.w + g.pad - rx + s - 1) / s, lo, g.wq);
        for (int qy = 0; qy < g.hq; ++qy, out += g.wq) {
          const int iy = qy * s + ry - g.pad;
          if (iy < 0 || iy >= g.h) {
            std::fill(out, out + g.wq, 0.0f);
            continue;
          }
          const float* row = plane + static_cast<std::size_t>(iy) * g.w;
          std::fill(out, out + lo, 0.0f);
          if (s == 1) {
            std::copy(row + lo - g.pad, row + hi - g.pad, out + lo);
          } else {
            for (int qx = lo; qx < hi; ++qx) out[qx] = row[qx * s + rx - g.pad];
          }
          std::fill(out + hi, out + g.wq, 0.0f);
        }
      }
    }
  }
  std::fill(out, packed + g.packed, 0.0f);
}

float* thread_scratch(std::size_t n) {
  thread_local std::vector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

void conv_forward(const float* x, const ConvGeometry& g, const double* w,
                  const ConvEpilogue& e, int n, float* y) {
  float* packed =
      thread_scratch(g.packed + static_cast<std::size_t>(n) * g.grid);
  float* grid = packed + g.packed;
  pack_conv_input(x, g, packed);
  conv_stage(packed, g.off.data(), w, e, grid, g.grid,
             static_cast<int>(g.off.size()), n);
  for (int c = 0; c < n; ++c) {
    const float* src = grid + static_cast<std::size_t>(c) * g.grid;
    float* dst = y + static_cast<std::size_t>(c) * g.oh * g.ow;
    for (int oy = 0; oy < g.oh; ++oy)
      std::copy(src + static_cast<std::size_t>(oy) * g.wq,
                src + static_cast<std::size_t>(oy) * g.wq + g.ow,
                dst + static_cast<std::size_t>(oy) * g.ow);
  }
}

}  // namespace orev::nn::kernels
