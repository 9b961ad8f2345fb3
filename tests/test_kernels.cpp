// Per-ISA lockdown for the shared numeric kernels (nn/kernels.hpp).
//
// Two suites:
//   * KernelIsa — every SIMD variant of conv_stage, dense_stage and
//     row_axpy that this CPU supports must be byte-identical to the
//     generic variant, on odd m/k/n (every tile remainder) and on inputs
//     holding ±0, subnormals and large magnitudes. Variants the CPU lacks
//     are skipped, so the suite is meaningful on AVX-512 hosts and still
//     runs everywhere.
//   * KernelIm2col — the bounds-hoisted im2col packers against a per-tap
//     bounds-checked reference over strides, paddings and kernels wider
//     than the padded border.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/kernels.hpp"
#include "util/rng.hpp"

namespace orev::nn::kernels {
namespace {

/// Values that stress rounding and sign handling: ±0, float subnormals,
/// large magnitudes (products stay finite) and ordinary uniforms.
float special_value(Rng& rng) {
  switch (rng.uniform_int(0, 9)) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    case 2: return std::numeric_limits<float>::denorm_min() *
                   static_cast<float>(rng.uniform_int(1, 1000));
    case 3: return -std::numeric_limits<float>::min() * rng.uniform(0.0f, 1.0f);
    case 4: return rng.uniform(-1.0f, 1.0f) * 1e18f;
    default: return rng.uniform(-2.0f, 2.0f);
  }
}

std::vector<float> special_vector(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = special_value(rng);
  return v;
}

std::vector<double> widen(const std::vector<float>& v) {
  return std::vector<double>(v.begin(), v.end());
}

bool bytes_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The (isa level, name) of every SIMD variant to compare with generic.
struct Variant {
  int level;
  const char* name;
};
constexpr Variant kVariants[] = {{1, "avx2"}, {2, "avx512"}};

#if defined(__x86_64__) && defined(__GNUC__)

using ConvFn = void (*)(const float*, const double*, const float*,
                        const float*, const float*, const float*,
                        const float*, bool, float*, int, int, int);
using DenseFn = void (*)(const float*, const double*, const float*, bool,
                         float*, int, int, int);
using AxpyFn = void (*)(const float*, std::ptrdiff_t, std::ptrdiff_t,
                        const float*, float*, int, int, int);

ConvFn conv_variant(int level) {
  return level == 2 ? detail::conv_stage_avx512 : detail::conv_stage_avx2;
}
DenseFn dense_variant(int level) {
  return level == 2 ? detail::dense_stage_avx512 : detail::dense_stage_avx2;
}
AxpyFn axpy_variant(int level) {
  return level == 2 ? detail::row_axpy_avx512 : detail::row_axpy_avx2;
}

TEST(KernelIsa, ConvStageVariantsMatchGeneric) {
  Rng rng(0xc0de);
  int compared = 0;
  // m covers the 16-, 8- and scalar-pixel paths; n the 4-channel tiles
  // and their single-channel remainder.
  for (const int m : {1, 7, 8, 9, 16, 23, 49, 81}) {
    for (const int k : {1, 5, 27}) {
      for (const int n : {1, 3, 4, 5, 9}) {
        const std::vector<float> colsT =
            special_vector(static_cast<std::size_t>(k) * m, rng);
        const std::vector<double> w =
            widen(special_vector(static_cast<std::size_t>(n) * k, rng));
        std::vector<float> bias(static_cast<std::size_t>(n));
        std::vector<float> mean(bias.size()), invstd(bias.size()),
            gamma(bias.size()), beta(bias.size());
        for (int c = 0; c < n; ++c) {
          bias[c] = special_value(rng);
          mean[c] = rng.uniform(-1.0f, 1.0f);
          invstd[c] = rng.uniform(0.5f, 2.0f);
          gamma[c] = rng.uniform(0.5f, 1.5f);
          beta[c] = rng.uniform(-0.5f, 0.5f);
        }
        for (const bool bn : {false, true}) {
          for (const bool relu : {false, true}) {
            const float* bm = bn ? mean.data() : nullptr;
            const float* bi = bn ? invstd.data() : nullptr;
            const float* bg = bn ? gamma.data() : nullptr;
            const float* bb = bn ? beta.data() : nullptr;
            std::vector<float> ref(static_cast<std::size_t>(n) * m);
            detail::conv_stage_generic(colsT.data(), w.data(), bias.data(),
                                       bm, bi, bg, bb, relu, ref.data(), m,
                                       k, n);
            for (const Variant& v : kVariants) {
              if (isa_level() < v.level) continue;
              std::vector<float> got(ref.size());
              conv_variant(v.level)(colsT.data(), w.data(), bias.data(), bm,
                                    bi, bg, bb, relu, got.data(), m, k, n);
              EXPECT_TRUE(bytes_equal(ref, got))
                  << v.name << " m=" << m << " k=" << k << " n=" << n
                  << " bn=" << bn << " relu=" << relu;
              ++compared;
            }
          }
        }
      }
    }
  }
  if (compared == 0) GTEST_SKIP() << "no SIMD variant on this CPU";
}

TEST(KernelIsa, DenseStageVariantsMatchGeneric) {
  Rng rng(0xde45e);
  int compared = 0;
  // n covers the 32-, 16-column tiles and the scalar column remainder.
  for (const int m : {1, 3}) {
    for (const int k : {1, 7, 33}) {
      for (const int n : {1, 5, 15, 16, 17, 31, 32, 49}) {
        const std::vector<float> x =
            special_vector(static_cast<std::size_t>(m) * k, rng);
        const std::vector<double> bt =
            widen(special_vector(static_cast<std::size_t>(k) * n, rng));
        const std::vector<float> bias =
            special_vector(static_cast<std::size_t>(n), rng);
        for (const bool with_bias : {false, true}) {
          for (const bool relu : {false, true}) {
            const float* b = with_bias ? bias.data() : nullptr;
            std::vector<float> ref(static_cast<std::size_t>(m) * n);
            detail::dense_stage_generic(x.data(), bt.data(), b, relu,
                                        ref.data(), m, k, n);
            for (const Variant& v : kVariants) {
              if (isa_level() < v.level) continue;
              std::vector<float> got(ref.size());
              dense_variant(v.level)(x.data(), bt.data(), b, relu,
                                     got.data(), m, k, n);
              EXPECT_TRUE(bytes_equal(ref, got))
                  << v.name << " m=" << m << " k=" << k << " n=" << n
                  << " bias=" << with_bias << " relu=" << relu;
              ++compared;
            }
          }
        }
      }
    }
  }
  if (compared == 0) GTEST_SKIP() << "no SIMD variant on this CPU";
}

TEST(KernelIsa, RowAxpyVariantsMatchGenericIncludingZeroSkips) {
  Rng rng(0xa4b1);
  int compared = 0;
  // k past the 256-entry compaction chunk; n across the full and partial
  // register blocks; multipliers read row-major (matmul) and transposed
  // (matmul_at, the conv backward's dcols).
  for (const int m : {1, 3}) {
    for (const int k : {1, 3, 12, 255, 257, 577}) {
      for (const int n : {1, 7, 9, 17, 31, 32, 33, 54, 64, 65, 108}) {
        for (const bool transposed : {false, true}) {
          const std::ptrdiff_t a_row = transposed ? 1 : k;
          const std::ptrdiff_t a_k = transposed ? m : 1;
          std::vector<float> a =
              special_vector(static_cast<std::size_t>(m) * k, rng);
          // Runs of exact zeros, as ReLU masks leave in gradients.
          for (float& v : a)
            if (rng.uniform() < 0.4f) v = 0.0f;
          const std::vector<float> b =
              special_vector(static_cast<std::size_t>(k) * n, rng);
          const std::vector<float> y0 =
              special_vector(static_cast<std::size_t>(m) * n, rng);
          std::vector<float> ref = y0;
          detail::row_axpy_generic(a.data(), a_row, a_k, b.data(), ref.data(),
                                   m, k, n);
          for (const Variant& v : kVariants) {
            if (isa_level() < v.level) continue;
            std::vector<float> got = y0;
            axpy_variant(v.level)(a.data(), a_row, a_k, b.data(), got.data(),
                                  m, k, n);
            EXPECT_TRUE(bytes_equal(ref, got))
                << v.name << " m=" << m << " k=" << k << " n=" << n
                << " transposed=" << transposed;
            ++compared;
          }
        }
      }
    }
  }
  if (compared == 0) GTEST_SKIP() << "no SIMD variant on this CPU";
}

TEST(KernelIsa, RowAxpyZeroMultiplierSkipsNonFiniteRows) {
  // A skipped row must not touch y even when b holds inf or NaN there —
  // 0 * inf would otherwise poison the sum.
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> a = {0.0f, 2.0f, -0.0f};
  std::vector<float> b(3 * 20, 1.0f);
  for (int j = 0; j < 20; ++j) {
    b[j] = inf;
    b[40 + j] = std::numeric_limits<float>::quiet_NaN();
  }
  std::vector<float> ref(20, -0.0f);
  detail::row_axpy_generic(a.data(), 3, 1, b.data(), ref.data(), 1, 3, 20);
  for (const float v : ref) EXPECT_EQ(v, 2.0f);
  for (const Variant& v : kVariants) {
    if (isa_level() < v.level) continue;
    std::vector<float> got(20, -0.0f);
    axpy_variant(v.level)(a.data(), 3, 1, b.data(), got.data(), 1, 3, 20);
    EXPECT_TRUE(bytes_equal(ref, got)) << v.name;
  }
}

#endif  // x86_64 && GNUC

TEST(KernelIsa, DispatchersMatchGeneric) {
  Rng rng(0xd15);
  const int m = 37, k = 19, n = 11;
  const std::vector<float> x = special_vector(std::size_t(m) * k, rng);
  const std::vector<double> w = widen(special_vector(std::size_t(n) * k, rng));
  const std::vector<float> bias = special_vector(std::size_t(n), rng);

  std::vector<float> ref(std::size_t(n) * m), got(ref.size());
  detail::conv_stage_generic(x.data(), w.data(), bias.data(), nullptr,
                             nullptr, nullptr, nullptr, true, ref.data(), m,
                             k, n);
  conv_stage(x.data(), w.data(), bias.data(), nullptr, nullptr, nullptr,
             nullptr, true, got.data(), m, k, n);
  EXPECT_TRUE(bytes_equal(ref, got)) << "conv_stage";

  std::vector<float> dref(std::size_t(m) * n), dgot(dref.size());
  detail::dense_stage_generic(x.data(), w.data(), bias.data(), false,
                              dref.data(), m, k, n);
  dense_stage(x.data(), w.data(), bias.data(), false, dgot.data(), m, k, n);
  EXPECT_TRUE(bytes_equal(dref, dgot)) << "dense_stage";

  std::vector<float> aref(std::size_t(m) * n, 0.0f), agot = aref;
  detail::row_axpy_generic(x.data(), k, 1, x.data(), aref.data(), m, k, n);
  row_axpy(x.data(), k, 1, x.data(), agot.data(), m, k, n);
  EXPECT_TRUE(bytes_equal(aref, agot)) << "row_axpy";
}

// ------------------------------------------------------------- im2col --

/// Per-tap bounds-checked reference, [oh*ow, c*k*k] row-major.
std::vector<float> im2col_reference(const std::vector<float>& src, int c_in,
                                    int h, int w, int k, int stride, int pad,
                                    int oh, int ow) {
  std::vector<float> cols;
  for (int oy = 0; oy < oh; ++oy)
    for (int ox = 0; ox < ow; ++ox)
      for (int c = 0; c < c_in; ++c)
        for (int ky = 0; ky < k; ++ky)
          for (int kx = 0; kx < k; ++kx) {
            const int iy = oy * stride - pad + ky;
            const int ix = ox * stride - pad + kx;
            cols.push_back(iy >= 0 && iy < h && ix >= 0 && ix < w
                               ? src[(std::size_t(c) * h + iy) * w + ix]
                               : 0.0f);
          }
  return cols;
}

TEST(KernelIm2col, HoistedPackersMatchCheckedReference) {
  Rng rng(0x12c0);
  int cases = 0;
  for (const int h : {1, 2, 5, 8}) {
    for (const int w : {1, 3, 6, 9}) {
      for (int k = 1; k <= 4; ++k) {
        for (int stride = 1; stride <= 3; ++stride) {
          for (int pad = 0; pad <= 2; ++pad) {
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            const int c_in = 2;
            const int oh = (h + 2 * pad - k) / stride + 1;
            const int ow = (w + 2 * pad - k) / stride + 1;
            std::vector<float> src(std::size_t(c_in) * h * w);
            for (float& v : src) v = rng.uniform(-1.0f, 1.0f);
            const std::vector<float> ref =
                im2col_reference(src, c_in, h, w, k, stride, pad, oh, ow);
            const std::string where =
                "h=" + std::to_string(h) + " w=" + std::to_string(w) +
                " k=" + std::to_string(k) + " s=" + std::to_string(stride) +
                " p=" + std::to_string(pad);

            std::vector<float> rows(ref.size(), 7.0f);
            im2col_f32(src.data(), c_in, h, w, k, stride, pad, oh, ow,
                       rows.data());
            EXPECT_TRUE(bytes_equal(ref, rows)) << "im2col_f32 " << where;

            // Transposed layout: element (p, kk) moves to (kk, p).
            const std::size_t m = std::size_t(oh) * ow;
            const std::size_t patch = ref.size() / m;
            std::vector<float> colsT(ref.size(), 7.0f);
            im2col_f32_t(src.data(), c_in, h, w, k, stride, pad, oh, ow,
                         colsT.data());
            std::vector<float> back(ref.size());
            for (std::size_t p = 0; p < m; ++p)
              for (std::size_t kk = 0; kk < patch; ++kk)
                back[p * patch + kk] = colsT[kk * m + p];
            EXPECT_TRUE(bytes_equal(ref, back)) << "im2col_f32_t " << where;

            std::vector<std::int8_t> src8(src.size());
            for (std::size_t i = 0; i < src.size(); ++i)
              src8[i] = static_cast<std::int8_t>(src[i] * 127.0f);
            std::vector<std::int8_t> rows8(ref.size(), 7);
            im2col_s8(src8.data(), c_in, h, w, k, stride, pad, oh, ow,
                      rows8.data());
            for (std::size_t i = 0; i < ref.size(); ++i) {
              const std::size_t p = i / patch, kk = i % patch;
              const int c = static_cast<int>(kk) / (k * k);
              const int ky = static_cast<int>(kk) % (k * k) / k;
              const int kx = static_cast<int>(kk) % k;
              const int iy = static_cast<int>(p) / ow * stride - pad + ky;
              const int ix = static_cast<int>(p) % ow * stride - pad + kx;
              const std::int8_t want =
                  iy >= 0 && iy < h && ix >= 0 && ix < w
                      ? src8[(std::size_t(c) * h + iy) * w + ix]
                      : std::int8_t{0};
              ASSERT_EQ(rows8[i], want) << "im2col_s8 " << where;
            }
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 100);
}

}  // namespace
}  // namespace orev::nn::kernels
