// Per-ISA lockdown for the shared numeric kernels (nn/kernels.hpp).
//
// Two suites:
//   * KernelIsa — every SIMD variant of conv_stage, dense_stage, row_axpy
//     and max_pool2x2 that this CPU supports must be byte-identical to
//     the generic variant, on odd m/k/n (every tile remainder) and on
//     inputs holding ±0, subnormals and large magnitudes; the whole conv
//     (packer, every conv_stage variant, copy-out) must also match a
//     per-element reference over the unpadded input, with NaN and ±inf
//     among the values. Variants the CPU lacks are skipped, so the suite
//     is meaningful on AVX-512 hosts and still runs everywhere. The
//     gradient plan's dense_rows and conv_backward_data (every variant)
//     must match the layer walk's arithmetic they replace: the Dense
//     double dot products, and row_axpy plus col2im_accum; the 2×2 pool
//     backward must match the scalar argmax scatter.
//   * KernelIm2col — the bounds-hoisted im2col packers and the conv
//     input packer against a per-tap bounds-checked reference over
//     strides, paddings and kernels wider than the padded border.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <utility>
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

/// Per-channel epilogue parameters for n channels; the ConvEpilogue
/// built from them points into this object.
struct EpilogueParams {
  std::vector<float> bias, mean, invstd, gamma, beta;

  EpilogueParams(int n, Rng& rng, float (*bias_value)(Rng&))
      : bias(n), mean(n), invstd(n), gamma(n), beta(n) {
    for (int c = 0; c < n; ++c) {
      bias[c] = bias_value(rng);
      mean[c] = rng.uniform(-1.0f, 1.0f);
      invstd[c] = rng.uniform(0.5f, 2.0f);
      gamma[c] = rng.uniform(0.5f, 1.5f);
      beta[c] = rng.uniform(-0.5f, 0.5f);
    }
  }
  ConvEpilogue epilogue(bool bn, bool relu) const {
    ConvEpilogue e;
    e.bias = bias.data();
    if (bn) {
      e.bn_mean = mean.data();
      e.bn_invstd = invstd.data();
      e.bn_gamma = gamma.data();
      e.bn_beta = beta.data();
    }
    e.relu = relu;
    return e;
  }
};

using PoolFn = void (*)(const float*, int, int, int, bool, float*);
using PoolBwdFn = void (*)(const float*, const float*, int, int, int,
                          float*);

#if defined(__x86_64__) && defined(__GNUC__)

using ConvFn = void (*)(const float*, const int*, const double*,
                        const ConvEpilogue&, float*, int, int, int);
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
PoolFn pool_variant(int level) {
  return level == 2 ? detail::max_pool2x2_avx512 : detail::max_pool2x2_avx2;
}

TEST(KernelIsa, ConvStageVariantsMatchGeneric) {
  Rng rng(0xc0de);
  int compared = 0;
  // Arbitrary tap offsets into one buffer, so the kernels are held to
  // their contract (tap kk of pixel p at packed[off[kk] + p]) and not
  // just to conv layouts. m walks 1–9 and 11 sixteen-pixel tiles, so the
  // multi-tile loops (two or four tiles at a time) meet every count of
  // leftover single tiles; n the 4-channel blocks and their 1–3-channel
  // remainders.
  for (const int tiles : {1, 2, 3, 4, 5, 6, 7, 8, 9, 11}) {
    const int m = 16 * tiles;
    for (const int k : {1, 5, 27}) {
      for (const int n : {1, 2, 3, 4, 5, 6, 9, 12, 13}) {
        const int span = 97;
        const std::vector<float> packed =
            special_vector(static_cast<std::size_t>(span + m), rng);
        std::vector<int> off(static_cast<std::size_t>(k));
        for (int& o : off) o = rng.uniform_int(0, span);
        const std::vector<double> w =
            widen(special_vector(static_cast<std::size_t>(n) * k, rng));
        const EpilogueParams ep(n, rng, special_value);
        for (const bool bn : {false, true}) {
          for (const bool relu : {false, true}) {
            const ConvEpilogue e = ep.epilogue(bn, relu);
            std::vector<float> ref(static_cast<std::size_t>(n) * m);
            detail::conv_stage_generic(packed.data(), off.data(), w.data(),
                                       e, ref.data(), m, k, n);
            for (const Variant& v : kVariants) {
              if (isa_level() < v.level) continue;
              std::vector<float> got(ref.size());
              conv_variant(v.level)(packed.data(), off.data(), w.data(), e,
                                    got.data(), m, k, n);
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

  // conv_stage over whole tiles: 32 pixels, taps spread over x.
  const int px = 32;
  std::vector<int> off(std::size_t(k), 0);
  for (int& o : off) o = rng.uniform_int(0, m * k - px);
  ConvEpilogue e;
  e.bias = bias.data();
  e.relu = true;
  std::vector<float> ref(std::size_t(n) * px), got(ref.size());
  detail::conv_stage_generic(x.data(), off.data(), w.data(), e, ref.data(),
                             px, k, n);
  conv_stage(x.data(), off.data(), w.data(), e, got.data(), px, k, n);
  EXPECT_TRUE(bytes_equal(ref, got)) << "conv_stage";

  const int ph = 6, pw = 23, pc = 3;
  const std::vector<float> pin = special_vector(std::size_t(pc) * ph * pw, rng);
  std::vector<float> pref(std::size_t(pc) * (ph / 2) * (pw / 2)),
      pgot(pref.size());
  detail::max_pool2x2_generic(pin.data(), pc, ph, pw, true, pref.data());
  max_pool2x2(pin.data(), pc, ph, pw, true, pgot.data());
  EXPECT_TRUE(bytes_equal(pref, pgot)) << "max_pool2x2";

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

// ------------------------------------------------------- whole conv --

/// special_value's values plus NaN and ±inf. NaN inputs carry the sign
/// bit of x86's default NaN — the one inf·0 and inf − inf produce — so
/// every NaN a sum meets has the same bits, and the operand order of an
/// add (which IEEE leaves free to pick either NaN) cannot change a byte.
float conv_value(Rng& rng) {
  switch (rng.uniform_int(0, 19)) {
    case 0: return -std::numeric_limits<float>::quiet_NaN();
    case 1: return std::numeric_limits<float>::infinity();
    case 2: return -std::numeric_limits<float>::infinity();
    default: return special_value(rng);
  }
}

/// One [c_in, h, w] sample's conv straight from the definition: per
/// output element the taps in (c, ky, kx) order, +0.0f outside the plane,
/// summed in double from +0.0, cast once, then the float epilogue.
std::vector<float> conv_reference(const std::vector<float>& x,
                                  const std::vector<double>& w,
                                  const ConvEpilogue& e, int c_in, int h,
                                  int wd, int k, int stride, int pad, int n) {
  const int oh = (h + 2 * pad - k) / stride + 1;
  const int ow = (wd + 2 * pad - k) / stride + 1;
  const std::size_t patch = std::size_t(c_in) * k * k;
  std::vector<float> y(std::size_t(n) * oh * ow);
  for (int c = 0; c < n; ++c)
    for (int oy = 0; oy < oh; ++oy)
      for (int ox = 0; ox < ow; ++ox) {
        double acc = 0.0;
        std::size_t kk = 0;
        for (int ci = 0; ci < c_in; ++ci)
          for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx, ++kk) {
              const int iy = oy * stride - pad + ky;
              const int ix = ox * stride - pad + kx;
              const float v = iy >= 0 && iy < h && ix >= 0 && ix < wd
                                  ? x[(std::size_t(ci) * h + iy) * wd + ix]
                                  : 0.0f;
              acc += double(v) * w[c * patch + kk];
            }
        float v = static_cast<float>(acc) + e.bias[c];
        if (e.bn_mean != nullptr) {
          const float xh = (v - e.bn_mean[c]) * e.bn_invstd[c];
          v = e.bn_gamma[c] * xh + e.bn_beta[c];
        }
        if (e.relu) v = std::max(v, 0.0f);
        y[(std::size_t(c) * oh + oy) * ow + ox] = v;
      }
  return y;
}

/// Pack, run one conv_stage variant over the grid, keep the valid pixels.
std::vector<float> conv_through(
    const std::function<void(const float*, const int*, const double*,
                             const ConvEpilogue&, float*, int, int, int)>& fn,
    const std::vector<float>& x, const ConvGeometry& g,
    const std::vector<double>& w, const ConvEpilogue& e, int n) {
  std::vector<float> packed(g.packed);
  pack_conv_input(x.data(), g, packed.data());
  std::vector<float> grid(std::size_t(n) * g.grid);
  fn(packed.data(), g.off.data(), w.data(), e, grid.data(), g.grid,
     static_cast<int>(g.off.size()), n);
  std::vector<float> y;
  for (int c = 0; c < n; ++c)
    for (int oy = 0; oy < g.oh; ++oy) {
      const float* row = grid.data() + std::size_t(c) * g.grid +
                         std::size_t(oy) * g.wq;
      y.insert(y.end(), row, row + g.ow);
    }
  return y;
}

TEST(KernelIsa, ConvStageMatchesPerElementReference) {
  Rng rng(0x9e0);
  int idx = 0;
  for (const int k : {1, 3, 5}) {
    for (const int pad : {0, 1, 2}) {
      for (const int stride : {1, 2}) {
        for (const auto& [h, wd] : {std::pair{7, 13}, std::pair{13, 7}}) {
          if (h + 2 * pad < k || wd + 2 * pad < k) continue;
          // Channel counts walk 1–13 on both sides across the cases.
          const int c_in = 1 + idx % 13;
          const int n = 1 + (idx * 5 + 3) % 13;
          ++idx;
          std::vector<float> x(std::size_t(c_in) * h * wd);
          for (float& v : x) v = conv_value(rng);
          std::vector<double> w(std::size_t(n) * c_in * k * k);
          for (double& v : w) v = conv_value(rng);
          const EpilogueParams ep(n, rng, conv_value);
          const ConvGeometry g =
              conv_geometry(c_in, h, wd, k, stride, pad);
          for (const bool bn : {false, true}) {
            for (const bool relu : {false, true}) {
              const ConvEpilogue e = ep.epilogue(bn, relu);
              const std::vector<float> ref =
                  conv_reference(x, w, e, c_in, h, wd, k, stride, pad, n);
              std::ostringstream where;
              where << "k=" << k << " p=" << pad << " s=" << stride << " "
                    << h << "x" << wd << " c_in=" << c_in << " n=" << n
                    << " bn=" << bn << " relu=" << relu;
              EXPECT_TRUE(bytes_equal(
                  ref, conv_through(detail::conv_stage_generic, x, g, w, e,
                                    n)))
                  << "generic " << where.str();
#if defined(__x86_64__) && defined(__GNUC__)
              for (const Variant& v : kVariants) {
                if (isa_level() < v.level) continue;
                EXPECT_TRUE(bytes_equal(
                    ref, conv_through(conv_variant(v.level), x, g, w, e, n)))
                    << v.name << " " << where.str();
              }
#endif
              std::vector<float> got(ref.size());
              conv_forward(x.data(), g, w.data(), e, n, got.data());
              EXPECT_TRUE(bytes_equal(ref, got))
                  << "conv_forward " << where.str();
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(idx, 36);
}

// ------------------------------------------------------------ max pool --

/// The walk's pool loop for a 2×2, stride-2 window.
std::vector<float> pool_reference(const std::vector<float>& in, int c, int h,
                                  int w, bool relu) {
  std::vector<float> out;
  for (int ch = 0; ch < c; ++ch)
    for (int oy = 0; oy < h / 2; ++oy)
      for (int ox = 0; ox < w / 2; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        for (int ky = 0; ky < 2; ++ky)
          for (int kx = 0; kx < 2; ++kx) {
            const float v =
                in[(std::size_t(ch) * h + 2 * oy + ky) * w + 2 * ox + kx];
            if (v > best) best = v;
          }
        out.push_back(relu ? std::max(best, 0.0f) : best);
      }
  return out;
}

TEST(KernelIsa, MaxPool2x2VariantsMatchScalar) {
  Rng rng(0x9001);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  int compared = 0;
  // Widths across the 16- and 8-output steps, their masked or scalar
  // tails and an odd last column the pool never reads.
  for (const int h : {2, 3, 4, 7}) {
    for (const int w : {2, 3, 5, 16, 17, 31, 32, 33, 47, 64, 65}) {
      for (const int c : {1, 3}) {
        std::vector<float> in(std::size_t(c) * h * w);
        for (float& v : in) {
          switch (rng.uniform_int(0, 9)) {
            case 0: v = nan; break;
            case 1: v = -nan; break;
            case 2: v = -inf; break;
            case 3: v = -0.0f; break;
            case 4: v = 0.0f; break;
            default: v = rng.uniform(-1.0f, 1.0f);
          }
        }
        for (const bool relu : {false, true}) {
          const std::vector<float> ref = pool_reference(in, c, h, w, relu);
          std::vector<PoolFn> fns = {detail::max_pool2x2_generic,
                                     max_pool2x2};
#if defined(__x86_64__) && defined(__GNUC__)
          for (const Variant& v : kVariants)
            if (isa_level() >= v.level) fns.push_back(pool_variant(v.level));
#endif
          for (std::size_t f = 0; f < fns.size(); ++f) {
            std::vector<float> got(ref.size(), 7.0f);
            fns[f](in.data(), c, h, w, relu, got.data());
            EXPECT_TRUE(bytes_equal(ref, got))
                << "variant " << f << " " << h << "x" << w << " c=" << c
                << " relu=" << relu;
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GE(compared, 4 * 11 * 2 * 2 * 2);
}

// ------------------------------------------ gradient-plan kernels --

using DenseRowsFn = void (*)(const float*, const float*, const float*, bool,
                             float*, int, int, int);
using ConvBwdFn = void (*)(const float*, const ConvGeometry&, const float*,
                           int, float*);

/// The generic variant, the dispatcher and every SIMD variant this CPU
/// supports.
std::vector<std::pair<std::string, DenseRowsFn>> dense_rows_fns() {
  std::vector<std::pair<std::string, DenseRowsFn>> fns = {
      {"generic", detail::dense_rows_generic}, {"dispatch", dense_rows}};
#if defined(__x86_64__) && defined(__GNUC__)
  if (isa_level() >= 1) fns.emplace_back("avx2", detail::dense_rows_avx2);
  if (isa_level() >= 2) fns.emplace_back("avx512", detail::dense_rows_avx512);
#endif
  return fns;
}

std::vector<std::pair<std::string, ConvBwdFn>> conv_bwd_fns() {
  std::vector<std::pair<std::string, ConvBwdFn>> fns = {
      {"generic", detail::conv_backward_data_generic},
      {"dispatch", conv_backward_data}};
#if defined(__x86_64__) && defined(__GNUC__)
  if (isa_level() >= 1)
    fns.emplace_back("avx2", detail::conv_backward_data_avx2);
  if (isa_level() >= 2)
    fns.emplace_back("avx512", detail::conv_backward_data_avx512);
#endif
  return fns;
}

TEST(KernelIsa, DenseRowsMatchesWalkDotProducts) {
  // nn::Dense's forward: per output the double dot product in ascending
  // k over the natural [n, k] weights, one cast, then bias and ReLU.
  Rng rng(0xd0e5);
  for (const int m : {1, 3}) {
    for (const int k : {1, 7, 33, 432}) {
      for (const int n : {1, 5, 8, 9, 17, 32}) {
        std::vector<float> x(static_cast<std::size_t>(m) * k),
            w(static_cast<std::size_t>(n) * k), bias(n);
        for (float& v : x) v = conv_value(rng);
        for (float& v : w) v = conv_value(rng);
        for (float& v : bias) v = special_value(rng);
        for (const bool with_bias : {false, true}) {
          for (const bool relu : {false, true}) {
            const float* b = with_bias ? bias.data() : nullptr;
            std::vector<float> ref(static_cast<std::size_t>(m) * n);
            for (int i = 0; i < m; ++i)
              for (int j = 0; j < n; ++j) {
                double acc = 0.0;
                for (int kk = 0; kk < k; ++kk)
                  acc += double(x[std::size_t(i) * k + kk]) *
                         w[std::size_t(j) * k + kk];
                float v = static_cast<float>(acc);
                if (b != nullptr) v += b[j];
                if (relu) v = std::max(v, 0.0f);
                ref[std::size_t(i) * n + j] = v;
              }
            for (const auto& [name, fn] : dense_rows_fns()) {
              std::vector<float> got(ref.size());
              fn(x.data(), w.data(), b, relu, got.data(), m, k, n);
              EXPECT_TRUE(bytes_equal(ref, got))
                  << name << " m=" << m << " k=" << k << " n=" << n
                  << " bias=" << with_bias << " relu=" << relu;
            }
          }
        }
      }
    }
  }
}

/// Fill this thread's kernel scratch with NaN, so a variant that skips a
/// write it later reads fails instead of reading what the variant before
/// it left there.
void poison_thread_scratch() {
  constexpr std::size_t kFloats = std::size_t{1} << 16;
  float* s = thread_scratch(kFloats);
  std::fill(s, s + kFloats, std::numeric_limits<float>::quiet_NaN());
}

TEST(KernelIsa, ConvBackwardDataMatchesWalkRoute) {
  // nn::Conv2D's dx: zeroed dcols = dy^T · w through row_axpy, then
  // col2im_accum into a zeroed dx. dy holds runs of ±0 (ReLU masks) and
  // NaN/±inf; w holds non-finite entries too, so a skipped zero dy that
  // met an infinite weight would show as NaN.
  Rng rng(0xbac0);
  struct Geo {
    int c_in, h, w, k, stride, pad, n;
  };
  const Geo geos[] = {
      {1, 24, 24, 3, 1, 1, 6}, {6, 12, 12, 3, 1, 1, 12},
      {12, 6, 6, 3, 1, 1, 12}, {3, 9, 7, 5, 1, 2, 5},
      {4, 10, 10, 3, 1, 0, 7}, {3, 6, 6, 1, 1, 0, 5},
      {2, 5, 5, 3, 1, 3, 3},   {5, 7, 11, 2, 1, 1, 9},
      {2, 8, 9, 3, 2, 1, 4},   {3, 11, 9, 3, 3, 2, 2},
      {1, 1, 1, 1, 1, 0, 1},   {7, 3, 17, 3, 1, 1, 3},
      // Odd dx-grid tile counts (5 or 7 sixteen-position tiles), so the
      // two- and four-tile loops leave single tiles, at c_in 1–5 and 8.
      {1, 7, 13, 3, 1, 1, 4},  {2, 7, 8, 3, 1, 1, 5},
      {3, 11, 7, 3, 1, 1, 6},  {4, 9, 7, 3, 1, 1, 5},
      {5, 12, 7, 3, 1, 1, 3},  {8, 7, 9, 3, 1, 1, 6}};
  for (const Geo& g : geos) {
    const ConvGeometry geom =
        conv_geometry(g.c_in, g.h, g.w, g.k, g.stride, g.pad);
    const int patch = g.c_in * g.k * g.k, ohw = geom.oh * geom.ow;
    std::vector<float> dy(static_cast<std::size_t>(g.n) * ohw),
        w(static_cast<std::size_t>(g.n) * patch);
    for (float& v : dy) {
      const float u = rng.uniform();
      v = u < 0.35f ? 0.0f : (u < 0.45f ? -0.0f : conv_value(rng));
    }
    for (float& v : w) v = conv_value(rng);
    std::vector<float> cols(static_cast<std::size_t>(ohw) * patch, 0.0f);
    detail::row_axpy_generic(dy.data(), 1, ohw, w.data(), cols.data(), ohw,
                             g.n, patch);
    std::vector<float> ref(static_cast<std::size_t>(g.c_in) * g.h * g.w, 0.0f);
    col2im_accum(cols.data(), g.c_in, g.h, g.w, g.k, g.stride, g.pad, geom.oh,
                 geom.ow, ref.data());
    for (const auto& [name, fn] : conv_bwd_fns()) {
      std::vector<float> got(ref.size(), 7.0f);  // overwritten, not added to
      poison_thread_scratch();
      fn(dy.data(), geom, w.data(), g.n, got.data());
      EXPECT_TRUE(bytes_equal(ref, got))
          << name << " c_in=" << g.c_in << " " << g.h << "x" << g.w
          << " k=" << g.k << " stride=" << g.stride << " pad=" << g.pad
          << " n=" << g.n;
    }
  }
}

TEST(KernelIsa, MaxPool2x2BackwardMatchesScalarScatter) {
  // The walk's rule, written out: per window, the first tap in (ky, kx)
  // order strictly above the running max from −inf (its first tap when
  // none is), gets 0.0f + g in a zeroed dx. Inputs hold NaN, ±inf and
  // ±0 ties and whole NaN or −inf windows; g holds −0.0 (which lands as
  // +0.0), NaN and ±inf.
  Rng rng(0x9b0c);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<std::pair<std::string, PoolBwdFn>> fns = {
      {"generic", detail::max_pool2x2_backward_generic},
      {"dispatch", max_pool2x2_backward}};
#if defined(__x86_64__) && defined(__GNUC__)
  if (isa_level() >= 2)
    fns.emplace_back("avx512", detail::max_pool2x2_backward_avx512);
#endif
  int cases = 0;
  for (const int ow : {1, 7, 16, 17, 40}) {
    for (const int w : {2 * ow, 2 * ow + 1}) {
      for (const int h : {2, 3, 6, 7}) {
        const int c = 2, oh = h / 2;
        std::vector<float> in(std::size_t(c) * h * w);
        for (float& v : in) {
          switch (rng.uniform_int(0, 9)) {
            case 0: v = nan; break;
            case 1: v = -nan; break;
            case 2: v = -inf; break;
            case 3: v = inf; break;
            case 4: v = -0.0f; break;
            case 5: v = 0.0f; break;
            default: v = rng.uniform(-1.0f, 1.0f);
          }
        }
        // Whole windows of NaN and of −inf: no strict max.
        for (int ch = 0; ch < c; ++ch)
          for (int oy = 0; oy < oh; ++oy)
            for (int ox = 0; ox < ow; ++ox) {
              const int kind = rng.uniform_int(0, 5);
              if (kind > 1) continue;
              for (int ky = 0; ky < 2; ++ky)
                for (int kx = 0; kx < 2; ++kx)
                  in[(std::size_t(ch) * h + 2 * oy + ky) * w + 2 * ox + kx] =
                      kind == 0 ? nan : -inf;
            }
        std::vector<float> g(std::size_t(c) * oh * ow);
        for (float& v : g) {
          switch (rng.uniform_int(0, 7)) {
            case 0: v = -0.0f; break;
            case 1: v = nan; break;
            case 2: v = rng.uniform_int(0, 1) ? inf : -inf; break;
            default: v = rng.uniform(-2.0f, 2.0f);
          }
        }
        std::vector<float> ref(in.size(), 0.0f);
        for (int ch = 0; ch < c; ++ch)
          for (int oy = 0; oy < oh; ++oy)
            for (int ox = 0; ox < ow; ++ox) {
              float best = -inf;
              std::size_t tap = (std::size_t(ch) * h + 2 * oy) * w + 2 * ox;
              for (int ky = 0; ky < 2; ++ky)
                for (int kx = 0; kx < 2; ++kx) {
                  const std::size_t at =
                      (std::size_t(ch) * h + 2 * oy + ky) * w + 2 * ox + kx;
                  if (in[at] > best) {
                    best = in[at];
                    tap = at;
                  }
                }
              ref[tap] += g[(std::size_t(ch) * oh + oy) * ow + ox];
            }
        for (const auto& [name, fn] : fns) {
          std::vector<float> got(in.size(), 7.0f);  // overwritten
          fn(in.data(), g.data(), c, h, w, got.data());
          EXPECT_TRUE(bytes_equal(ref, got))
              << name << " " << h << "x" << w << " ow=" << ow;
          ++cases;
        }
      }
    }
  }
  EXPECT_GE(cases, 5 * 2 * 4 * 2);
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

            const std::size_t patch = ref.size() / (std::size_t(oh) * ow);

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

TEST(KernelIm2col, ConvPackerMatchesCheckedReference) {
  Rng rng(0x9ac4);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  int cases = 0;
  for (const int h : {1, 2, 5, 8}) {
    for (const int w : {1, 3, 6, 9, 17}) {
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

            const ConvGeometry g = conv_geometry(c_in, h, w, k, stride, pad);
            ASSERT_EQ(g.oh, oh) << where;
            ASSERT_EQ(g.ow, ow) << where;
            const int used = (oh - 1) * g.wq + ow;
            EXPECT_EQ(g.grid % kConvTile, 0) << where;
            EXPECT_TRUE(g.grid >= used && g.grid - used < kConvTile) << where;
            const std::size_t patch = std::size_t(c_in) * k * k;
            ASSERT_EQ(g.off.size(), patch) << where;
            for (const int o : g.off)
              ASSERT_LE(std::size_t(o) + g.grid, g.packed) << where;

            // NaN-poisoned: the packer must write every float it owns.
            std::vector<float> packed(g.packed, nan);
            pack_conv_input(src.data(), g, packed.data());
            for (const float v : packed) ASSERT_FALSE(std::isnan(v)) << where;
            for (std::size_t i = g.packed - (g.grid - used); i < g.packed;
                 ++i)
              ASSERT_TRUE(bytes_equal({packed[i]}, {0.0f})) << where;
            for (int oy = 0; oy < oh; ++oy)
              for (int ox = 0; ox < ow; ++ox)
                for (std::size_t kk = 0; kk < patch; ++kk) {
                  const float got = packed[std::size_t(g.off[kk]) +
                                           std::size_t(oy) * g.wq + ox];
                  const float want =
                      ref[(std::size_t(oy) * ow + ox) * patch + kk];
                  ASSERT_TRUE(bytes_equal({got}, {want}))
                      << where << " pixel " << oy << "," << ox << " tap "
                      << kk;
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
