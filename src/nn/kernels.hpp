// Shared numeric microkernels of the layer walk and the compiled plans
// (DESIGN.md §11–12).
//
// The float GEMMs here are the single arithmetic core of both the
// uncompiled layer walk (nn::Conv2D, nn::matmul*) and every compiled
// inference plan (serve/compiled*): y[i, j] = epilogue(sum_k double(x[i, k])
// * w[k, j]), with w widened to double, and the epilogue (bias add,
// optional BatchNorm affine, optional ReLU) applied as the exact float op
// sequence of the layer walk. Accumulation is per-element in ascending-k
// order, so the scalar, AVX2 and AVX-512 variants produce bitwise-identical
// output and the runtime ISA dispatch cannot change a single bit:
//
//   * The double kernels may fuse multiply and add (explicit fmadd_pd):
//     the product of two floats widened to double is exact (48 significant
//     bits, exponent far inside double range), so fma(x, w, acc) rounds
//     once exactly where mul + add rounds once.
//   * Float arithmetic (the epilogues, the row-axpy below) must never be
//     fused. src/ is compiled with -ffp-contract=off, so the compiler does
//     not contract a*b + c into an FMA even inside target("avx512f")
//     functions, where FMA instructions are available.
//
// The int8 GEMM feeds the explicitly *non*-bit-exact quantized serving
// tier (serve/quant.hpp): pure integer dot products, so it is exact (and
// order-independent) in its own domain; only the surrounding
// quantize/dequantize steps lose precision.
#pragma once

#include <cstddef>
#include <cstdint>

namespace orev::nn::kernels {

/// Fused dense stage over row-major operands: x is [m, k], bt is [k, n]
/// (the weight matrix transposed and widened to double), y is [m, n].
/// `bias` may be null (skip the add); `relu` fuses max(·, 0).
/// Bit-identical to the per-element dot product double(x)·bt summed in
/// ascending k, cast once to float, followed by the walk's epilogue loops.
void dense_stage(const float* x, const double* bt, const float* bias,
                 bool relu, float* y, int m, int k, int n);

/// Fused convolution stage over a *transposed* patch matrix: colsT is
/// [k, m] (m = oh*ow output pixels), w is the natural [n, k] filter bank
/// widened to double, y is [n, m] channel planes. Per output element the
/// op sequence is the same double-accumulate/cast as dense_stage, then
/// float `+ bias[c]` (always — nn::Conv2D adds its possibly-zero bias
/// unconditionally), then the optional fused BatchNorm
/// ((v − mean)·invstd·γ + β; pass null bn_mean to skip) and ReLU. The
/// SIMD variants vectorize across *pixels*, giving each lane its own
/// ascending-k accumulator, and register-tile four output channels so
/// one widened patch load feeds several accumulators — conv channel
/// counts are far too narrow for the column-tiled dense kernel.
void conv_stage(const float* colsT, const double* w, const float* bias,
                const float* bn_mean, const float* bn_invstd,
                const float* bn_gamma, const float* bn_beta, bool relu,
                float* y, int m, int k, int n);

/// Rows of a float GEMM in the walk's update order. y is [m, n] row-major
/// and b is [k, n] row-major; row i's multipliers are
/// av = a[i * a_row + kk * a_k]. For each row and kk ascending, rows with
/// av == 0 are skipped; otherwise y[i, j] = y[i, j] + av * b[kk, j] for
/// every j, with the product and the sum each rounded to float (never
/// fused). nn::matmul (a_row = k, a_k = 1) and nn::matmul_at (a_row = 1,
/// a_k = the transposed operand's row length) are this kernel, as are
/// nn::Conv2D's backward dW and dcols products.
void row_axpy(const float* a, std::ptrdiff_t a_row, std::ptrdiff_t a_k,
              const float* b, float* y, int m, int k, int n);

/// Int8 GEMM: y[i, j] = sum_k int32(a[i, k]) * int32(w[j, k]) with a
/// [m, k] row-major and w [n, k] row-major (natural weight layout —
/// integer accumulation is order-independent, so no transpose pack is
/// needed). Accumulators are int32; callers must keep
/// k * 127 * 127 < 2^31 (true for every model in this repo by orders of
/// magnitude).
void s8_gemm(const std::int8_t* a, const std::int8_t* w, std::int32_t* y,
             int m, int k, int n);

/// im2col for one [C, H, W] sample: produces a [oh*ow, C*k*k] row-major
/// patch matrix with explicit zero padding, in (c, ky, kx) patch order.
/// Interior patches are copied without bounds checks; only border patches
/// test each tap.
void im2col_f32(const float* src, int c_in, int h, int w, int k, int stride,
                int pad, int oh, int ow, float* cols);

/// Transposed im2col: same patch values, laid out [C*k*k, oh*ow] so
/// conv_stage's pixel lanes read contiguously. Layout never affects the
/// bit-exactness contract — only values do.
void im2col_f32_t(const float* src, int c_in, int h, int w, int k, int stride,
                  int pad, int oh, int ow, float* colsT);

/// Same packing as im2col_f32 over an int8 plane (padding quantizes to 0
/// exactly).
void im2col_s8(const std::int8_t* src, int c_in, int h, int w, int k,
               int stride, int pad, int oh, int ow, std::int8_t* cols);

/// Selected ISA for the dispatched kernels: 0 scalar, 1 AVX2+FMA,
/// 2 AVX-512F.
int isa_level();

/// Per-ISA variants behind the dispatchers above, exposed only so tests
/// can compare each variant the CPU supports against the generic one.
/// Calling a variant the CPU lacks is undefined; check isa_level() first.
namespace detail {

void dense_stage_generic(const float* x, const double* bt, const float* bias,
                         bool relu, float* y, int m, int k, int n);
void conv_stage_generic(const float* colsT, const double* w,
                        const float* bias, const float* bn_mean,
                        const float* bn_invstd, const float* bn_gamma,
                        const float* bn_beta, bool relu, float* y, int m,
                        int k, int n);
void row_axpy_generic(const float* a, std::ptrdiff_t a_row,
                      std::ptrdiff_t a_k, const float* b, float* y, int m,
                      int k, int n);

#if defined(__x86_64__) && defined(__GNUC__)
void dense_stage_avx2(const float* x, const double* bt, const float* bias,
                      bool relu, float* y, int m, int k, int n);
void dense_stage_avx512(const float* x, const double* bt, const float* bias,
                        bool relu, float* y, int m, int k, int n);
void conv_stage_avx2(const float* colsT, const double* w, const float* bias,
                     const float* bn_mean, const float* bn_invstd,
                     const float* bn_gamma, const float* bn_beta, bool relu,
                     float* y, int m, int k, int n);
void conv_stage_avx512(const float* colsT, const double* w,
                       const float* bias, const float* bn_mean,
                       const float* bn_invstd, const float* bn_gamma,
                       const float* bn_beta, bool relu, float* y, int m,
                       int k, int n);
void row_axpy_avx2(const float* a, std::ptrdiff_t a_row, std::ptrdiff_t a_k,
                   const float* b, float* y, int m, int k, int n);
void row_axpy_avx512(const float* a, std::ptrdiff_t a_row,
                     std::ptrdiff_t a_k, const float* b, float* y, int m,
                     int k, int n);
#endif

}  // namespace detail

}  // namespace orev::nn::kernels
