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
// output and the runtime ISA dispatch cannot change a single bit (NaN
// payloads aside: when one sum meets two NaNs of different sign or
// payload, which survives depends on the add's operand order, which a
// fused multiply-add and a separate add pick differently):
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
// Convolution never builds a patch matrix: conv_forward copies a sample
// once into zero-padded (phase) planes and conv_stage reads each tap
// through an offset table over them (ConvGeometry below). The conv
// register tiles are shaped by latency, not by arithmetic: every lane's
// sum is one dependent chain of fused multiply-adds (or, backward, of
// float adds), and a chain waits out each op's full latency, so a tile
// must keep several chains in flight per tap to fill the FMA ports. The
// AVX-512 tiles therefore span several sixteen-pixel tiles at once (see
// conv_stage and conv_backward_data); each lane keeps its own op order,
// so the tile shape never changes a bit. The 2×2 max pool and its
// backward have SIMD variants too; a max and an argmax are
// compare-selects, so they are bit-exact with no such caveat. The
// gradient plan's kernels follow the same rules: dense_rows is the Dense
// forward over unpacked weights, and conv_backward_data computes a conv's
// dx element by element in the im2col route's op order.
//
// The int8 GEMM feeds the explicitly *non*-bit-exact quantized serving
// tier (serve/quant.hpp): pure integer dot products, so it is exact (and
// order-independent) in its own domain; only the surrounding
// quantize/dequantize steps lose precision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace orev::nn::kernels {

/// Fused dense stage over row-major operands: x is [m, k], bt is [k, n]
/// (the weight matrix transposed and widened to double), y is [m, n].
/// `bias` may be null (skip the add); `relu` fuses max(·, 0).
/// Bit-identical to the per-element dot product double(x)·bt summed in
/// ascending k, cast once to float, followed by the walk's epilogue loops.
void dense_stage(const float* x, const double* bt, const float* bias,
                 bool relu, float* y, int m, int k, int n);

/// The float epilogue of a conv output element, in the layer walk's op
/// order: `+ bias[c]` (always — nn::Conv2D adds its possibly-zero bias
/// unconditionally), then the optional BatchNorm affine
/// ((v − mean)·invstd·γ + β; null bn_mean skips it), then the optional
/// ReLU max(v, 0).
struct ConvEpilogue {
  const float* bias = nullptr;
  const float* bn_mean = nullptr;
  const float* bn_invstd = nullptr;
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  bool relu = false;
};

/// Output pixels per conv register tile. A ConvGeometry's grid is a whole
/// number of tiles, so the SIMD kernels never run a scalar pixel tail.
inline constexpr int kConvTile = 16;

/// Where every tap of a conv stage lives in its packed input.
///
/// pack_conv_input copies a [C, H, W] sample once into zero-padded
/// planes. With stride s each channel is split into phases² phase planes
/// (phases = min(s, k)): phase (ry, rx) holds padded positions
/// (qy·s + ry, qx·s + rx) at (qy, qx), so tap (ky, kx) of output pixel
/// (oy, ox) sits in phase (ky mod s, kx mod s) at (oy + ky/s, ox + kx/s) —
/// contiguous in ox. Stride 1 is the one-phase case: the plain padded
/// plane. Output pixels are indexed along the phase row pitch,
/// p = oy·wq + ox, so tap kk of pixel p is packed[off[kk] + p] for every
/// pixel at once; the wq − ow columns past each output row are computed
/// and dropped.
struct ConvGeometry {
  int c_in = 0, h = 0, w = 0, k = 0, stride = 1, pad = 0;
  int oh = 0, ow = 0;
  int phases = 1;      // phase planes per axis
  int hq = 0, wq = 0;  // extent of one phase plane
  /// Pixels on the wq-pitch grid, (oh − 1)·wq + ow rounded up to whole
  /// kConvTile tiles.
  int grid = 0;
  /// Floats pack_conv_input writes: the phase planes plus zeroed slack
  /// for the last tile's over-read.
  std::size_t packed = 0;
  /// Tap offsets in the filter bank's (c, ky, kx) patch order.
  std::vector<int> off;
};

/// Geometry of a conv over a [c_in, h, w] input; the output must be
/// non-empty.
ConvGeometry conv_geometry(int c_in, int h, int w, int k, int stride,
                           int pad);

/// Copy one [C, H, W] sample into g's phase planes, padding and slack
/// zeroed. Every tap value is the one an im2col patch matrix holds.
void pack_conv_input(const float* src, const ConvGeometry& g, float* packed);

/// Fused convolution stage over a packed input: output pixel p of channel
/// c is y[c·m + p] = epilogue(sum_kk double(packed[off[kk] + p]) ·
/// w[c·k + kk]), summed in ascending kk from +0.0 and cast once to float.
/// w is the natural [n, k] filter bank widened to double. m must be a
/// whole number of kConvTile pixels, with packed readable at every
/// off[kk] + p, p < m. The SIMD variants vectorize across *pixels*,
/// giving each lane its own ascending-k accumulator, and register-tile
/// up to four output channels so one widened tap load feeds several
/// accumulators — conv channel counts are far too narrow for the
/// column-tiled dense kernel. The AVX-512 variant also runs T
/// sixteen-pixel tiles at once — T = 2 for 2–4-channel blocks, T = 4 for
/// a 1-channel block, the grid's leftover tiles one at a time — so each
/// broadcast weight feeds 2T fmadds and a 4-channel tile holds 16
/// independent accumulator chains (one tile held 8, and the 2-channel
/// remainder of a 6-channel conv 4: too few to cover an fmadd's latency).
void conv_stage(const float* packed, const int* off, const double* w,
                const ConvEpilogue& e, float* y, int m, int k, int n);

/// One sample's whole conv: pack x into thread scratch, run conv_stage
/// over g's grid with n output channels, and copy the oh·ow valid pixels
/// of each channel into y ([n, oh, ow]). Bit-identical to an im2col patch
/// matrix times the filter bank with the same per-element op order.
void conv_forward(const float* x, const ConvGeometry& g, const double* w,
                  const ConvEpilogue& e, int n, float* y);

/// dense_stage over the natural, unpacked weight layout: w is the float
/// [n, k] matrix nn::Dense holds, read in place. Bit-identical to
/// nn::Dense's forward (double(x)·double(w) summed in ascending k, cast
/// once, then bias and ReLU), so a caller whose weights change between
/// calls needs no per-call transpose. The SIMD variants gather one weight
/// column per k step for eight outputs at a time.
void dense_rows(const float* x, const float* w, const float* bias, bool relu,
                float* y, int m, int k, int n);

/// One sample's conv input gradient: dx ([c_in, h, w] of g) from dy
/// ([n, oh, ow]) and the natural float [n, c_in·k·k] filter bank —
/// nn::Conv2D's dx and nn::GradPlan's. The result is the im2col route's
/// bit for bit: zeroed dcols = dy^T · w through row_axpy (ascending
/// output channel, zero dy skipped, product and sum each rounded), then
/// col2im_accum into a zeroed dx (ascending output pixel). For stride 1
/// a fused kernel computes each dx element directly in that order — taps
/// in descending (ky, kx) are its ascending pixels — over dy planes
/// zero-padded by k − 1, vectorized across output positions: a padded
/// position's dcols sum stays +0.0, and adding +0.0 to a sum that started
/// at +0.0 changes no bit. Its AVX-512 variant runs T = 2 sixteen-position
/// tiles per block of four input channels and T = 4 for a smaller block,
/// so each tap keeps 4–12 dcols chains in flight where one tile kept 1–4.
/// Other strides run the im2col route itself. Uses thread_scratch.
void conv_backward_data(const float* dy, const ConvGeometry& g,
                        const float* w, int n, float* dx);

/// 2×2, stride-2 max pool over [c, h, w] into [c, h/2, w/2]: each output
/// visits its four taps in (ky, kx) order from −inf keeping v when
/// v > best, then optionally max(best, 0) — the scalar pool's NaN and −0
/// results exactly.
void max_pool2x2(const float* in, int c, int h, int w, bool relu,
                 float* out);

/// The 2×2, stride-2 max pool's input gradient: dx ([c, h, w]) is
/// overwritten with each window's gradient g ([c, h/2, w/2]) at the tap
/// pool_grad_tap picks (its first strict max from −inf, or its first tap
/// when it has none) as 0.0f + g, and +0.0 everywhere else — the scalar
/// scatter into a zeroed dx, bit for bit. The AVX-512 variant picks the
/// tap with compare-selects sixteen windows at a time; the others run
/// that scalar scatter.
void max_pool2x2_backward(const float* in, const float* g, int c, int h,
                          int w, float* dx);

/// This thread's float scratch, grown to at least n floats. Shared by
/// conv_forward, conv_backward_data and nn::Conv2D's backward (which
/// calls conv_backward_data only once done with its own use): each use
/// fills what it reads before reading it and none re-enters another, so
/// memory stays at one sample's widest need per thread and steady-state
/// calls allocate nothing.
float* thread_scratch(std::size_t n);

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

/// The inverse of im2col_f32 for gradients: adds each entry of one
/// sample's [oh*ow, C*k*k] patch-matrix gradient into the [C, H, W] cell
/// it was read from (padding taps are dropped). Every dst element
/// receives its contributions in ascending output-pixel order — the
/// order nn::Conv2D's backward and nn::GradPlan both rely on.
void col2im_accum(const float* cols, int c_in, int h, int w, int k,
                  int stride, int pad, int oh, int ow, float* dst);

/// The max pool's window rule: the k×k taps at (iy0 + ky, ix0 + kx) are
/// visited in (ky, kx) order from −inf and the first strictly greater
/// value wins. Returns that tap's offset in `plane` (row pitch w), or −1
/// when no tap exceeds −inf (an all-NaN or all-−inf window): the pool
/// then outputs −inf, and routes the window's gradient to its own first
/// tap (see pool_grad_tap).
inline std::ptrdiff_t pool_window_argmax(const float* plane, int w, int iy0,
                                         int ix0, int k) {
  float best = -std::numeric_limits<float>::infinity();
  std::ptrdiff_t best_idx = -1;
  for (int ky = 0; ky < k; ++ky) {
    const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(iy0 + ky) * w;
    for (int kx = 0; kx < k; ++kx) {
      // Selects, not a branch: which tap wins is data-dependent.
      const float v = plane[row + ix0 + kx];
      const bool gt = v > best;
      best = gt ? v : best;
      best_idx = gt ? row + ix0 + kx : best_idx;
    }
  }
  return best_idx;
}

/// The tap a window's gradient goes to: its argmax `a`, or its first tap
/// (iy0, ix0) when it has no strict max — always inside its own plane.
inline std::ptrdiff_t pool_grad_tap(std::ptrdiff_t a, int w, int iy0,
                                    int ix0) {
  return a >= 0 ? a : static_cast<std::ptrdiff_t>(iy0) * w + ix0;
}

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
void conv_stage_generic(const float* packed, const int* off, const double* w,
                        const ConvEpilogue& e, float* y, int m, int k, int n);
void max_pool2x2_generic(const float* in, int c, int h, int w, bool relu,
                         float* out);
void max_pool2x2_backward_generic(const float* in, const float* g, int c,
                                  int h, int w, float* dx);
void row_axpy_generic(const float* a, std::ptrdiff_t a_row,
                      std::ptrdiff_t a_k, const float* b, float* y, int m,
                      int k, int n);
void dense_rows_generic(const float* x, const float* w, const float* bias,
                        bool relu, float* y, int m, int k, int n);
void conv_backward_data_generic(const float* dy, const ConvGeometry& g,
                                const float* w, int n, float* dx);

#if defined(__x86_64__) && defined(__GNUC__)
void dense_stage_avx2(const float* x, const double* bt, const float* bias,
                      bool relu, float* y, int m, int k, int n);
void dense_stage_avx512(const float* x, const double* bt, const float* bias,
                        bool relu, float* y, int m, int k, int n);
void conv_stage_avx2(const float* packed, const int* off, const double* w,
                     const ConvEpilogue& e, float* y, int m, int k, int n);
void conv_stage_avx512(const float* packed, const int* off, const double* w,
                       const ConvEpilogue& e, float* y, int m, int k, int n);
void max_pool2x2_avx2(const float* in, int c, int h, int w, bool relu,
                      float* out);
void max_pool2x2_avx512(const float* in, int c, int h, int w, bool relu,
                        float* out);
void max_pool2x2_backward_avx512(const float* in, const float* g, int c,
                                 int h, int w, float* dx);
void row_axpy_avx2(const float* a, std::ptrdiff_t a_row, std::ptrdiff_t a_k,
                   const float* b, float* y, int m, int k, int n);
void row_axpy_avx512(const float* a, std::ptrdiff_t a_row,
                     std::ptrdiff_t a_k, const float* b, float* y, int m,
                     int k, int n);
void dense_rows_avx2(const float* x, const float* w, const float* bias,
                     bool relu, float* y, int m, int k, int n);
void dense_rows_avx512(const float* x, const float* w, const float* bias,
                       bool relu, float* y, int m, int k, int n);
void conv_backward_data_avx2(const float* dy, const ConvGeometry& g,
                             const float* w, int n, float* dx);
void conv_backward_data_avx512(const float* dy, const ConvGeometry& g,
                               const float* w, int n, float* dx);
#endif

}  // namespace detail

}  // namespace orev::nn::kernels
