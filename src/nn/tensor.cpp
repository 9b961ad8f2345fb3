#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "nn/kernels.hpp"
#include "util/thread_pool.hpp"

namespace orev::nn {

namespace {

// The products below run on the shared kernels (nn/kernels.hpp). Their
// double accumulation may use FMA — double(a)·double(b) of two floats is
// exact, so the fused multiply-add rounds exactly where mul + add does —
// while the float row updates of matmul/matmul_at never fuse (src/ is
// compiled with -ffp-contract=off).
//
// Each output row is produced by exactly one task with a fixed inner-loop
// order, so the kernels below are bit-identical at every thread count; the
// threshold only gates whether the pool is woken for tiny products. Serving
// micro-batches (up to ~32 rows of MLP layers) stay below it, so the
// latency-critical inference path never pays pool dispatch.
constexpr std::int64_t kParallelFlops = 1 << 17;

std::int64_t row_grain(int m) {
  return std::max<std::int64_t>(1, m / 32);
}

}  // namespace

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (const int d : shape) {
    OREV_CHECK(d >= 0, "negative shape extent");
    n *= static_cast<std::size_t>(d);
  }
  return shape.empty() ? 0 : n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)), data_(shape_numel(shape_), value) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  OREV_CHECK(data_.size() == shape_numel(shape_),
             "data size does not match shape " + shape_str(shape_));
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor({static_cast<int>(values.size())},
                std::vector<float>(values));
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = rng.normal(0.0f, stddev);
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = rng.uniform(lo, hi);
  return t;
}

int Tensor::dim(std::size_t axis) const {
  OREV_CHECK(axis < shape_.size(), "axis out of range");
  return shape_[axis];
}

float& Tensor::at2(int i, int j) {
  OREV_CHECK(rank() == 2, "at2 on non-2D tensor " + shape_str(shape_));
  OREV_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
             "at2 index out of range");
  return data_[static_cast<std::size_t>(i) * shape_[1] + j];
}

float Tensor::at2(int i, int j) const {
  return const_cast<Tensor*>(this)->at2(i, j);
}

float& Tensor::at4(int n, int c, int h, int w) {
  OREV_CHECK(rank() == 4, "at4 on non-4D tensor " + shape_str(shape_));
  OREV_CHECK(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1] && h >= 0 &&
                 h < shape_[2] && w >= 0 && w < shape_[3],
             "at4 index out of range");
  const std::size_t idx =
      ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) *
          shape_[3] +
      w;
  return data_[idx];
}

float Tensor::at4(int n, int c, int h, int w) const {
  return const_cast<Tensor*>(this)->at4(n, c, h, w);
}

Tensor Tensor::reshaped(Shape shape) const {
  Tensor out = *this;
  out.reshape(std::move(shape));
  return out;
}

void Tensor::reshape(Shape shape) {
  OREV_CHECK(shape_numel(shape) == data_.size(),
             "reshape from " + shape_str(shape_) + " to " + shape_str(shape) +
                 " changes numel");
  shape_ = std::move(shape);
}

Tensor Tensor::slice_batch(int i) const {
  OREV_CHECK(rank() >= 1, "slice_batch on scalar tensor");
  OREV_CHECK(i >= 0 && i < shape_[0], "batch index out of range");
  Shape rest(shape_.begin() + 1, shape_.end());
  if (rest.empty()) rest = {1};
  const std::size_t stride = shape_numel(rest);
  Tensor out(rest);
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(stride * i), stride,
              out.data_.begin());
  return out;
}

void Tensor::set_batch(int i, const Tensor& sample) {
  OREV_CHECK(rank() >= 1 && i >= 0 && i < shape_[0],
             "batch index out of range");
  Shape rest(shape_.begin() + 1, shape_.end());
  if (rest.empty()) rest = {1};
  const std::size_t stride = shape_numel(rest);
  OREV_CHECK(sample.numel() == stride, "sample numel mismatch in set_batch");
  std::copy_n(sample.data_.begin(), stride,
              data_.begin() + static_cast<std::ptrdiff_t>(stride * i));
}

void Tensor::check_same_shape(const Tensor& rhs, const char* op) const {
  OREV_CHECK(shape_ == rhs.shape_,
             std::string(op) + " shape mismatch: " + shape_str(shape_) +
                 " vs " + shape_str(rhs.shape_));
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  check_same_shape(rhs, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  check_same_shape(rhs, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

Tensor& Tensor::add_scaled(const Tensor& rhs, float s) {
  check_same_shape(rhs, "add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * rhs.data_[i];
  return *this;
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

float Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0f);
}

float Tensor::max() const {
  OREV_CHECK(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::min() const {
  OREV_CHECK(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::norm2() const {
  double acc = 0.0;
  for (const float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float Tensor::norm_inf() const {
  float m = 0.0f;
  for (const float v : data_) m = std::max(m, std::abs(v));
  return m;
}

void Tensor::clamp(float lo, float hi) {
  OREV_CHECK(lo <= hi, "clamp bounds inverted");
  for (float& v : data_) v = std::clamp(v, lo, hi);
}

std::size_t Tensor::argmax() const {
  OREV_CHECK(!data_.empty(), "argmax of empty tensor");
  return static_cast<std::size_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  OREV_CHECK(a.rank() == 2 && b.rank() == 2, "matmul needs 2-D operands");
  const int m = a.dim(0), k = a.dim(1), k2 = b.dim(0), n = b.dim(1);
  OREV_CHECK(k == k2, "matmul inner dimension mismatch");
  Tensor out({m, n});
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  // ikj order: out row i accumulates a[i, kk] * b[kk, :] for ascending kk,
  // skipping zero multipliers (kernels::row_axpy).
  auto rows = [&](std::int64_t lo, std::int64_t hi) {
    kernels::row_axpy(pa + static_cast<std::size_t>(lo) * k, k, 1, pb,
                      po + static_cast<std::size_t>(lo) * n,
                      static_cast<int>(hi - lo), k, n);
  };
  if (static_cast<std::int64_t>(m) * k * n < kParallelFlops) {
    rows(0, m);
  } else {
    util::parallel_for(0, m, row_grain(m),
                       [&](std::int64_t i) { rows(i, i + 1); });
  }
  return out;
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  OREV_CHECK(a.rank() == 2 && b.rank() == 2, "matmul_bt needs 2-D operands");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  OREV_CHECK(b.dim(1) == k, "matmul_bt inner dimension mismatch");
  Tensor out({m, n});
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  // Every output element accumulates double(a[i,kk]) * double(b[j,kk])
  // over kk in ascending order and is cast to float once, in both
  // branches below, so the result is bit-identical regardless of batch
  // size or thread count — the serving engine's byte-identity guarantee
  // (batched == single-sample) relies on this.
  //
  // For batched rows we pack b^T, widened to double, once so the shared
  // dense kernel (kernels::dense_stage, the compiled MLP plan's) runs
  // unit-stride over output columns: independent per-column accumulator
  // chains instead of one latency-bound dot-product chain per element.
  // The pack cost amortises over the batch rows; below kPackRows
  // kernels::dense_rows reads b in place, gathering one column of it per
  // kk for eight outputs at a time.
  constexpr int kPackRows = 8;
  if (m >= kPackRows) {
    std::vector<double> bt(static_cast<std::size_t>(n) * k);
    for (int kk = 0; kk < k; ++kk)
      for (int j = 0; j < n; ++j)
        bt[static_cast<std::size_t>(kk) * n + j] =
            pb[static_cast<std::size_t>(j) * k + kk];
    auto rows = [&](std::int64_t lo, std::int64_t hi) {
      kernels::dense_stage(pa + static_cast<std::size_t>(lo) * k, bt.data(),
                           nullptr, false,
                           po + static_cast<std::size_t>(lo) * n,
                           static_cast<int>(hi - lo), k, n);
    };
    if (static_cast<std::int64_t>(m) * k * n < kParallelFlops) {
      rows(0, m);
    } else {
      const std::int64_t grain = row_grain(m);
      const std::int64_t nchunks = (m + grain - 1) / grain;
      util::parallel_for(0, nchunks, 1, [&](std::int64_t c) {
        const std::int64_t lo = c * grain;
        rows(lo, std::min<std::int64_t>(m, lo + grain));
      });
    }
    return out;
  }
  kernels::dense_rows(pa, pb, nullptr, false, po, m, k, n);
  return out;
}

Tensor matmul_at(const Tensor& a, const Tensor& b) {
  OREV_CHECK(a.rank() == 2 && b.rank() == 2, "matmul_at needs 2-D operands");
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  OREV_CHECK(b.dim(0) == k, "matmul_at inner dimension mismatch");
  Tensor out({m, n});
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  // i-outer so each out row is owned by one task; the accumulation over kk
  // stays in ascending order per element, matching the serial kernel bit
  // for bit. Row i's multipliers are column i of a (stride m).
  auto rows = [&](std::int64_t lo, std::int64_t hi) {
    kernels::row_axpy(pa + lo, 1, m, pb, po + static_cast<std::size_t>(lo) * n,
                      static_cast<int>(hi - lo), k, n);
  };
  if (static_cast<std::int64_t>(m) * k * n < kParallelFlops) {
    rows(0, m);
  } else {
    util::parallel_for(0, m, row_grain(m),
                       [&](std::int64_t i) { rows(i, i + 1); });
  }
  return out;
}

float l2_distance(const Tensor& a, const Tensor& b) {
  OREV_CHECK(a.shape() == b.shape(), "l2_distance shape mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double d = double(a[i]) - double(b[i]);
    acc += d * d;
  }
  return static_cast<float>(std::sqrt(acc));
}

}  // namespace orev::nn
