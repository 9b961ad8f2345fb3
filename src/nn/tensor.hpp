// Dense float32 tensor with row-major layout and shape algebra.
//
// This is the numeric foundation of the from-scratch neural-network library
// (src/nn) that replaces the paper's TensorFlow/PyTorch dependency. Tensors
// are value types: copying copies data, moving is cheap.
//
// Convention: batched image tensors are [N, C, H, W]; batched feature
// vectors are [N, F].
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace orev::nn {

/// Shape of a tensor: a list of non-negative extents.
using Shape = std::vector<int>;

/// Number of elements implied by a shape (product of extents).
std::size_t shape_numel(const Shape& shape);

/// Render a shape as "[2, 3, 4]" for diagnostics.
std::string shape_str(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape filled with `value`.
  Tensor(Shape shape, float value);

  /// Tensor wrapping explicit data (size must match the shape).
  Tensor(Shape shape, std::vector<float> data);

  /// Convenience: 1-D tensor from an initialiser list.
  static Tensor from(std::initializer_list<float> values);

  /// Factories.
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  static Tensor uniform(Shape shape, Rng& rng, float lo, float hi);

  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }
  int dim(std::size_t axis) const;
  std::size_t rank() const { return shape_.size(); }
  bool empty() const { return data_.empty(); }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked element access for 2-D and 4-D tensors.
  float& at2(int i, int j);
  float at2(int i, int j) const;
  float& at4(int n, int c, int h, int w);
  float at4(int n, int c, int h, int w) const;

  /// Return a reshaped view copy. numel must be preserved.
  Tensor reshaped(Shape shape) const;

  /// Reinterpret in place; numel must be preserved.
  void reshape(Shape shape);

  /// Extract row `i` of a 2-D tensor (or sample `i` of any batched tensor,
  /// interpreting axis 0 as the batch) as a tensor of the remaining shape.
  Tensor slice_batch(int i) const;

  /// Write tensor `sample` (shape = this->shape() minus axis 0) into batch
  /// slot `i`.
  void set_batch(int i, const Tensor& sample);

  /// Elementwise in-place ops.
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(float s);
  Tensor& add_scaled(const Tensor& rhs, float s);  // this += s * rhs
  void fill(float v);

  /// Elementwise binary ops (shapes must match exactly).
  friend Tensor operator+(Tensor lhs, const Tensor& rhs) { return lhs += rhs; }
  friend Tensor operator-(Tensor lhs, const Tensor& rhs) { return lhs -= rhs; }
  friend Tensor operator*(Tensor lhs, float s) { return lhs *= s; }
  friend Tensor operator*(float s, Tensor rhs) { return rhs *= s; }

  /// Reductions.
  float sum() const;
  float max() const;
  float min() const;
  /// L2 norm over all elements.
  float norm2() const;
  /// L-infinity norm over all elements.
  float norm_inf() const;

  /// Elementwise clamp into [lo, hi].
  void clamp(float lo, float hi);

  /// Index of the maximum element (ties: first).
  std::size_t argmax() const;

 private:
  void check_same_shape(const Tensor& rhs, const char* op) const;

  Shape shape_;
  std::vector<float> data_;
};

/// Matrix multiply: a is [m, k], b is [k, n] → [m, n].
Tensor matmul(const Tensor& a, const Tensor& b);

/// Matrix multiply with b transposed: a is [m, k], b is [n, k] → [m, n].
Tensor matmul_bt(const Tensor& a, const Tensor& b);

/// Matrix multiply with a transposed: a is [k, m], b is [k, n] → [m, n].
Tensor matmul_at(const Tensor& a, const Tensor& b);

/// L2 distance between two same-shape tensors: ||a - b||_2.
float l2_distance(const Tensor& a, const Tensor& b);

/// The predicted class of one row of n logits: strict greater-than, so
/// the first maximum wins (and a NaN never does). Every prediction path —
/// the layer walk, both compiled plans, accuracy — compares this way.
inline int argmax_row(const float* row, int n) {
  int best = 0;
  for (int j = 1; j < n; ++j)
    if (row[j] > row[best]) best = j;
  return best;
}

}  // namespace orev::nn
