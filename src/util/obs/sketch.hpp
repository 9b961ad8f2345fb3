// Mergeable relative-error quantile sketch (DDSketch-style).
//
// A fixed-bucket histogram answers "roughly where is p99" only as well
// as its bucket edges allow — and SLO misses live exactly in the tail
// where the edges are coarsest. This sketch, the registry's one latency
// distribution (metrics.hpp's SketchMetric), instead maps each
// value to a logarithmic bucket index i = ceil(ln v / ln gamma) with
// gamma = (1 + alpha) / (1 - alpha), which guarantees every reported
// quantile q satisfies |q - q_true| <= alpha * q_true (relative error,
// uniform across the whole range), using a sparse sorted array of
// non-empty (index, count) buckets: a hot path that revisits a handful of
// buckets costs a binary search, never an allocation.
//
// The property the serving stack leans on: merging is *exact integer
// bucket addition*, so it is associative and commutative. Per-replica
// shards merged in any order — 1 thread or 16 — produce the identical
// sketch, hence byte-identical quantiles in every export. That is what
// lets latency percentiles live inside the determinism contract.
//
// Non-finite observations have a defined meaning: NaN has no rank, so it
// is ignored entirely (no count, sum, envelope or bucket change); -inf
// lands in the zero bucket like any other value below the trackable
// floor; +inf is counted in the top bucket index, kMaxIndex, with
// max() = +inf. Any log-index beyond the int32 range (a tiny alpha over a
// huge value) is clamped to that range as well: a defined bucket whose
// estimate stays inside [min, max] but loses the relative-error bound.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "util/persist/bytes.hpp"

namespace orev::obs {

class QuantileSketch {
 public:
  /// `alpha` is the relative accuracy bound (default 1%).
  explicit QuantileSketch(double alpha = 0.01)
      : alpha_(alpha), gamma_((1.0 + alpha) / (1.0 - alpha)),
        inv_log_gamma_(1.0 / std::log((1.0 + alpha) / (1.0 - alpha))) {}

  void observe(double v) {
    if (std::isnan(v)) return;
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    if (v < kMinTrackable) {
      // Zero bucket: zeros and negatives (queue depths, degenerate
      // latencies) — counted but not resolved beyond "<= ~0".
      ++zero_count_;
      return;
    }
    add(index_of(v), 1);
    ++bucket_total_;
  }

  /// Exact merge: integer addition of bucket counts. Associative and
  /// commutative, so shard merge order never changes the result. The two
  /// sketches must share alpha (same bucket geometry).
  void merge(const QuantileSketch& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    zero_count_ += other.zero_count_;
    bucket_total_ += other.bucket_total_;
    if (buckets_.empty()) {
      buckets_ = other.buckets_;
      return;
    }
    for (const auto& [idx, n] : other.buckets_) add(idx, n);
  }

  /// Value at quantile q in [0, 1]: the midpoint-estimate of the bucket
  /// holding the rank-ceil(q * count) observation, clamped to the exact
  /// [min, max] envelope. 0 when empty.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
    if (rank <= zero_count_) return std::clamp(0.0, min_, max_);
    // The answer is the lowest bucket whose ascending cumulative count
    // (zeros included) reaches `rank`. Walk down from the top bucket, where
    // the cumulative count is zeros + bucket total, subtracting each
    // bucket as it is passed: tail quantiles (p99, the adaptive
    // thresholds' q0.995) touch only the few buckets above them.
    std::uint64_t cum = zero_count_ + bucket_total_;
    if (rank > cum) return max_;
    auto it = buckets_.rbegin();
    for (auto next = std::next(it); next != buckets_.rend(); ++it, ++next) {
      cum -= it->second;  // cumulative count of `next`
      if (rank > cum) break;
    }
    const double g = std::pow(gamma_, static_cast<double>(it->first));
    const double v = 2.0 * g / (gamma_ + 1.0);  // bucket midpoint
    return std::clamp(v, min_, max_);
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double alpha() const { return alpha_; }
  std::size_t bucket_count() const {
    return buckets_.size() + (zero_count_ > 0 ? 1 : 0);
  }

  void reset() {
    buckets_.clear();
    count_ = 0;
    zero_count_ = 0;
    bucket_total_ = 0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
  }

  /// Checkpoint codec: alpha (bucket geometry), envelope, and the sparse
  /// bucket array. Lets stateful consumers (the defense plane's adaptive
  /// thresholds) resume byte-exactly — bucket counts are integers, so a
  /// save/load round trip reproduces every future quantile exactly.
  void save(persist::ByteWriter& w) const {
    w.f64(alpha_);
    w.u64(count_);
    w.u64(zero_count_);
    w.f64(sum_);
    w.f64(min_);
    w.f64(max_);
    w.u64(buckets_.size());
    for (const auto& [idx, n] : buckets_) {
      w.i32(idx);
      w.u64(n);
    }
  }

  bool load(persist::ByteReader& r) {
    double alpha = 0.0, sum = 0.0, mn = 0.0, mx = 0.0;
    std::uint64_t count = 0, zeros = 0, nb = 0;
    if (!r.f64(alpha) || !r.u64(count) || !r.u64(zeros) || !r.f64(sum) ||
        !r.f64(mn) || !r.f64(mx) || !r.u64(nb))
      return false;
    if (!(alpha > 0.0 && alpha < 1.0)) return false;
    // Each bucket entry is 12 bytes; reject counts the payload cannot hold.
    if (nb > r.remaining() / 12) return false;
    std::vector<Bucket> buckets;
    buckets.reserve(static_cast<std::size_t>(nb));
    for (std::uint64_t i = 0; i < nb; ++i) {
      std::int32_t idx = 0;
      std::uint64_t n = 0;
      if (!r.i32(idx) || !r.u64(n)) return false;
      buckets.emplace_back(idx, n);
    }
    // Canonical form: ascending indices, a repeated index keeping the
    // count recorded last (what assigning into a sorted map would do).
    std::stable_sort(buckets.begin(), buckets.end(),
                     [](const Bucket& a, const Bucket& b) {
                       return a.first < b.first;
                     });
    std::size_t kept = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (kept > 0 && buckets[kept - 1].first == buckets[i].first)
        buckets[kept - 1].second = buckets[i].second;
      else
        buckets[kept++] = buckets[i];
    }
    buckets.resize(kept);
    std::uint64_t total = 0;
    for (const auto& [idx, n] : buckets) total += n;
    alpha_ = alpha;
    gamma_ = (1.0 + alpha) / (1.0 - alpha);
    inv_log_gamma_ = 1.0 / std::log(gamma_);
    count_ = count;
    zero_count_ = zeros;
    sum_ = sum;
    min_ = mn;
    max_ = mx;
    buckets_ = std::move(buckets);
    bucket_total_ = total;
    return true;
  }

 private:
  static constexpr double kMinTrackable = 1e-9;
  /// Bucket index range: log-indices beyond it (+inf, or a tiny alpha
  /// over a huge value) are clamped instead of overflowing the cast.
  static constexpr std::int32_t kMaxIndex =
      std::numeric_limits<std::int32_t>::max();
  static constexpr std::int32_t kMinIndex =
      std::numeric_limits<std::int32_t>::min();

  using Bucket = std::pair<std::int32_t, std::uint64_t>;

  /// Log-bucket of a value >= kMinTrackable (never NaN).
  std::int32_t index_of(double v) const {
    const double x = std::ceil(std::log(v) * inv_log_gamma_);
    if (x >= static_cast<double>(kMaxIndex)) return kMaxIndex;
    if (x <= static_cast<double>(kMinIndex)) return kMinIndex;
    return static_cast<std::int32_t>(x);
  }

  /// Add `n` to bucket `idx`, inserting it in sorted position if new.
  void add(std::int32_t idx, std::uint64_t n) {
    const auto it = std::lower_bound(
        buckets_.begin(), buckets_.end(), idx,
        [](const Bucket& b, std::int32_t i) { return b.first < i; });
    if (it != buckets_.end() && it->first == idx)
      it->second += n;
    else
      buckets_.insert(it, Bucket{idx, n});
  }

  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  std::vector<Bucket> buckets_;  // ascending index → ordered walks
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;
  std::uint64_t bucket_total_ = 0;  // sum of buckets_ (not persisted)
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace orev::obs
