// Process-wide metrics registry: lock-striped counters, gauges, and
// quantile sketches (sketch.hpp, the one latency-distribution kind: a
// relative-error bound and an exact merge), exportable as Prometheus text
// or JSON (schema `orev-metrics-v2`).
//
// Determinism contract: metrics are strictly *observational*. Recording a
// value touches only the metric's own state — never an Rng stream, never
// any tensor — so instrumented pipelines produce byte-identical CSV/golden
// output whether or not anyone reads the registry (locked down by
// tests/test_determinism.cpp). Exported *values* of timing sketches vary
// run to run, of course; event *counts* are deterministic.
//
// Hot-path usage caches the metric reference once per call site:
//
//   static obs::Counter& c = obs::counter("oran.sdl.reads");
//   c.inc();
//
// The registry is a leaked singleton, so cached references stay valid for
// the life of the process (including static destruction).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/obs/sketch.hpp"
#include "util/obs/timer.hpp"

namespace orev::obs {

/// Stable per-thread dense index (0, 1, 2, ... in first-use order). Used
/// for lock striping and for trace/log thread ids — far more readable than
/// std::thread::id hashes.
std::uint32_t thread_index();

namespace detail {
constexpr int kStripes = 16;  // power of two; indexed by thread_index()

/// One cache line per stripe so concurrent writers never false-share.
struct alignas(64) Stripe {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

/// Monotonic event counter. inc() is a single relaxed atomic add on a
/// per-thread stripe; value() sums the stripes (approximate only while
/// writers are mid-flight, exact at quiescence).
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    stripes_[thread_index() & (detail::kStripes - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const detail::Stripe& s : stripes_)
      total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (detail::Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  detail::Stripe stripes_[detail::kStripes];
};

/// Last-value gauge with atomic add (stored as double bits in a uint64).
class Gauge {
 public:
  void set(double v);
  void add(double delta);
  double value() const;
  void reset() { set(0.0); }

 private:
  std::atomic<std::uint64_t> bits_{0};
};

/// Registry-resident quantile sketch, lock-striped by thread_index() so
/// concurrent observers rarely contend. merged() combines the stripes in
/// ascending order — an exact, order-independent merge (see sketch.hpp),
/// so the merged quantiles are identical at any thread count once the
/// same multiset of values was observed.
class SketchMetric {
 public:
  explicit SketchMetric(double alpha = 0.01);

  void observe(double v);
  QuantileSketch merged() const;
  double alpha() const { return alpha_; }
  std::uint64_t count() const { return merged().count(); }
  void reset();

 private:
  struct Shard {
    explicit Shard(double alpha) : sketch(alpha) {}
    mutable std::mutex mu;
    QuantileSketch sketch;
  };

  double alpha_;
  std::vector<std::unique_ptr<Shard>> shards_;  // detail::kStripes entries
};

/// Process-wide metric registry. Metrics are created on first use and
/// never removed (reset_values() zeroes them in place, so cached
/// references at instrumentation sites stay valid).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// `alpha` is consulted only on first creation.
  SketchMetric& sketch(const std::string& name, double alpha = 0.01,
                       const std::string& help = "");

  /// Prometheus text exposition (names sanitized to [a-z0-9_:], prefixed
  /// `orev_`; every series gets `# TYPE` and, when present, an escaped
  /// `# HELP`). Sketches export as summaries.
  std::string to_prometheus() const;

  /// JSON report: {"schema": "...", "counters": {...}, "gauges": {...},
  /// "sketches": {name: {count, sum, mean, min, max, p50, p95, p99,
  /// p999}}}.
  std::string to_json() const;

  bool save_json(const std::string& path) const;
  bool save_prometheus(const std::string& path) const;

  /// Zero every metric in place (objects and addresses survive).
  void reset_values();

 private:
  Registry() = default;

  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<SketchMetric> sketch;
    std::string help;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;  // sorted => deterministic exports
};

/// Convenience accessors against the global registry.
Counter& counter(const std::string& name, const std::string& help = "");
Gauge& gauge(const std::string& name, const std::string& help = "");
SketchMetric& sketch(const std::string& name, double alpha = 0.01,
                     const std::string& help = "");

/// RAII helper: observes the scope's wall time (in ms) into a sketch.
class ScopedTimerMs {
 public:
  explicit ScopedTimerMs(SketchMetric& s) : sketch_(s) {}
  ~ScopedTimerMs() {
    sketch_.observe(static_cast<double>(timer_.elapsed_ns()) * 1e-6);
  }
  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

 private:
  SketchMetric& sketch_;
  WallTimer timer_;
};

}  // namespace orev::obs
