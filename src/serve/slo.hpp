// Per-engine SLO accounting: deterministic event counters, mergeable
// quantile sketches for latency/queue-depth (relative-error bounded, see
// util/obs/sketch.hpp), and multi-window burn rates over the engine's
// virtual clock — all mirrored into the process-wide obs registry under
// `serve.<engine>.*` so every bench's --metrics-out JSON picks the
// serving layer up automatically.
//
// Determinism contract: everything in an SloSnapshot is derived from the
// engine's virtual clock and event stream, never from wall time, so two
// runs of the same workload produce byte-identical snapshots at any
// thread count. Latency observations are sharded per replica and merged
// in ascending replica order at snapshot — the sketch merge is exact
// integer bucket addition, so the shard partitioning (a pure function of
// the request stream) never changes the merged quantiles. (Wall-clock
// throughput is the bench's job, not this class's.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/burnrate.hpp"
#include "serve/request.hpp"
#include "util/obs/metrics.hpp"

namespace orev::serve {

/// Deterministic summary of an engine's serving history.
struct SloSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  // shed at admission (queue full / injected)
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_samples = 0;  // completions via the batched path
  std::uint64_t degraded_syncs = 0;   // completions via the sync fallback
  std::uint64_t quarantined = 0;      // flagged by the defense plane
  std::uint64_t deadline_misses = 0;
  std::uint64_t max_queue_depth = 0;
  /// Mean samples per flushed batch (0 when no batch ever flushed).
  double mean_occupancy = 0.0;
  /// Sketch-derived virtual-latency quantiles over every completion, in
  /// µs (relative error <= the configured sketch alpha; max is exact).
  std::uint64_t p50_latency_us = 0;
  std::uint64_t p95_latency_us = 0;
  std::uint64_t p99_latency_us = 0;
  std::uint64_t p999_latency_us = 0;
  std::uint64_t max_latency_us = 0;
  /// Burn rates as of the engine's latest event.
  BurnRates burn;
};

class SloStats {
 public:
  /// `engine_name` prefixes the obs registry metrics
  /// (serve.<engine_name>.submitted, .rejected, .deadline_misses, ...);
  /// `replicas` sizes the latency sketch shards; `slo` sets objectives,
  /// windows, and sketch accuracy.
  SloStats(const std::string& engine_name, int replicas, const SloConfig& slo);

  SloStats(const SloStats&) = delete;
  SloStats& operator=(const SloStats&) = delete;

  void on_submit(std::uint64_t now_us);
  void on_reject(std::uint64_t now_us);
  void on_batch(int occupancy);
  /// `r.replica` routes the latency observation to that replica's sketch
  /// shard; `completion_us` places the event on the burn-rate windows.
  void on_complete(const ServeResult& r, std::uint64_t completion_us);
  void set_queue_depth(std::size_t depth);

  /// Snapshot as of the latest recorded event; also publishes the burn
  /// gauges (serve.<engine>.burn.*) into the registry.
  SloSnapshot snapshot() const;

  /// Sketch-derived latency percentile (pct in [0, 100]), rounded to µs.
  std::uint64_t latency_percentile(double pct) const;

  BurnRates burn_rates() const { return burn_.rates(last_event_us_); }

  /// Restore the counter state captured by an earlier snapshot (used by
  /// ServeEngine::load_status). Sketches and burn windows are not part of
  /// the durable state and reset to empty.
  void restore(const SloSnapshot& s);

 private:
  obs::QuantileSketch merged_latency() const;

  std::uint64_t submitted_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_samples_ = 0;
  std::uint64_t degraded_syncs_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t deadline_misses_ = 0;
  std::uint64_t occupancy_sum_ = 0;
  std::uint64_t max_queue_depth_ = 0;
  std::uint64_t max_latency_us_ = 0;  // exact (sketches bound rel. error)
  std::uint64_t last_event_us_ = 0;
  /// Per-replica latency sketches, merged in ascending order at snapshot.
  std::vector<obs::QuantileSketch> latency_shards_;
  obs::QuantileSketch queue_depth_sketch_;
  BurnRatePlane burn_;

  obs::Counter& m_submitted_;
  obs::Counter& m_rejected_;
  obs::Counter& m_completed_;
  obs::Counter& m_batches_;
  obs::Counter& m_degraded_;
  obs::Counter& m_quarantined_;
  obs::Counter& m_misses_;
  obs::Gauge& m_queue_depth_;
  obs::SketchMetric& m_latency_us_;
  obs::SketchMetric& m_queue_depth_q_;
  obs::SketchMetric& m_occupancy_;
  obs::Gauge& m_burn_miss_short_;
  obs::Gauge& m_burn_miss_long_;
  obs::Gauge& m_burn_avail_short_;
  obs::Gauge& m_burn_avail_long_;
  obs::Gauge& m_burn_alerts_;
};

}  // namespace orev::serve
