#include "serve/slo.hpp"

#include <algorithm>
#include <cmath>

namespace orev::serve {

SloStats::SloStats(const std::string& engine_name, int replicas,
                   const SloConfig& slo)
    : latency_shards_(static_cast<std::size_t>(std::max(replicas, 1)),
                      obs::QuantileSketch(slo.sketch_alpha)),
      queue_depth_sketch_(slo.sketch_alpha),
      burn_(slo),
      m_submitted_(obs::counter("serve." + engine_name + ".submitted",
                                "requests submitted to the serving engine")),
      m_rejected_(obs::counter("serve." + engine_name + ".rejected",
                               "requests shed at admission")),
      m_completed_(obs::counter("serve." + engine_name + ".completed",
                                "requests completed with a prediction")),
      m_batches_(obs::counter("serve." + engine_name + ".batches",
                              "micro-batches flushed")),
      m_degraded_(obs::counter("serve." + engine_name + ".degraded_syncs",
                               "requests served by the sync fallback")),
      m_quarantined_(obs::counter("serve." + engine_name + ".quarantined",
                                  "requests flagged by the defense plane")),
      m_misses_(obs::counter("serve." + engine_name + ".deadline_misses",
                             "completions past the SLO deadline")),
      m_queue_depth_(obs::gauge("serve." + engine_name + ".queue_depth",
                                "current admission queue depth")),
      m_latency_us_(obs::sketch("serve." + engine_name + ".latency_us",
                                slo.sketch_alpha,
                                "virtual submit-to-completion latency")),
      m_queue_depth_q_(obs::sketch("serve." + engine_name + ".queue_depth_q",
                                   slo.sketch_alpha,
                                   "admission queue depth per sample")),
      m_occupancy_(obs::sketch("serve." + engine_name + ".occupancy",
                               slo.sketch_alpha,
                               "samples per flushed micro-batch")),
      m_burn_miss_short_(
          obs::gauge("serve." + engine_name + ".burn.miss_short",
                     "deadline-miss burn rate over the short window")),
      m_burn_miss_long_(
          obs::gauge("serve." + engine_name + ".burn.miss_long",
                     "deadline-miss burn rate over the long window")),
      m_burn_avail_short_(
          obs::gauge("serve." + engine_name + ".burn.avail_short",
                     "availability burn rate over the short window")),
      m_burn_avail_long_(
          obs::gauge("serve." + engine_name + ".burn.avail_long",
                     "availability burn rate over the long window")),
      m_burn_alerts_(
          obs::gauge("serve." + engine_name + ".burn.alerts",
                     "active burn alerts: bit 0 miss, bit 1 availability")) {}

void SloStats::on_submit(std::uint64_t now_us) {
  ++submitted_;
  last_event_us_ = now_us;
  burn_.on_submit(now_us);
  m_submitted_.inc();
}

void SloStats::on_reject(std::uint64_t now_us) {
  ++rejected_;
  last_event_us_ = std::max(last_event_us_, now_us);
  burn_.on_reject(now_us);
  m_rejected_.inc();
}

void SloStats::on_batch(int occupancy) {
  ++batches_;
  occupancy_sum_ += static_cast<std::uint64_t>(occupancy);
  m_batches_.inc();
  m_occupancy_.observe(static_cast<double>(occupancy));
}

void SloStats::on_complete(const ServeResult& r, std::uint64_t completion_us) {
  // Shed-without-prediction outcomes are accounted by on_reject; every
  // other outcome carries a prediction and counts as a completion.
  if (r.status == ServeStatus::kRejected) return;
  ++completed_;
  last_event_us_ = std::max(last_event_us_, completion_us);
  m_completed_.inc();
  if (r.status == ServeStatus::kDegradedSync) {
    ++degraded_syncs_;
    m_degraded_.inc();
  } else if (r.status == ServeStatus::kQuarantined) {
    // A quarantined request was served (and defended), not lost: it
    // counts as a completion for availability, with its own counter.
    ++quarantined_;
    m_quarantined_.inc();
  } else {
    ++batched_samples_;
  }
  ++admitted_;  // every completion was admitted somewhere (queue or sync)
  if (r.deadline_missed) {
    ++deadline_misses_;
    m_misses_.inc();
  }
  burn_.on_complete(completion_us, r.deadline_missed);
  max_latency_us_ = std::max(max_latency_us_, r.latency_us);
  const std::size_t shard = std::min(
      static_cast<std::size_t>(r.replica < 0 ? 0 : r.replica),
      latency_shards_.size() - 1);
  latency_shards_[shard].observe(static_cast<double>(r.latency_us));
  m_latency_us_.observe(static_cast<double>(r.latency_us));
}

void SloStats::set_queue_depth(std::size_t depth) {
  if (depth > max_queue_depth_) max_queue_depth_ = depth;
  queue_depth_sketch_.observe(static_cast<double>(depth));
  m_queue_depth_q_.observe(static_cast<double>(depth));
  m_queue_depth_.set(static_cast<double>(depth));
}

obs::QuantileSketch SloStats::merged_latency() const {
  obs::QuantileSketch out(burn_.config().sketch_alpha);
  for (const obs::QuantileSketch& s : latency_shards_) out.merge(s);
  return out;
}

std::uint64_t SloStats::latency_percentile(double pct) const {
  const obs::QuantileSketch merged = merged_latency();
  if (merged.count() == 0) return 0;
  return static_cast<std::uint64_t>(
      std::llround(merged.quantile(pct / 100.0)));
}

SloSnapshot SloStats::snapshot() const {
  SloSnapshot s;
  s.submitted = submitted_;
  s.admitted = admitted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.batches = batches_;
  s.batched_samples = batched_samples_;
  s.degraded_syncs = degraded_syncs_;
  s.quarantined = quarantined_;
  s.deadline_misses = deadline_misses_;
  s.max_queue_depth = max_queue_depth_;
  s.mean_occupancy =
      batches_ == 0 ? 0.0
                    : static_cast<double>(occupancy_sum_) /
                          static_cast<double>(batches_);
  const obs::QuantileSketch merged = merged_latency();
  auto q = [&](double quantile) {
    return merged.count() == 0
               ? std::uint64_t{0}
               : static_cast<std::uint64_t>(
                     std::llround(merged.quantile(quantile)));
  };
  s.p50_latency_us = q(0.50);
  s.p95_latency_us = q(0.95);
  s.p99_latency_us = q(0.99);
  s.p999_latency_us = q(0.999);
  s.max_latency_us = max_latency_us_;
  s.burn = burn_.rates(last_event_us_);
  m_burn_miss_short_.set(s.burn.miss_short);
  m_burn_miss_long_.set(s.burn.miss_long);
  m_burn_avail_short_.set(s.burn.avail_short);
  m_burn_avail_long_.set(s.burn.avail_long);
  m_burn_alerts_.set(static_cast<double>((s.burn.miss_alert ? 1 : 0) |
                                         (s.burn.avail_alert ? 2 : 0)));
  return s;
}

void SloStats::restore(const SloSnapshot& s) {
  submitted_ = s.submitted;
  admitted_ = s.admitted;
  rejected_ = s.rejected;
  completed_ = s.completed;
  batches_ = s.batches;
  batched_samples_ = s.batched_samples;
  degraded_syncs_ = s.degraded_syncs;
  quarantined_ = s.quarantined;
  deadline_misses_ = s.deadline_misses;
  max_queue_depth_ = s.max_queue_depth;
  occupancy_sum_ = static_cast<std::uint64_t>(
      s.mean_occupancy * static_cast<double>(s.batches) + 0.5);
  // Sketches and burn windows are observational, not durable: a resumed
  // engine starts them empty.
  for (obs::QuantileSketch& shard : latency_shards_) shard.reset();
  queue_depth_sketch_.reset();
  burn_.reset();
  max_latency_us_ = 0;
  last_event_us_ = 0;
}

}  // namespace orev::serve
