#include "defense/adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace orev::defense {

namespace {

obs::QuantileSketch make_sketch(const AdaptiveConfig& cfg) {
  return obs::QuantileSketch(cfg.sketch_alpha);
}

}  // namespace

AdaptiveThresholds::AdaptiveThresholds(const AdaptiveConfig& cfg, double dist0,
                                       double step0, double ens0)
    : cfg_(cfg) {
  dist_.base = dist_.value = dist0;
  step_.base = step_.value = step0;
  ens_.base = ens_.value = ens0;
  dist_.sketch = make_sketch(cfg_);
  step_.sketch = make_sketch(cfg_);
  ens_.sketch = make_sketch(cfg_);
}

void AdaptiveThresholds::observe_accepted(const std::string& flow_key,
                                          double dist_score, double step_score,
                                          double ens_score) {
  if (!cfg_.enable) return;
  observe_accepted(flow_id(flow_key), dist_score, step_score, ens_score);
}

void AdaptiveThresholds::observe_accepted(std::uint32_t flow,
                                          double dist_score, double step_score,
                                          double ens_score) {
  if (!cfg_.enable) return;
  dist_.sketch.observe(dist_score);
  step_.sketch.observe(step_score);
  ens_.sketch.observe(ens_score);
  OREV_CHECK(flow < index_.size(), "adaptive flow id was never issued");
  if (flow >= flows_.size()) flows_.resize(index_.size());
  Track& t = flows_[flow];
  if (!t.live) {
    t.base = step_.base;
    t.value = step_.value;
    t.sketch = make_sketch(cfg_);
    t.live = true;
    ++live_;
  }
  t.sketch.observe(step_score);
}

void AdaptiveThresholds::on_row() {
  if (!cfg_.enable) return;
  ++rows_;
  if (cfg_.update_every == 0 || rows_ % cfg_.update_every != 0) return;
  bool moved = false;
  moved |= adapt(dist_);
  moved |= adapt(step_);
  moved |= adapt(ens_);
  // Tracks adapt independently, so id order gives the key-order result.
  for (Track& track : flows_)
    if (track.live) moved |= adapt(track);
  if (moved) ++updates_;
}

double AdaptiveThresholds::step_threshold(const std::string& flow_key) const {
  if (!cfg_.enable) return step_.value;
  return step_threshold(index_.find(flow_key));
}

double AdaptiveThresholds::step_threshold(std::uint32_t flow) const {
  if (!cfg_.enable) return step_.value;
  if (flow < flows_.size() && flows_[flow].live &&
      flows_[flow].sketch.count() >= cfg_.warmup)
    return flows_[flow].value;
  return step_.value;
}

bool AdaptiveThresholds::adapt(Track& t) {
  const std::uint64_t n = t.sketch.count();
  if (n < cfg_.warmup) return false;
  if (t.target_count != n) {
    t.target = cfg_.margin * t.sketch.quantile(cfg_.target_quantile);
    t.target_count = n;
  }
  double candidate = t.target;
  // Hard envelope around the configured static threshold: the one bound a
  // patient attacker can never walk past.
  const double lo = cfg_.floor_frac * t.base;
  const double hi = cfg_.ceiling_frac * t.base;
  const double clamped = std::clamp(candidate, lo, hi);
  if (clamped != candidate) ++clamped_;
  candidate = clamped;
  const double delta = candidate - t.value;
  if (std::abs(delta) <= cfg_.hysteresis_frac * t.value) {
    ++held_;
    return false;
  }
  const double max_step = cfg_.max_step_frac * t.value;
  t.value += std::clamp(delta, -max_step, max_step);
  return true;
}

void AdaptiveThresholds::Track::save(persist::ByteWriter& w) const {
  w.f64(base);
  w.f64(value);
  sketch.save(w);
}

bool AdaptiveThresholds::Track::load(persist::ByteReader& r) {
  double b = 0.0, v = 0.0;
  obs::QuantileSketch s;
  if (!r.f64(b) || !r.f64(v) || !s.load(r)) return false;
  base = b;
  value = v;
  sketch = std::move(s);
  target_count = kNoTarget;
  return true;
}

void AdaptiveThresholds::save(persist::ByteWriter& w) const {
  w.u8(cfg_.enable ? 1 : 0);
  w.f64(cfg_.target_quantile);
  w.f64(cfg_.margin);
  w.u64(cfg_.warmup);
  w.u64(cfg_.update_every);
  w.f64(cfg_.floor_frac);
  w.f64(cfg_.ceiling_frac);
  w.f64(cfg_.max_step_frac);
  w.f64(cfg_.hysteresis_frac);
  w.f64(cfg_.sketch_alpha);
  w.u64(rows_);
  w.u64(updates_);
  w.u64(held_);
  w.u64(clamped_);
  dist_.save(w);
  step_.save(w);
  ens_.save(w);
  w.u64(live_);
  for (const std::uint32_t flow : index_.sorted()) {
    if (flow >= flows_.size() || !flows_[flow].live) continue;
    w.str(index_.key(flow));
    flows_[flow].save(w);
  }
}

bool AdaptiveThresholds::load(persist::ByteReader& r) {
  AdaptiveConfig cfg;
  std::uint8_t enable = 0;
  if (!r.u8(enable) || !r.f64(cfg.target_quantile) || !r.f64(cfg.margin) ||
      !r.u64(cfg.warmup) || !r.u64(cfg.update_every) ||
      !r.f64(cfg.floor_frac) || !r.f64(cfg.ceiling_frac) ||
      !r.f64(cfg.max_step_frac) || !r.f64(cfg.hysteresis_frac) ||
      !r.f64(cfg.sketch_alpha))
    return false;
  cfg.enable = enable != 0;
  std::uint64_t rows = 0, updates = 0, held = 0, clamped = 0;
  if (!r.u64(rows) || !r.u64(updates) || !r.u64(held) || !r.u64(clamped))
    return false;
  Track dist, step, ens;
  if (!dist.load(r) || !step.load(r) || !ens.load(r)) return false;
  std::uint64_t nflows = 0;
  if (!r.u64(nflows)) return false;
  // Each flow entry is at least a 4-byte key length + two f64 + sketch
  // header; reject counts the payload cannot hold.
  if (nflows > r.remaining() / 20) return false;
  FlowIndex index;
  std::vector<Track> flows;
  std::size_t live = 0;
  for (std::uint64_t i = 0; i < nflows; ++i) {
    std::string key;
    Track t;
    if (!r.str(key) || !t.load(r)) return false;
    // A repeated key keeps its first record (map emplace semantics).
    const std::uint32_t flow = index.intern(key);
    if (flow < flows.size()) continue;
    t.live = true;
    flows.push_back(std::move(t));
    ++live;
  }
  cfg_ = cfg;
  rows_ = rows;
  updates_ = updates;
  held_ = held;
  clamped_ = clamped;
  dist_ = std::move(dist);
  step_ = std::move(step);
  ens_ = std::move(ens);
  index_ = std::move(index);
  flows_ = std::move(flows);
  live_ = live;
  return true;
}

}  // namespace orev::defense
