// Online adaptive detector thresholds for the defense plane (DESIGN.md §15).
//
// PR 8's detectors compare their scores against *fixed* configured
// thresholds — tuned once, offline, for one traffic mix. Real fleets
// drift: per-flow KPM walks have different natural step sizes, calibration
// coverage varies, and a threshold that separates attacks cleanly on one
// sector over-fires on another. This module learns the thresholds online
// from the streaming score distribution instead:
//
//   * one global quantile sketch per detector (distribution, ensemble)
//     plus one *per-flow* sketch for the norm-screen step score — the
//     flow-local detector gets a flow-local threshold;
//   * every update sets the threshold to
//         margin * quantile(target_quantile)
//     of the scores accepted so far, so the flag line tracks the clean
//     tail instead of a hand-picked constant;
//   * updates happen on the driving thread, in row order, at a fixed
//     row cadence — the adapted thresholds are a pure function of the
//     accepted-score stream, byte-identical at any thread count.
//
// Adversarial containment — a patient attacker must not be able to walk
// the threshold up to its perturbation budget:
//   * only *accepted* (unflagged) rows feed the sketches; quarantined
//     scores never move the estimate;
//   * the adapted value is clamped to [floor_frac, ceiling_frac] times the
//     configured static threshold, a hard envelope no stream escapes;
//   * each update moves at most max_step_frac of the current value, and
//     moves smaller than hysteresis_frac are ignored entirely (dead band),
//     so the threshold ratchets slowly and a below-threshold drip attack
//     gains at most the envelope — never an unbounded slide.
//
// Deliberately depends only on util (sketch + persist) so orev_serve can
// embed it without new library edges.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "defense/flow_index.hpp"
#include "util/obs/sketch.hpp"
#include "util/persist/bytes.hpp"

namespace orev::defense {

struct AdaptiveConfig {
  /// Master switch; disabled leaves the configured static thresholds in
  /// force (and the plane's behaviour byte-identical to PR 8).
  bool enable = false;
  /// Clean-score quantile each threshold tracks.
  double target_quantile = 0.995;
  /// Safety margin applied on top of the tracked quantile.
  double margin = 1.25;
  /// Accepted observations a sketch needs before its threshold may move.
  std::uint64_t warmup = 64;
  /// Rows between threshold recomputations (driving-thread cadence).
  std::uint64_t update_every = 32;
  /// Hard envelope around the configured static threshold: the adapted
  /// value is clamped to [floor_frac * static, ceiling_frac * static].
  double floor_frac = 0.5;
  double ceiling_frac = 2.0;
  /// Largest relative move one update may make (anti-walking rate limit).
  double max_step_frac = 0.15;
  /// Dead band: relative moves smaller than this are ignored.
  double hysteresis_frac = 0.05;
  /// Relative-error bound of the underlying quantile sketches.
  double sketch_alpha = 0.01;
};

/// Per-detector thresholds learned online from the accepted-score stream.
class AdaptiveThresholds {
 public:
  AdaptiveThresholds() = default;
  /// `dist0` / `step0` / `ens0` are the configured static thresholds: the
  /// initial values, and the anchors of the floor/ceiling envelope.
  AdaptiveThresholds(const AdaptiveConfig& cfg, double dist0, double step0,
                     double ens0);

  bool enabled() const { return cfg_.enable; }

  /// Feed one accepted (unflagged) row's raw detector scores. Flagged
  /// rows must never reach this — that is the anti-walking contract.
  void observe_accepted(const std::string& flow_key, double dist_score,
                        double step_score, double ens_score);
  /// The same for a flow id from flow_id().
  void observe_accepted(std::uint32_t flow, double dist_score,
                        double step_score, double ens_score);

  /// Dense id of a flow key (interned on first sight; no track is created
  /// until the flow's first accepted row).
  std::uint32_t flow_id(std::string_view key) { return index_.intern(key); }

  /// Row heartbeat (every screened row, accepted or not): recomputes the
  /// thresholds every `update_every` rows. Driving thread, row order.
  void on_row();

  double dist_threshold() const { return dist_.value; }
  double ens_threshold() const { return ens_.value; }
  /// Per-flow step threshold; flows without enough local history use the
  /// global step estimate.
  double step_threshold(const std::string& flow_key) const;
  double step_threshold(std::uint32_t flow) const;

  /// Threshold recomputation passes that moved at least one value.
  std::uint64_t updates() const { return updates_; }
  /// Candidate moves swallowed by the hysteresis dead band.
  std::uint64_t held_by_hysteresis() const { return held_; }
  /// Candidate values clipped by the floor/ceiling envelope.
  std::uint64_t clamped() const { return clamped_; }
  std::size_t flow_count() const { return live_; }
  /// Accepted rows observed so far (what the global sketches hold).
  std::uint64_t accepted() const { return dist_.sketch.count(); }

  void save(persist::ByteWriter& w) const;
  bool load(persist::ByteReader& r);

 private:
  struct Track {
    static constexpr std::uint64_t kNoTarget = ~std::uint64_t{0};

    double base = 0.0;   // configured static threshold (envelope anchor)
    double value = 0.0;  // current adapted threshold
    obs::QuantileSketch sketch;
    /// margin · quantile(target_quantile) of the sketch, cached at sketch
    /// count `target_count`. Tracks only change through observe(), which
    /// bumps the count, so an unchanged count means an unchanged quantile
    /// and adapt() skips the bucket walk. Not persisted: new and loaded
    /// tracks start at kNoTarget, so checkpoints stay byte-identical.
    double target = 0.0;
    std::uint64_t target_count = kNoTarget;
    /// Per-flow slots exist for every interned id; only flows that have
    /// accepted a row hold a live track (and are saved).
    bool live = false;

    void save(persist::ByteWriter& w) const;
    bool load(persist::ByteReader& r);
  };

  /// One hysteresis/rate-limit/envelope step of `t` toward its sketch's
  /// target quantile. Returns true when the value moved.
  bool adapt(Track& t);

  AdaptiveConfig cfg_;
  Track dist_;
  Track step_;  // global fallback for flows with thin local history
  Track ens_;
  FlowIndex index_;
  std::vector<Track> flows_;  // by flow id
  std::size_t live_ = 0;
  std::uint64_t rows_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t held_ = 0;
  std::uint64_t clamped_ = 0;
};

}  // namespace orev::defense
