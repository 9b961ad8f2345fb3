// Inline adversarial defense plane for the serving engine (DESIGN.md §14).
//
// Sits on the engine's completion path — after the replica pool computed a
// batch's predictions, before completions fire — and screens every row
// with three independent detectors (defense/detectors.hpp):
//
//   distribution  per-feature Mahalanobis distance to the clean
//                 calibration profile
//   norm screen   L2/L∞ step from the flow's last-known-good indication,
//                 z-scored against the natural step distribution
//   ensemble      a compact distilled sibling's disbelief in the primary
//                 model's argmax
//
// A row's combined score is the max of its per-detector scores, each
// normalized by its configured threshold; a combined score ≥ 1 flags the
// row. Flagged requests complete with ServeStatus::kQuarantined and
// prediction −1 — the exact shape of the chaos path's shed outcome, so
// the owning apps degrade identically (IC xApp → fail-safe adaptive MCS,
// PS rApp → skip period) and the model is never fail-open. Flagged rows
// never update the norm screen's last-known-good state (the attacker must
// not be able to walk the reference toward the adversarial point), enter a
// bounded quarantine ring, and feed a bounded online fine-tuning queue
// (checkpointed under app tag "orev.defense") for hardening under attack.
//
// The screen runs on the driving thread in row order and its virtual cost
// (screen_overhead_us + screen_us_per_sample · n) is added to the batch's
// cost model, so latency impact is deterministic and decisions are
// byte-identical at every thread count — bench_defense asserts both.
//
// A quarantine-rate burst over the trailing window fires an obs flight
// trigger ("defense.quarantine_burst"), freezing the causal span tail for
// post-mortem, with hysteresis so a sustained attack produces one report
// per burst rather than one per request.
//
// PR 9 closes the loop (DESIGN.md §15): thresholds may adapt online to
// the accepted-score stream (defense/adaptive.hpp), and a deterministic
// review stage drains the quarantine ring on a row cadence, re-scores
// each record against the current calibration profile and (hardened)
// sibling, releases false positives back to the apps through the normal
// decision path, and feeds confirmed records to the fine-tuning queue.
//
// Per-flow state is indexed by a dense flow id (DESIGN.md §15): flow_id()
// interns a key once, screen_flow() takes the id, and the string-keyed
// screen() is a wrapper. The quarantine ring and the review outcomes
// recycle their buffers, so a steady stream allocates nothing here.
//
// Non-finite rows: a row holding NaN or ±inf is always flagged (score
// +inf), whatever the detectors say, and so never becomes a reference,
// feeds a sketch or a label, or is released by review.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "defense/adaptive.hpp"
#include "defense/detectors.hpp"
#include "nn/model.hpp"
#include "nn/tensor.hpp"
#include "serve/compiled_cnn.hpp"
#include "util/obs/metrics.hpp"
#include "util/persist/persist.hpp"
#include "util/ring.hpp"

namespace orev::serve {

struct DefenseConfig {
  /// Master switch; a disabled plane adds zero virtual cost and the
  /// engine behaves exactly as before this subsystem existed.
  bool enable = false;
  /// Per-detector flag thresholds: a row is quarantined when any
  /// detector's score reaches its threshold (scores are compared as
  /// score / threshold ≥ 1). Distribution and step scores are z-scales
  /// (unbounded), the ensemble score is a probability complement in
  /// [0, 1].
  double dist_threshold = 6.0;
  double step_threshold = 6.0;
  double ens_threshold = 0.9;
  /// Per-detector enables (the ensemble additionally needs a sibling).
  bool use_distribution = true;
  bool use_norm_screen = true;
  bool use_ensemble = true;
  /// Norm-screen staleness bound: versions a flow's last-known-good row
  /// may lag before it is unusable (mirrors the apps' SDL bound).
  std::uint64_t max_stale = 8;
  /// Reference re-seed gate. Version lag only accrues while a flow's rows
  /// are being flagged, so a staleness expiry always fires right after a
  /// sustained flag run — and during an attack burst the first unflagged
  /// row is often adversarial (its step score is 0 with no reference), so
  /// blindly adopting it poisons the reference and blinds the step screen
  /// to every later attack row. With this < 1, a row may *re-seed* a
  /// reference-less flow only when its combined score is below the margin;
  /// advancing an existing reference is unaffected. 1.0 (default) keeps
  /// the legacy behaviour: any unflagged row re-seeds.
  double reseed_margin = 1.0;
  /// Staleness decay instead of hard reference expiry (see
  /// defense::NormScreenConfig::stale_decay): references older than
  /// max_stale stay usable with hyperbolically discounted evidence, so an
  /// attack burst cannot force a re-seed onto adversarial traffic while a
  /// frozen false-positive reference still ages below the flag line.
  bool stale_decay = false;
  /// Virtual cost model of the inline screen, added to each batch.
  std::uint64_t screen_overhead_us = 5;
  std::uint64_t screen_us_per_sample = 1;
  /// Bounded quarantine ring (oldest records evicted first).
  int quarantine_capacity = 128;
  /// Trailing decision window for the burst trigger, and the flagged
  /// fraction over it that fires the flight recorder. Hysteresis: the
  /// trigger rearms once the rate falls below half the threshold.
  int burst_window = 64;
  double burst_threshold = 0.25;
  /// Bounded online adversarial fine-tuning queue.
  int finetune_capacity = 256;
  /// Online adaptive thresholds (defense/adaptive.hpp). Disabled, the
  /// static thresholds above are used verbatim and behaviour is
  /// byte-identical to the pre-adaptive plane.
  defense::AdaptiveConfig adaptive;
  /// Quarantine review cadence in screened rows; 0 disables review and
  /// keeps the original flag-time fine-tune push. With review enabled,
  /// flagged rows only enter the ring — the review pass decides whether
  /// each one is released (false positive) or confirmed into the
  /// fine-tuning queue.
  std::uint64_t review_every = 0;
  /// A record is released when its review score (re-scored against the
  /// current profile/sibling/thresholds) falls below this fraction of the
  /// flag line. Strictly < 1 so borderline rows stay confirmed.
  double release_margin = 0.8;
  /// Virtual cost model of one review pass over n records.
  std::uint64_t review_overhead_us = 20;
  std::uint64_t review_us_per_record = 5;
};

/// Outcome of screening one request.
struct DefenseVerdict {
  bool flagged = false;
  /// Combined threshold-normalized score (≥ 1 ⇔ flagged; +inf for a
  /// non-finite row; NaN in any detector score also flags).
  double score = 0.0;
  /// Raw per-detector scores (0 when a detector is off / not ready).
  double dist_score = 0.0;
  double step_score = 0.0;
  double ens_score = 0.0;
};

/// One quarantined request, retained in the bounded ring for operators
/// and (with review enabled) pending the next review pass.
struct QuarantineRecord {
  std::uint64_t request_id = 0;
  std::string flow_key;
  /// The plane's id for flow_key (DefensePlane::flow_id).
  std::uint32_t flow = 0;
  std::uint64_t flow_version = 0;
  double score = 0.0;
  /// Primary model's prediction on the flagged input (never served).
  int primary_pred = -1;
  /// Temporal-consistency label captured at flag time (the flow's last
  /// accepted prediction), the fine-tune target if the flag is confirmed.
  int ref_label = -1;
  /// Screen-order sequence number (the plane's screened counter at flag
  /// time) — total order over records, stable across thread counts.
  std::uint64_t screened_seq = 0;
  /// Calibration-profile sample count at flag time: the "as of" version
  /// the review outcome reports, so operators can see how much fresher
  /// the profile that cleared or confirmed the row was.
  std::uint64_t profile_samples = 0;
  /// Serving-model swap epoch at flag time.
  std::uint64_t epoch = 0;
  nn::Tensor sample;
};

/// Result of reviewing one quarantined record.
struct ReviewOutcome {
  std::uint64_t request_id = 0;
  std::string flow_key;
  std::uint64_t flow_version = 0;
  /// Combined threshold-normalized score at flag time.
  double original_score = 0.0;
  /// Re-score against the current profile/sibling/thresholds.
  double review_score = 0.0;
  /// True ⇒ false positive: replay the row to its app with
  /// `corrected_pred` and a correcting attestation.
  bool released = false;
  int corrected_pred = -1;
  std::uint64_t quarantined_at_profile_samples = 0;
  /// Swap epoch the row was flagged under (review may run under a newer
  /// hardened model — that asymmetry is the point of the loop).
  std::uint64_t model_epoch = 0;
};

class DefensePlane {
 public:
  /// `engine_name` prefixes the obs metrics
  /// (serve.<engine_name>.defense.*) and salts the fingerprint.
  DefensePlane(const DefenseConfig& cfg, std::string engine_name);

  DefensePlane(const DefensePlane&) = delete;
  DefensePlane& operator=(const DefensePlane&) = delete;

  /// Install the compact sibling for the ensemble detector (typically a
  /// defense::distill student of the served model). Must match the served
  /// model's input shape and class count — the engine checks. The sibling
  /// is inference-locked and compiled to a stage program (CompiledCnn
  /// covers its Flatten→Dense and Dense/ReLU chains) whose logits are
  /// byte-identical to the layer walk; siblings that do not compile are
  /// scored through the walk.
  void attach_sibling(nn::Model sibling);
  /// True when the sibling runs on a compiled plan rather than the walk.
  bool sibling_compiled() const { return sibling_plan_ != nullptr; }
  bool has_sibling() const { return ensemble_ != nullptr; }

  /// Calibrate the distribution profile on clean [m, ...sample] rows.
  void calibrate(const nn::Tensor& rows);
  /// Calibrate the norm screen on one flow's clean consecutive rows;
  /// versions are assigned first_version, first_version+1, … and the last
  /// row becomes the flow's last-known-good.
  void calibrate_flow(const std::string& key, const nn::Tensor& rows,
                      std::uint64_t first_version = 0);

  /// Screen one served row (driving thread, row order). Updates detector
  /// state: unflagged rows advance the flow's LKG and reference label;
  /// flagged rows enter the quarantine ring and fine-tuning queue.
  DefenseVerdict screen(std::uint64_t request_id, const std::string& flow_key,
                        std::uint64_t flow_version, const nn::Tensor& input,
                        int primary_pred);

  /// Dense id of a flow key, assigned on first sight and stable for the
  /// plane's lifetime (checkpoint loads included). The empty key is a
  /// flow too — it just opts out of the norm screen.
  std::uint32_t flow_id(std::string_view key);
  /// screen() by flow id. `ens_score`, when given, is the row's ensemble
  /// score precomputed by batch_ensemble_scores().
  DefenseVerdict screen_flow(std::uint64_t request_id, std::uint32_t flow,
                             std::uint64_t flow_version,
                             const nn::Tensor& input, int primary_pred,
                             const double* ens_score = nullptr);
  /// Ensemble scores of `m` contiguous rows of `features` floats against
  /// their primary predictions, from one compiled-sibling call —
  /// bit-identical to scoring each row alone. Null when the ensemble is
  /// off or the sibling cannot take the rows (callers then score per row).
  const double* batch_ensemble_scores(const float* rows, int m, int features,
                                      const int* preds);

  /// Virtual µs the inline screen adds to a batch of n rows.
  std::uint64_t screen_cost_us(int n) const {
    return cfg_.screen_overhead_us +
           cfg_.screen_us_per_sample * static_cast<std::uint64_t>(n);
  }
  /// Virtual µs one review pass over n quarantined records costs.
  std::uint64_t review_cost_us(std::size_t n) const {
    return cfg_.review_overhead_us + cfg_.review_us_per_record * n;
  }

  /// True when the review cadence has elapsed and records are pending.
  bool review_due() const {
    return cfg_.enable && cfg_.review_every > 0 && !quarantine_.empty() &&
           rows_since_review_ >= cfg_.review_every;
  }
  /// Push the next review back a full cadence (fault-injection path: a
  /// dropped review op is retried at the next cadence point, not lost).
  void defer_review() { rows_since_review_ = 0; }

  /// Drain the quarantine ring (oldest first), re-scoring each record
  /// against the *current* calibration profile, sibling and thresholds.
  /// `repredict` re-runs the serving model on the sample (post-swap this
  /// is the hardened model); records whose review score falls below
  /// release_margin are released with that corrected prediction, the rest
  /// are confirmed into the fine-tuning queue under their flag-time
  /// temporal-consistency label. Driving thread, deterministic order.
  std::vector<ReviewOutcome> review(
      const std::function<int(const nn::Tensor&)>& repredict);

  /// review() with the re-predictions of every pending record made by
  /// one call, `predict_rows(rows, m, preds)`, over their samples staged
  /// contiguously (every pending sample must be `features` wide, else
  /// CheckError), and the sibling scored in one call as well. Outcomes are
  /// bit-identical to review(); the returned buffer is reused by the next
  /// pass.
  using RowsPredictor =
      std::function<void(const float* rows, int m, int* preds)>;
  std::span<const ReviewOutcome> review_rows(
      int features, const RowsPredictor& predict_rows);

  /// Serving-model swap epoch stamped onto new quarantine records.
  void set_model_epoch(std::uint64_t epoch) { model_epoch_ = epoch; }
  std::uint64_t model_epoch() const { return model_epoch_; }

  const DefenseConfig& config() const { return cfg_; }
  const defense::AdaptiveThresholds& adaptive() const { return adaptive_; }
  std::uint64_t screened() const { return screened_; }
  std::uint64_t flagged() const { return flagged_; }
  std::uint64_t reviewed() const { return reviewed_; }
  std::uint64_t released() const { return released_; }
  std::uint64_t confirmed() const { return confirmed_; }
  /// Records evicted from a full quarantine ring before any review.
  std::uint64_t evicted() const { return evicted_; }
  std::uint64_t review_passes() const { return review_passes_; }
  /// Flight triggers fired ("defense.quarantine_burst").
  std::uint64_t bursts() const { return bursts_; }
  /// Flagged fraction over the trailing window (0 until the window fills).
  double burst_rate() const {
    return recent_fill_ < recent_.size()
               ? 0.0
               : static_cast<double>(recent_hits_) /
                     static_cast<double>(recent_.size());
  }
  const util::Ring<QuarantineRecord>& quarantine() const {
    return quarantine_;
  }
  const defense::FineTuneQueue& finetune() const { return finetune_; }
  defense::FineTuneQueue& finetune() { return finetune_; }
  const defense::CalibrationProfile& profile() const { return profile_; }
  const defense::NormScreen& norm_screen() const { return norms_; }

  /// Hex SHA-256 over the defense config + engine name; checkpoint guard.
  std::string fingerprint() const;

  /// Framed checkpoint (app tag "orev.defense"): fingerprint, calibration
  /// profile, norm-screen state, reference labels, fine-tuning queue and
  /// counters. load_status() rejects other configs with kMismatch and
  /// leaves the plane untouched on any failure.
  persist::Status save_status(const std::string& path) const;
  persist::Status load_status(const std::string& path);

 private:
  /// Ensemble score of `input` against primary prediction `pred`: the
  /// compiled sibling into plane-owned scratch when there is one, else
  /// EnsembleDisagreement::score's layer walk. Bit-identical either way.
  double ensemble_score(const nn::Tensor& input, int pred);
  /// Append one flag outcome to the burst window ring.
  void record_burst(bool flagged);
  /// Stage every pending sample contiguously into review_rows_; false
  /// (nothing staged) when their widths differ.
  bool stage_review_rows();
  /// The review pass over the ring, given each record's re-prediction in
  /// review_preds_ (and the samples in review_rows_ when `staged`).
  /// Fills review_out_[0, size) and empties the ring.
  void run_review(bool staged);
  /// Sibling disbelief of m contiguous rows against `preds` into `out`
  /// (compiled sibling, one call).
  void sibling_scores(const float* rows, int m, const int* preds,
                      double* out);

  /// Plane-level per-flow state, indexed by flow id.
  struct Flow {
    std::uint32_t norm = defense::FlowIndex::kNone;  // norms_ id
    std::uint32_t adaptive = 0;                      // adaptive_ id
    /// Last accepted (unflagged) prediction: the reference label
    /// quarantined samples are fine-tuned toward (temporal consistency).
    bool has_pred = false;
    int last_pred = -1;
  };
  /// (Re)derive a flow's detector ids after norms_/adaptive_ changed.
  void bind_flow(std::uint32_t id);

  DefenseConfig cfg_;
  std::string name_;
  defense::CalibrationProfile profile_;
  defense::NormScreen norms_;
  std::unique_ptr<defense::EnsembleDisagreement> ensemble_;
  /// The sibling's compiled plan (null when it does not compile) and its
  /// [classes] logits scratch.
  std::unique_ptr<CompiledCnn> sibling_plan_;
  std::vector<float> sibling_logits_;
  defense::FineTuneQueue finetune_;
  defense::AdaptiveThresholds adaptive_;
  defense::FlowIndex flow_index_;
  std::vector<Flow> flows_;  // by flow id
  util::Ring<QuarantineRecord> quarantine_;
  // Review scratch, reused pass to pass.
  std::vector<int> review_preds_;
  std::vector<float> review_rows_;
  std::vector<double> review_ens_;
  std::vector<ReviewOutcome> review_out_;
  std::size_t review_n_ = 0;  // outcomes of the last pass in review_out_
  // Batch ensemble scratch: sibling logits and scores of one flush.
  std::vector<float> batch_logits_;
  std::vector<double> batch_ens_;
  /// Trailing flag/pass outcomes for the burst window: a fixed ring of
  /// burst_window slots with a write cursor, fill count and running hit
  /// count, so the rate costs O(1) per row.
  std::vector<std::uint8_t> recent_;
  std::size_t recent_pos_ = 0;
  std::size_t recent_fill_ = 0;
  int recent_hits_ = 0;
  bool burst_latched_ = false;
  std::uint64_t screened_ = 0;
  std::uint64_t flagged_ = 0;
  std::uint64_t bursts_ = 0;
  std::uint64_t reviewed_ = 0;
  std::uint64_t released_ = 0;
  std::uint64_t confirmed_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t review_passes_ = 0;
  std::uint64_t rows_since_review_ = 0;
  std::uint64_t model_epoch_ = 0;

  obs::Counter& m_screened_;
  obs::Counter& m_flagged_;
  obs::Counter& m_bursts_;
  obs::Counter& m_released_;
  obs::Counter& m_confirmed_;
  obs::Gauge& m_burst_rate_;
};

}  // namespace orev::serve
