// Inline-detection primitives for the serving engine's defense plane
// (DESIGN.md §14). Three independent, cheap, streaming detectors plus the
// online fine-tuning queue they feed:
//
//   * CalibrationProfile — per-feature running mean/variance (Welford)
//     learned from a seed-deterministic clean calibration stream, scored
//     at serve time as a normalized diagonal Mahalanobis distance. Catches
//     inputs that left the clean input distribution entirely.
//   * NormScreen — perturbation-norm screen: L2/L∞ distance between a
//     flow's current indication and its last-known-good one, z-scored
//     against the natural step-size distribution of the clean streams.
//     Reuses the SDL staleness idiom (PR 3): the LKG row carries the flow's
//     version counter and is discarded once it lags more than `max_stale`
//     versions. Bounded adversarial perturbations (FGSM/PGD ε-balls, UAPs)
//     are near-invisible to marginal statistics but step much further than
//     the natural random walk of KPM/spectrogram telemetry.
//   * EnsembleDisagreement — a compact distilled sibling model (built with
//     defense::distill) runs next to the primary plan; the score is the
//     sibling's disbelief in the primary's argmax. Transferable
//     perturbations crafted against the primary's decision boundary rarely
//     transfer to a temperature-smoothed student at the same point.
//   * FineTuneQueue — bounded queue of quarantined samples labeled with
//     the flow's last accepted prediction; harden() runs a deterministic
//     fine-tuning pass over it so the victim adapts while under attack.
//
// Everything here is driven from the engine's completion path on the
// driving thread, in row order, with double accumulation in fixed order —
// scores and state are byte-identical at every thread count. Deliberately
// depends only on nn + util (no attack/data) so orev_serve can link it
// without a dependency cycle through orev_attack.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "defense/flow_index.hpp"
#include "nn/model.hpp"
#include "nn/tensor.hpp"
#include "nn/trainer.hpp"
#include "util/persist/bytes.hpp"

namespace orev::defense {

/// Streaming per-feature clean-input profile with a Mahalanobis-style
/// score (diagonal covariance, normalized by feature count).
class CalibrationProfile {
 public:
  /// Ingest one flat feature row. The first row fixes the feature count;
  /// later rows of a different size are rejected with OREV_CHECK.
  void observe(const float* row, std::size_t n);
  /// Ingest every row of a [m, ...sample] tensor.
  void observe_rows(const nn::Tensor& rows);

  std::size_t features() const { return mean_.size(); }
  std::uint64_t samples() const { return count_; }
  /// Scoring needs at least two samples (a variance estimate).
  bool ready() const { return count_ >= 2; }

  /// sqrt(mean_i((x_i - mu_i)^2 / var_i)) — the per-feature-normalized
  /// distance of `row` from the calibration distribution. Returns 0 until
  /// ready() or when the row size does not match the profile.
  double score(const float* row, std::size_t n) const;
  double score(const nn::Tensor& sample) const {
    return score(sample.raw(), sample.numel());
  }

  /// max_i |x_i - mu_i| / sqrt(var_i) — the worst single-feature z-score
  /// of `row`, with the same variance estimate and floor as score().
  /// Returns 0 until ready() or when the row size does not match.
  double max_z(const float* row, std::size_t n) const;

  void save(persist::ByteWriter& w) const;
  bool load(persist::ByteReader& r);

 private:
  std::uint64_t count_ = 0;
  std::vector<double> mean_;
  std::vector<double> m2_;  // Welford sum of squared deviations
};

struct NormScreenConfig {
  /// A flow's last-known-good row is unusable once the submitted version
  /// lags it by more than this many versions (mirrors the SDL
  /// staleness bound of the apps' degraded-read path).
  std::uint64_t max_stale = 8;
  /// Staleness decay instead of hard expiry. Version lag only accrues
  /// while a flow's rows are being flagged, so a hard expiry always fires
  /// right after a sustained flag run — and then adopts the first
  /// unflagged row as the new reference, which during an attack burst is
  /// often an adversarial one (reference poisoning). With decay, a
  /// reference older than max_stale stays usable but its z-score is
  /// discounted by max_stale/lag: an attack row's huge step survives the
  /// discount (stays flagged, never adopted), while a clean row's modest
  /// step decays below threshold, is accepted, and re-founds the
  /// reference — both the poisoning and the frozen-false-positive
  /// failure modes heal without a tuned margin.
  bool stale_decay = false;
};

/// Per-flow perturbation-norm screen against the last-known-good row.
class NormScreen {
 public:
  explicit NormScreen(NormScreenConfig cfg = {}) : cfg_(cfg) {}

  /// Calibration: ingest a clean row for `key`, learning the natural
  /// step-size distribution (shared across flows) and advancing the
  /// flow's LKG. Equivalent to score-then-accept with stats recording.
  void calibrate(const std::string& key, std::uint64_t version,
                 const float* row, std::size_t n);

  /// Positive z-score of the (L2, L∞) step from the flow's LKG row to
  /// `row` against the calibrated natural step distribution; the larger of
  /// the two z-scores, floored at 0. Returns 0 when the screen is not
  /// calibrated, the flow has no usable LKG (first sight, stale version,
  /// shape change), or `key` is empty.
  double score(const std::string& key, std::uint64_t version,
               const float* row, std::size_t n) const;

  /// Review re-score: the step z-score of `row` against the flow's
  /// *current* LKG, ignoring versions. A quarantined record is by
  /// definition behind the stream by review time; the question the review
  /// asks is whether the row is still far from where the clean walk
  /// actually went (an adversarial point stays far, a natural outlier is
  /// overtaken by the walk). Returns 0 when uncalibrated or the flow has
  /// no LKG. Const — never advances the reference.
  double review_score(const std::string& key, const float* row,
                      std::size_t n) const;

  /// Accept `row` as the flow's new last-known-good. Call for every row
  /// that was *not* quarantined — flagged rows must never become the
  /// reference, or the attacker walks the LKG to the adversarial point.
  void accept(const std::string& key, std::uint64_t version,
              const float* row, std::size_t n);

  /// Whether the flow has a usable reference for a row of `n` features at
  /// `version` — same freshness/order/shape rules as score(). False means
  /// the next accepted row would *re-seed* the reference rather than
  /// advance it, which callers may want to gate more strictly (a stale
  /// expiry fires right after a flag run, when the candidate rows are the
  /// least trustworthy).
  bool has_reference(const std::string& key, std::uint64_t version,
                     std::size_t n) const;

  /// Drop a flow's LKG (e.g. after its source recovered from a fault).
  void reset_flow(const std::string& key);

  // Flow-id twins of the calls above: `flow_id` interns a non-empty key
  // once, and the id then indexes the flow's state directly.
  std::uint32_t flow_id(std::string_view key) { return index_.intern(key); }
  double score(std::uint32_t flow, std::uint64_t version, const float* row,
               std::size_t n) const;
  double review_score(std::uint32_t flow, const float* row,
                      std::size_t n) const;
  void accept(std::uint32_t flow, std::uint64_t version, const float* row,
              std::size_t n);
  bool has_reference(std::uint32_t flow, std::uint64_t version,
                     std::size_t n) const;

  std::uint64_t calibration_steps() const { return steps_; }
  bool ready() const { return steps_ >= 2; }
  std::size_t flows() const { return present_; }

  void save(persist::ByteWriter& w) const;
  bool load(persist::ByteReader& r);

 private:
  struct Lkg {
    bool present = false;
    std::uint64_t version = 0;
    std::vector<float> row;
  };
  /// The flow's LKG, or null when it has none.
  const Lkg* lkg_of(std::uint32_t flow) const {
    return flow < lkg_.size() && lkg_[flow].present ? &lkg_[flow] : nullptr;
  }
  struct StepNorms {
    double l2 = 0.0;
    double linf = 0.0;
    /// Evidence discount for stale references (1 when fresh; see
    /// NormScreenConfig::stale_decay).
    double discount = 1.0;
  };
  /// L2/L∞ norms of row − lkg, or nothing when the LKG is unusable.
  bool step_norms(const Lkg& lkg, std::uint64_t version, const float* row,
                  std::size_t n, StepNorms& out) const;

  NormScreenConfig cfg_;
  FlowIndex index_;
  std::vector<Lkg> lkg_;  // by flow id
  std::size_t present_ = 0;
  std::uint64_t steps_ = 0;
  double l2_mean_ = 0.0, l2_m2_ = 0.0;
  double linf_mean_ = 0.0, linf_m2_ = 0.0;
};

/// The ensemble detector's score from raw sibling logits: 1 − the
/// temperature-1 softmax probability of class `pred`, with the exact op
/// order of nn::softmax_t(…, 1.0f) so compiled and layer-walk logits score
/// bit-identically. An out-of-range `pred` (a shed request's −1) scores 1.
/// Reads `logits[0, classes)`; allocates nothing.
double sibling_disbelief(const float* logits, int classes, int pred);

/// Ensemble-disagreement detector: a compact sibling model (typically a
/// distilled student of the served model) votes on the primary's argmax.
class EnsembleDisagreement {
 public:
  /// Takes ownership of the sibling and locks it in inference mode.
  explicit EnsembleDisagreement(nn::Model sibling);

  /// 1 − p_sibling(primary_pred | input): 0 when the sibling confidently
  /// agrees, → 1 as it dissents. An out-of-range `primary_pred` (a shed
  /// request's −1) scores 1.
  double score(const nn::Tensor& input, int primary_pred);

  const nn::Model& sibling() const { return sibling_; }
  nn::Model& sibling() { return sibling_; }

 private:
  nn::Model sibling_;
};

/// Bounded queue of quarantined samples awaiting adversarial fine-tuning.
class FineTuneQueue {
 public:
  explicit FineTuneQueue(int capacity);

  struct Item {
    nn::Tensor sample;
    /// Reference label: the flow's last accepted prediction (temporal
    /// consistency), falling back to the primary's own prediction.
    std::int32_t label = 0;
  };

  /// False (and counted in dropped()) once the queue is full — the plane
  /// must stay bounded under a quarantine flood. Capacity is checked
  /// before the sample is copied, so a flood past capacity costs nothing.
  bool push(const nn::Tensor& sample, int label);
  bool push(nn::Tensor&& sample, int label);

  std::size_t size() const { return items_.size(); }
  int capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }
  bool empty() const { return items_.empty(); }
  bool full() const { return static_cast<int>(items_.size()) >= capacity_; }
  const std::deque<Item>& items() const { return items_; }
  void clear() { items_.clear(); }

  /// Assemble the queue as a training batch ([m, ...sample], labels).
  struct Batch {
    nn::Tensor x;
    std::vector<int> y;
  };
  Batch batch() const;

  void save(persist::ByteWriter& w) const;
  bool load(persist::ByteReader& r);

 private:
  int capacity_;
  std::uint64_t dropped_ = 0;
  std::deque<Item> items_;
};

/// Deterministic online hardening: fine-tune `victim` on the queue's
/// quarantined samples with their reference labels. The queue doubles as
/// its own validation split (the goal is local robustness around the
/// observed attack points, not generalisation measurement). No-op report
/// when the queue is empty.
nn::TrainReport harden(nn::Model& victim, const FineTuneQueue& queue,
                       const nn::TrainConfig& cfg);

/// Closed-loop form of harden(): clone `served` (typically an
/// inference-locked replica), unlock it, fine-tune it on the queue, and
/// return it as a swap candidate for ServeEngine::request_hot_swap — the
/// served model itself is never mutated, so a refused swap has nothing to
/// roll back. `report`, when given, receives the fine-tuning record.
///
/// `replay_x`/`replay_y` optionally mix a clean anchor set ([m, ...sample]
/// rows with 1:1 labels — e.g. the calibration window) into the fine-tune
/// batch: plain queue-only tuning drags the decision boundary toward the
/// quarantined points and surrenders the clean accuracy the swap gate
/// protects, while the replay mix gains local robustness and keeps it.
nn::Model harden_candidate(const nn::Model& served, const FineTuneQueue& queue,
                           const nn::TrainConfig& cfg,
                           nn::TrainReport* report = nullptr,
                           const nn::Tensor* replay_x = nullptr,
                           const std::vector<int>* replay_y = nullptr);

}  // namespace orev::defense
