#include "serve/defense_plane.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "nn/serialize.hpp"
#include "util/check.hpp"
#include "util/obs/flight.hpp"
#include "util/persist/frame.hpp"
#include "util/sha256.hpp"

namespace orev::serve {

namespace {

/// Frame app tag for defense-plane checkpoints.
constexpr const char* kDefenseTag = "orev.defense";

bool all_finite(const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(x[i])) return false;
  return true;
}

/// max of the threshold-normalized detector scores, or +inf when the row
/// is non-finite or any part is NaN (std::max would drop a NaN).
double combined_score(bool finite, double a, double b, double c) {
  if (!finite || std::isnan(a) || std::isnan(b) || std::isnan(c))
    return std::numeric_limits<double>::infinity();
  return std::max(std::max(a, b), c);
}

}  // namespace

DefensePlane::DefensePlane(const DefenseConfig& cfg, std::string engine_name)
    : cfg_(cfg),
      name_(std::move(engine_name)),
      norms_(defense::NormScreenConfig{cfg.max_stale, cfg.stale_decay}),
      finetune_(cfg.finetune_capacity),
      adaptive_(cfg.adaptive, cfg.dist_threshold, cfg.step_threshold,
                cfg.ens_threshold),
      quarantine_(static_cast<std::size_t>(
          std::max(cfg.quarantine_capacity, 1))),
      recent_(static_cast<std::size_t>(std::max(cfg.burst_window, 1)), 0),
      m_screened_(obs::counter("serve." + name_ + ".defense.screened",
                               "requests screened by the defense plane")),
      m_flagged_(obs::counter("serve." + name_ + ".defense.quarantined",
                              "requests flagged and quarantined")),
      m_bursts_(obs::counter("serve." + name_ + ".defense.bursts",
                             "quarantine-rate burst flight triggers")),
      m_released_(obs::counter("serve." + name_ + ".defense.released",
                               "quarantined requests released on review")),
      m_confirmed_(obs::counter("serve." + name_ + ".defense.confirmed",
                                "quarantined requests confirmed on review")),
      m_burst_rate_(obs::gauge("serve." + name_ + ".defense.burst_rate",
                               "flagged fraction over the trailing window")) {
  OREV_CHECK(cfg_.dist_threshold > 0 && cfg_.step_threshold > 0 &&
                 cfg_.ens_threshold > 0,
             "defense thresholds must be positive");
  OREV_CHECK(cfg_.burst_window >= 1, "burst_window must be >= 1");
  OREV_CHECK(cfg_.quarantine_capacity >= 1,
             "quarantine_capacity must be >= 1");
  OREV_CHECK(cfg_.release_margin > 0.0 && cfg_.release_margin < 1.0,
             "release_margin must be in (0, 1)");
  if (cfg_.adaptive.enable) {
    OREV_CHECK(cfg_.adaptive.floor_frac > 0.0 &&
                   cfg_.adaptive.floor_frac <= 1.0 &&
                   cfg_.adaptive.ceiling_frac >= 1.0,
               "adaptive floor/ceiling must bracket the static threshold");
    OREV_CHECK(cfg_.adaptive.target_quantile > 0.0 &&
                   cfg_.adaptive.target_quantile <= 1.0,
               "adaptive target_quantile must be in (0, 1]");
  }
}

void DefensePlane::attach_sibling(nn::Model sibling) {
  ensemble_ =
      std::make_unique<defense::EnsembleDisagreement>(std::move(sibling));
  // The ensemble locked the sibling, so it compiles as-is; the plan
  // snapshots the weights, and the sibling is never trained in place.
  sibling_plan_ = CompiledCnn::compile(ensemble_->sibling()).plan;
  sibling_logits_.assign(
      sibling_plan_ != nullptr
          ? static_cast<std::size_t>(sibling_plan_->num_classes())
          : 0,
      0.0f);
}

double DefensePlane::ensemble_score(const nn::Tensor& input, int pred) {
  if (sibling_plan_ == nullptr ||
      static_cast<int>(input.numel()) != sibling_plan_->input_features())
    return ensemble_->score(input, pred);
  const int classes = sibling_plan_->num_classes();
  if (pred < 0 || pred >= classes) return 1.0;
  sibling_plan_->logits_rows(input.raw(), 1, sibling_logits_.data());
  return defense::sibling_disbelief(sibling_logits_.data(), classes, pred);
}

void DefensePlane::sibling_scores(const float* rows, int m, const int* preds,
                                  double* out) {
  const int classes = sibling_plan_->num_classes();
  batch_logits_.resize(static_cast<std::size_t>(m) * classes);
  sibling_plan_->logits_rows(rows, m, batch_logits_.data());
  for (int i = 0; i < m; ++i)
    out[i] = defense::sibling_disbelief(
        batch_logits_.data() + static_cast<std::size_t>(i) * classes, classes,
        preds[i]);
}

const double* DefensePlane::batch_ensemble_scores(const float* rows, int m,
                                                  int features,
                                                  const int* preds) {
  if (!cfg_.use_ensemble || ensemble_ == nullptr || sibling_plan_ == nullptr ||
      features != sibling_plan_->input_features() || m <= 0)
    return nullptr;
  batch_ens_.resize(static_cast<std::size_t>(m));
  sibling_scores(rows, m, preds, batch_ens_.data());
  return batch_ens_.data();
}

void DefensePlane::calibrate(const nn::Tensor& rows) {
  profile_.observe_rows(rows);
}

void DefensePlane::calibrate_flow(const std::string& key,
                                  const nn::Tensor& rows,
                                  std::uint64_t first_version) {
  OREV_CHECK(rows.rank() >= 2 && rows.dim(0) >= 1,
             "calibrate_flow expects a [m, ...sample] tensor");
  const int m = rows.dim(0);
  const std::size_t stride = rows.numel() / static_cast<std::size_t>(m);
  for (int i = 0; i < m; ++i)
    norms_.calibrate(key, first_version + static_cast<std::uint64_t>(i),
                     rows.raw() + static_cast<std::size_t>(i) * stride,
                     stride);
}

void DefensePlane::record_burst(bool flagged) {
  std::uint8_t& slot = recent_[recent_pos_];
  if (recent_fill_ == recent_.size())
    recent_hits_ -= slot;
  else
    ++recent_fill_;
  slot = flagged ? 1 : 0;
  recent_hits_ += slot;
  recent_pos_ = recent_pos_ + 1 == recent_.size() ? 0 : recent_pos_ + 1;
}

void DefensePlane::bind_flow(std::uint32_t id) {
  const std::string& key = flow_index_.key(id);
  Flow& f = flows_[id];
  // The empty key has no norm-screen state (norm stays kNone) but does
  // have an adaptive track, as it always had under the string maps.
  f.norm = key.empty() ? defense::FlowIndex::kNone : norms_.flow_id(key);
  f.adaptive = adaptive_.flow_id(key);
}

std::uint32_t DefensePlane::flow_id(std::string_view key) {
  const std::uint32_t id = flow_index_.intern(key);
  if (id == flows_.size()) {
    flows_.emplace_back();
    bind_flow(id);
  }
  return id;
}

DefenseVerdict DefensePlane::screen(std::uint64_t request_id,
                                    const std::string& flow_key,
                                    std::uint64_t flow_version,
                                    const nn::Tensor& input,
                                    int primary_pred) {
  return screen_flow(request_id, flow_id(flow_key), flow_version, input,
                     primary_pred);
}

DefenseVerdict DefensePlane::screen_flow(std::uint64_t request_id,
                                         std::uint32_t flow,
                                         std::uint64_t flow_version,
                                         const nn::Tensor& input,
                                         int primary_pred,
                                         const double* ens_score) {
  DefenseVerdict v;
  ++screened_;
  ++rows_since_review_;
  m_screened_.inc();
  OREV_CHECK(flow < flows_.size(), "defense flow id was never issued");
  Flow& f = flows_[flow];
  const bool keyed = f.norm != defense::FlowIndex::kNone;
  const float* x = input.raw();
  const std::size_t n = input.numel();

  if (cfg_.use_distribution) v.dist_score = profile_.score(x, n);
  if (cfg_.use_norm_screen && keyed)
    v.step_score = norms_.score(f.norm, flow_version, x, n);
  if (cfg_.use_ensemble && ensemble_ != nullptr)
    v.ens_score =
        ens_score != nullptr ? *ens_score : ensemble_score(input, primary_pred);

  // With adaptive thresholds disabled the accessors return the configured
  // statics verbatim, so this is the exact pre-adaptive comparison. A
  // non-finite row scores +inf: whatever the detectors made of it, it is
  // flagged and never touches the reference state below.
  const bool finite = all_finite(x, n);
  v.score = combined_score(finite, v.dist_score / adaptive_.dist_threshold(),
                           v.step_score / adaptive_.step_threshold(f.adaptive),
                           v.ens_score / adaptive_.ens_threshold());
  v.flagged = !(v.score < 1.0);

  if (v.flagged) {
    ++flagged_;
    m_flagged_.inc();
    // Bounded ring: evict the oldest record, never grow unbounded. An
    // evicted record was never reviewed — counted so floods are visible.
    if (quarantine_.full()) {
      quarantine_.pop_front();
      ++evicted_;
    }
    // Temporal-consistency label: the flow's last accepted prediction
    // when one exists, else the primary's own.
    const int ref_label = f.has_pred ? f.last_pred : primary_pred;
    // The ring recycles its slots: the key and sample are assigned into
    // buffers an evicted or reviewed record left behind.
    QuarantineRecord& rec = quarantine_.push_slot();
    rec.request_id = request_id;
    rec.flow_key.assign(flow_index_.key(flow));
    rec.flow = flow;
    rec.flow_version = flow_version;
    rec.score = v.score;
    rec.primary_pred = primary_pred;
    rec.ref_label = ref_label;
    rec.screened_seq = screened_;
    rec.profile_samples = profile_.samples();
    rec.epoch = model_epoch_;
    rec.sample = input;
    // With review enabled the review pass decides whether the record is
    // a false positive or fine-tune material; without it, preserve the
    // original flag-time push.
    if (cfg_.review_every == 0 && ref_label >= 0 && finite)
      finetune_.push(input, ref_label);
  } else {
    // Only unflagged rows may advance the flow's reference state; a
    // flagged row becoming the LKG would let the attacker walk the
    // reference onto the adversarial point one ε at a time. The same
    // rule guards the adaptive sketches: quarantined scores never move
    // the learned thresholds. Re-seeding a reference-less flow (first
    // sight or staleness expiry) is gated harder: expiry fires right
    // after a flag run, when the candidate rows are the least
    // trustworthy, so only a comfortably clean row may found the new
    // reference (see DefenseConfig::reseed_margin).
    const bool reseeding = cfg_.use_norm_screen && keyed &&
                           !norms_.has_reference(f.norm, flow_version, n);
    if (keyed && (!reseeding || v.score < cfg_.reseed_margin))
      norms_.accept(f.norm, flow_version, x, n);
    if (keyed && primary_pred >= 0) {
      f.has_pred = true;
      f.last_pred = primary_pred;
    }
    adaptive_.observe_accepted(f.adaptive, v.dist_score, v.step_score,
                               v.ens_score);
  }
  adaptive_.on_row();

  record_burst(v.flagged);
  const double rate = burst_rate();
  m_burst_rate_.set(rate);
  if (!burst_latched_ && rate >= cfg_.burst_threshold) {
    burst_latched_ = true;
    ++bursts_;
    m_bursts_.inc();
    char detail[160];
    std::snprintf(detail, sizeof detail,
                  "%s: quarantine rate %.3f over window %d (request %llu)",
                  name_.c_str(), rate, cfg_.burst_window,
                  static_cast<unsigned long long>(request_id));
    obs::flight_trigger("defense.quarantine_burst", detail);
  } else if (burst_latched_ && rate < cfg_.burst_threshold * 0.5) {
    burst_latched_ = false;
  }
  return v;
}

bool DefensePlane::stage_review_rows() {
  const std::size_t n = quarantine_.size();
  if (n == 0) return false;
  const std::size_t f = quarantine_.front().sample.numel();
  for (const QuarantineRecord& rec : quarantine_)
    if (rec.sample.numel() != f) return false;
  review_rows_.resize(n * f);
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(quarantine_[i].sample.raw(), f, review_rows_.data() + i * f);
  return true;
}

std::vector<ReviewOutcome> DefensePlane::review(
    const std::function<int(const nn::Tensor&)>& repredict) {
  review_preds_.resize(quarantine_.size());
  for (std::size_t i = 0; i < quarantine_.size(); ++i)
    review_preds_[i] = repredict ? repredict(quarantine_[i].sample)
                                 : quarantine_[i].primary_pred;
  run_review(stage_review_rows());
  return std::vector<ReviewOutcome>(
      review_out_.begin(),
      review_out_.begin() + static_cast<std::ptrdiff_t>(review_n_));
}

std::span<const ReviewOutcome> DefensePlane::review_rows(
    int features, const RowsPredictor& predict_rows) {
  const std::size_t n = quarantine_.size();
  review_preds_.resize(n);
  if (n > 0) {
    // A checkpoint may carry samples of any width, so the staged rows are
    // checked against the predictor's before it reads them.
    OREV_CHECK(stage_review_rows() &&
                   review_rows_.size() == n * static_cast<std::size_t>(features),
               "review_rows needs pending samples of the model's width");
    predict_rows(review_rows_.data(), static_cast<int>(n),
                 review_preds_.data());
  }
  run_review(n > 0);
  return std::span<const ReviewOutcome>(review_out_.data(), review_n_);
}

void DefensePlane::run_review(bool staged) {
  const std::size_t n = quarantine_.size();
  ++review_passes_;
  rows_since_review_ = 0;
  // The sibling scores every record in one call when the samples staged
  // and the compiled sibling takes their width.
  const bool use_ens = cfg_.use_ensemble && ensemble_ != nullptr;
  const bool batch_ens =
      use_ens && staged && sibling_plan_ != nullptr &&
      review_rows_.size() ==
          n * static_cast<std::size_t>(sibling_plan_->input_features());
  if (batch_ens) {
    review_ens_.resize(n);
    sibling_scores(review_rows_.data(), static_cast<int>(n),
                   review_preds_.data(), review_ens_.data());
  }
  if (review_out_.size() < n) review_out_.resize(n);
  // Oldest first: review order is the flag order, a total order stable
  // across thread counts (records are created on the driving thread).
  for (std::size_t i = 0; i < n; ++i) {
    QuarantineRecord& rec = quarantine_[i];
    ++reviewed_;
    const int re_pred = review_preds_[i];
    // Re-score against the *current* state: the profile has seen every
    // accepted row since the flag, the sibling may have been hardened,
    // and the thresholds may have adapted. The step score is re-taken
    // against the flow's *current* LKG (NormScreen::review_score): the
    // clean walk has moved on since the flag, so a natural outlier has
    // been overtaken by its own flow while an adversarial point is still
    // far from everywhere the walk actually went.
    const Flow& f = flows_[rec.flow];
    const float* x = rec.sample.raw();
    const std::size_t nx = rec.sample.numel();
    double dist = 0.0, step = 0.0, ens = 0.0;
    if (cfg_.use_distribution) dist = profile_.score(x, nx);
    if (cfg_.use_norm_screen && f.norm != defense::FlowIndex::kNone)
      step = norms_.review_score(f.norm, x, nx);
    if (use_ens) ens = batch_ens ? review_ens_[i] : ensemble_score(rec.sample, re_pred);
    // A non-finite sample re-scores +inf: it is never released.
    const bool finite = all_finite(x, nx);
    const double review_score =
        combined_score(finite, dist / adaptive_.dist_threshold(),
                       step / adaptive_.step_threshold(f.adaptive),
                       ens / adaptive_.ens_threshold());

    ReviewOutcome& o = review_out_[i];
    o.request_id = rec.request_id;
    o.flow_key.assign(rec.flow_key);
    o.flow_version = rec.flow_version;
    o.original_score = rec.score;
    o.review_score = review_score;
    o.quarantined_at_profile_samples = rec.profile_samples;
    o.model_epoch = rec.epoch;
    o.released = review_score < cfg_.release_margin;
    o.corrected_pred = o.released ? re_pred : -1;
    if (o.released) {
      ++released_;
      m_released_.inc();
    } else {
      ++confirmed_;
      m_confirmed_.inc();
      if (rec.ref_label >= 0 && finite)
        finetune_.push(std::move(rec.sample), rec.ref_label);
    }
  }
  quarantine_.clear();
  review_n_ = n;
}

std::string DefensePlane::fingerprint() const {
  persist::ByteWriter w;
  w.str(name_);
  w.u8(cfg_.enable ? 1 : 0);
  w.f64(cfg_.dist_threshold);
  w.f64(cfg_.step_threshold);
  w.f64(cfg_.ens_threshold);
  w.u8(cfg_.use_distribution ? 1 : 0);
  w.u8(cfg_.use_norm_screen ? 1 : 0);
  w.u8(cfg_.use_ensemble ? 1 : 0);
  w.u64(cfg_.max_stale);
  w.u64(cfg_.screen_overhead_us);
  w.u64(cfg_.screen_us_per_sample);
  w.i32(cfg_.quarantine_capacity);
  w.i32(cfg_.burst_window);
  w.f64(cfg_.burst_threshold);
  w.i32(cfg_.finetune_capacity);
  // Closed-loop fields enter the fingerprint only when their feature is
  // on, so toggling an unrelated feature never invalidates a checkpoint
  // written under the same effective config.
  if (cfg_.adaptive.enable) {
    w.u8(1);
    w.f64(cfg_.adaptive.target_quantile);
    w.f64(cfg_.adaptive.margin);
    w.u64(cfg_.adaptive.warmup);
    w.u64(cfg_.adaptive.update_every);
    w.f64(cfg_.adaptive.floor_frac);
    w.f64(cfg_.adaptive.ceiling_frac);
    w.f64(cfg_.adaptive.max_step_frac);
    w.f64(cfg_.adaptive.hysteresis_frac);
    w.f64(cfg_.adaptive.sketch_alpha);
  }
  if (cfg_.review_every > 0) {
    w.u8(2);
    w.u64(cfg_.review_every);
    w.f64(cfg_.release_margin);
    w.u64(cfg_.review_overhead_us);
    w.u64(cfg_.review_us_per_record);
  }
  if (cfg_.reseed_margin < 1.0) {
    w.u8(3);
    w.f64(cfg_.reseed_margin);
  }
  if (cfg_.stale_decay) w.u8(4);
  return Sha256::hex(w.buffer());
}

persist::Status DefensePlane::save_status(const std::string& path) const {
  persist::FrameWriter fw(kDefenseTag);
  fw.section("config", fingerprint());

  persist::ByteWriter prof;
  profile_.save(prof);
  fw.section("profile", prof.take());

  persist::ByteWriter norms;
  norms_.save(norms);
  fw.section("norms", norms.take());

  persist::ByteWriter labels;
  std::uint64_t nlabels = 0;
  for (const Flow& f : flows_) nlabels += f.has_pred ? 1 : 0;
  labels.u64(nlabels);
  for (const std::uint32_t id : flow_index_.sorted()) {
    if (!flows_[id].has_pred) continue;
    labels.str(flow_index_.key(id));
    labels.i32(flows_[id].last_pred);
  }
  fw.section("labels", labels.take());

  persist::ByteWriter ftq;
  finetune_.save(ftq);
  fw.section("finetune", ftq.take());

  persist::ByteWriter ad;
  adaptive_.save(ad);
  fw.section("adaptive", ad.take());

  // The quarantine ring is durable state now that review consumes it: a
  // crash between flag and review must not lose (or double-review) rows.
  persist::ByteWriter q;
  q.u64(quarantine_.size());
  for (const QuarantineRecord& rec : quarantine_) {
    q.u64(rec.request_id);
    q.str(rec.flow_key);
    q.u64(rec.flow_version);
    q.f64(rec.score);
    q.i32(rec.primary_pred);
    q.i32(rec.ref_label);
    q.u64(rec.screened_seq);
    q.u64(rec.profile_samples);
    q.u64(rec.epoch);
    nn::write_tensor(q, rec.sample);
  }
  fw.section("quarantine", q.take());

  persist::ByteWriter counters;
  counters.u64(screened_);
  counters.u64(flagged_);
  counters.u64(bursts_);
  counters.u64(reviewed_);
  counters.u64(released_);
  counters.u64(confirmed_);
  counters.u64(evicted_);
  counters.u64(review_passes_);
  counters.u64(rows_since_review_);
  counters.u64(model_epoch_);
  fw.section("counters", counters.take());
  return fw.commit(path);
}

persist::Status DefensePlane::load_status(const std::string& path) {
  using persist::Status;
  using persist::StatusCode;
  persist::FrameReader fr;
  Status st = persist::FrameReader::load(path, kDefenseTag, fr);
  if (!st.ok()) return st;

  std::string_view sec;
  st = fr.section("config", sec);
  if (!st.ok()) return st;
  if (sec != fingerprint())
    return Status::Fail(StatusCode::kMismatch,
                        "defense checkpoint was written under a different "
                        "defense config (fingerprint differs)");

  // Decode every section into temporaries; commit only when all succeed,
  // so a corrupted checkpoint never half-mutates a live plane.
  defense::CalibrationProfile profile;
  st = fr.section("profile", sec);
  if (!st.ok()) return st;
  {
    persist::ByteReader r(sec);
    if (!profile.load(r))
      return Status::Fail(StatusCode::kTruncated,
                          "defense profile section truncated");
    st = r.finish("defense profile");
    if (!st.ok()) return st;
  }

  defense::NormScreen norms;
  st = fr.section("norms", sec);
  if (!st.ok()) return st;
  {
    persist::ByteReader r(sec);
    if (!norms.load(r))
      return Status::Fail(StatusCode::kTruncated,
                          "defense norm-screen section truncated");
    st = r.finish("defense norm screen");
    if (!st.ok()) return st;
  }

  std::vector<std::pair<std::string, int>> labels;
  st = fr.section("labels", sec);
  if (!st.ok()) return st;
  {
    persist::ByteReader r(sec);
    std::uint64_t n = 0;
    if (!r.u64(n))
      return Status::Fail(StatusCode::kTruncated,
                          "defense labels section truncated");
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string key;
      std::int32_t pred = 0;
      if (!r.str(key) || !r.i32(pred))
        return Status::Fail(StatusCode::kTruncated,
                            "defense labels section truncated");
      labels.emplace_back(std::move(key), pred);
    }
    st = r.finish("defense labels");
    if (!st.ok()) return st;
  }

  defense::FineTuneQueue finetune(cfg_.finetune_capacity);
  st = fr.section("finetune", sec);
  if (!st.ok()) return st;
  {
    persist::ByteReader r(sec);
    if (!finetune.load(r))
      return Status::Fail(StatusCode::kTruncated,
                          "defense fine-tune section truncated");
    st = r.finish("defense fine-tune queue");
    if (!st.ok()) return st;
  }

  defense::AdaptiveThresholds adaptive;
  st = fr.section("adaptive", sec);
  if (!st.ok()) return st;
  {
    persist::ByteReader r(sec);
    if (!adaptive.load(r))
      return Status::Fail(StatusCode::kTruncated,
                          "defense adaptive section truncated");
    st = r.finish("defense adaptive thresholds");
    if (!st.ok()) return st;
  }

  std::vector<QuarantineRecord> quarantine;
  st = fr.section("quarantine", sec);
  if (!st.ok()) return st;
  {
    persist::ByteReader r(sec);
    std::uint64_t n = 0;
    if (!r.u64(n))
      return Status::Fail(StatusCode::kTruncated,
                          "defense quarantine section truncated");
    // Each record costs at least its fixed-width fields; reject counts
    // the payload cannot hold.
    if (n > r.remaining() / 48 ||
        n > static_cast<std::uint64_t>(quarantine_.capacity()))
      return Status::Fail(StatusCode::kBadValue,
                          "defense quarantine count implausible");
    for (std::uint64_t i = 0; i < n; ++i) {
      QuarantineRecord rec;
      std::int32_t pred = 0, ref = 0;
      if (!r.u64(rec.request_id) || !r.str(rec.flow_key) ||
          !r.u64(rec.flow_version) || !r.f64(rec.score) || !r.i32(pred) ||
          !r.i32(ref) || !r.u64(rec.screened_seq) ||
          !r.u64(rec.profile_samples) || !r.u64(rec.epoch))
        return Status::Fail(StatusCode::kTruncated,
                            "defense quarantine record truncated");
      rec.primary_pred = pred;
      rec.ref_label = ref;
      st = nn::read_tensor(r, rec.sample);
      if (!st.ok()) return st;
      quarantine.push_back(std::move(rec));
    }
    st = r.finish("defense quarantine ring");
    if (!st.ok()) return st;
  }

  std::uint64_t screened = 0, flagged = 0, bursts = 0, reviewed = 0,
                released = 0, confirmed = 0, evicted = 0, review_passes = 0,
                rows_since_review = 0, model_epoch = 0;
  st = fr.section("counters", sec);
  if (!st.ok()) return st;
  {
    persist::ByteReader r(sec);
    if (!r.u64(screened) || !r.u64(flagged) || !r.u64(bursts) ||
        !r.u64(reviewed) || !r.u64(released) || !r.u64(confirmed) ||
        !r.u64(evicted) || !r.u64(review_passes) ||
        !r.u64(rows_since_review) || !r.u64(model_epoch))
      return Status::Fail(StatusCode::kTruncated,
                          "defense counters section truncated");
    st = r.finish("defense counters");
    if (!st.ok()) return st;
  }

  profile_ = std::move(profile);
  norms_ = std::move(norms);
  finetune_ = std::move(finetune);
  adaptive_ = std::move(adaptive);
  // Flow ids stay stable across the load; their detector ids point into
  // the loaded detectors now, and the labels are the loaded ones.
  for (std::uint32_t id = 0; id < flows_.size(); ++id) {
    bind_flow(id);
    flows_[id].has_pred = false;
  }
  for (const auto& [key, pred] : labels) {
    Flow& f = flows_[flow_id(key)];
    if (f.has_pred) continue;  // a repeated key keeps its first label
    f.has_pred = true;
    f.last_pred = pred;
  }
  quarantine_.clear();
  for (QuarantineRecord& rec : quarantine) {
    rec.flow = flow_id(rec.flow_key);
    quarantine_.push_slot() = std::move(rec);
  }
  screened_ = screened;
  flagged_ = flagged;
  bursts_ = bursts;
  reviewed_ = reviewed;
  released_ = released;
  confirmed_ = confirmed;
  evicted_ = evicted;
  review_passes_ = review_passes;
  rows_since_review_ = rows_since_review;
  model_epoch_ = model_epoch;
  // The burst window is observational, not durable: resumed planes start
  // it empty and unlatched.
  recent_pos_ = 0;
  recent_fill_ = 0;
  recent_hits_ = 0;
  burst_latched_ = false;
  return Status::Ok();
}

}  // namespace orev::serve
