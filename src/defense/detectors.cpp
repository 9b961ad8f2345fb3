#include "defense/detectors.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/serialize.hpp"
#include "util/check.hpp"

namespace orev::defense {

namespace {

/// Variance floor: constant features still yield a finite z-score.
constexpr double kVarFloor = 1e-8;

double welford_var(double m2, std::uint64_t count) {
  const double var = m2 / static_cast<double>(count > 1 ? count - 1 : 1);
  return std::max(var, kVarFloor);
}

}  // namespace

// ---------------------------------------------------------------------------
// CalibrationProfile

void CalibrationProfile::observe(const float* row, std::size_t n) {
  OREV_CHECK(n > 0, "calibration row must be non-empty");
  if (mean_.empty()) {
    mean_.assign(n, 0.0);
    m2_.assign(n, 0.0);
  }
  OREV_CHECK(n == mean_.size(),
             "calibration row size does not match the profile");
  ++count_;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(row[i]);
    const double delta = x - mean_[i];
    mean_[i] += delta / static_cast<double>(count_);
    m2_[i] += delta * (x - mean_[i]);
  }
}

void CalibrationProfile::observe_rows(const nn::Tensor& rows) {
  OREV_CHECK(rows.rank() >= 2 && rows.dim(0) >= 1,
             "observe_rows expects a [m, ...sample] tensor");
  const int m = rows.dim(0);
  const std::size_t stride = rows.numel() / static_cast<std::size_t>(m);
  for (int i = 0; i < m; ++i)
    observe(rows.raw() + static_cast<std::size_t>(i) * stride, stride);
}

double CalibrationProfile::score(const float* row, std::size_t n) const {
  if (!ready() || n != mean_.size() || n == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(row[i]) - mean_[i];
    acc += d * d / welford_var(m2_[i], count_);
  }
  return std::sqrt(acc / static_cast<double>(n));
}

double CalibrationProfile::max_z(const float* row, std::size_t n) const {
  if (!ready() || n != mean_.size() || n == 0) return 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::abs(static_cast<double>(row[i]) - mean_[i]);
    worst = std::max(worst, d / std::sqrt(welford_var(m2_[i], count_)));
  }
  return worst;
}

void CalibrationProfile::save(persist::ByteWriter& w) const {
  w.u64(count_);
  w.u64(mean_.size());
  for (const double m : mean_) w.f64(m);
  for (const double m2 : m2_) w.f64(m2);
}

bool CalibrationProfile::load(persist::ByteReader& r) {
  std::uint64_t count = 0, n = 0;
  if (!r.u64(count) || !r.u64(n)) return false;
  if (n > r.remaining() / sizeof(double)) return false;
  std::vector<double> mean(static_cast<std::size_t>(n));
  std::vector<double> m2(static_cast<std::size_t>(n));
  for (double& v : mean)
    if (!r.f64(v)) return false;
  for (double& v : m2)
    if (!r.f64(v)) return false;
  count_ = count;
  mean_ = std::move(mean);
  m2_ = std::move(m2);
  return true;
}

// ---------------------------------------------------------------------------
// NormScreen

bool NormScreen::step_norms(const Lkg& lkg, std::uint64_t version,
                            const float* row, std::size_t n,
                            StepNorms& out) const {
  if (lkg.row.size() != n || n == 0) return false;
  if (version < lkg.version) return false;  // out-of-order submit
  out.discount = 1.0;
  if (version - lkg.version > cfg_.max_stale) {
    if (!cfg_.stale_decay) return false;
    // Stale reference: usable, but the evidence decays hyperbolically
    // with the lag. max_stale > 0 is guaranteed by the lag comparison
    // (lag > max_stale >= 0, and max_stale == 0 would decay everything).
    out.discount = static_cast<double>(cfg_.max_stale) /
                   static_cast<double>(version - lkg.version);
  }
  double sq = 0.0, linf = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d =
        static_cast<double>(row[i]) - static_cast<double>(lkg.row[i]);
    sq += d * d;
    linf = std::max(linf, std::abs(d));
  }
  out.l2 = std::sqrt(sq);
  out.linf = linf;
  return true;
}

void NormScreen::calibrate(const std::string& key, std::uint64_t version,
                           const float* row, std::size_t n) {
  OREV_CHECK(!key.empty(), "norm screen flows need a non-empty key");
  const std::uint32_t flow = flow_id(key);
  const Lkg* lkg = lkg_of(flow);
  StepNorms s;
  if (lkg != nullptr && step_norms(*lkg, version, row, n, s)) {
    ++steps_;
    const double dl2 = s.l2 - l2_mean_;
    l2_mean_ += dl2 / static_cast<double>(steps_);
    l2_m2_ += dl2 * (s.l2 - l2_mean_);
    const double dli = s.linf - linf_mean_;
    linf_mean_ += dli / static_cast<double>(steps_);
    linf_m2_ += dli * (s.linf - linf_mean_);
  }
  accept(flow, version, row, n);
}

bool NormScreen::has_reference(std::uint32_t flow, std::uint64_t version,
                               std::size_t n) const {
  const Lkg* lkg = lkg_of(flow);
  if (lkg == nullptr) return false;
  if (lkg->row.size() != n || n == 0) return false;
  if (version < lkg->version) return false;  // out-of-order submit
  return cfg_.stale_decay || version - lkg->version <= cfg_.max_stale;
}

double NormScreen::score(std::uint32_t flow, std::uint64_t version,
                         const float* row, std::size_t n) const {
  if (!ready()) return 0.0;
  const Lkg* lkg = lkg_of(flow);
  if (lkg == nullptr) return 0.0;
  StepNorms s;
  if (!step_norms(*lkg, version, row, n, s)) return 0.0;
  const double z_l2 =
      (s.l2 - l2_mean_) / std::sqrt(welford_var(l2_m2_, steps_));
  const double z_linf =
      (s.linf - linf_mean_) / std::sqrt(welford_var(linf_m2_, steps_));
  // Only steps *larger* than natural are suspicious; a perfectly still
  // flow is not an attack. Stale references contribute discounted
  // evidence (discount is 1 for a fresh reference).
  return std::max(0.0, std::max(z_l2, z_linf)) * s.discount;
}

double NormScreen::review_score(std::uint32_t flow, const float* row,
                                std::size_t n) const {
  const Lkg* lkg = lkg_of(flow);
  if (!ready() || lkg == nullptr) return 0.0;
  // Score at the LKG's own version: the version/staleness guards exist
  // for in-order stream events, not for a retrospective distance query.
  return score(flow, lkg->version, row, n);
}

void NormScreen::accept(std::uint32_t flow, std::uint64_t version,
                        const float* row, std::size_t n) {
  if (n == 0) return;
  OREV_CHECK(flow < index_.size(), "norm screen flow id was never issued");
  if (flow >= lkg_.size()) lkg_.resize(index_.size());
  Lkg& lkg = lkg_[flow];
  if (!lkg.present) {
    lkg.present = true;
    ++present_;
  }
  lkg.version = version;
  lkg.row.assign(row, row + n);
}

// String-keyed calls: the empty key and unseen keys have no state.

bool NormScreen::has_reference(const std::string& key, std::uint64_t version,
                               std::size_t n) const {
  const std::uint32_t flow = index_.find(key);
  return flow != FlowIndex::kNone && has_reference(flow, version, n);
}

double NormScreen::score(const std::string& key, std::uint64_t version,
                         const float* row, std::size_t n) const {
  const std::uint32_t flow = index_.find(key);
  return flow == FlowIndex::kNone ? 0.0 : score(flow, version, row, n);
}

double NormScreen::review_score(const std::string& key, const float* row,
                                std::size_t n) const {
  const std::uint32_t flow = index_.find(key);
  return flow == FlowIndex::kNone ? 0.0 : review_score(flow, row, n);
}

void NormScreen::accept(const std::string& key, std::uint64_t version,
                        const float* row, std::size_t n) {
  if (key.empty() || n == 0) return;
  accept(flow_id(key), version, row, n);
}

void NormScreen::reset_flow(const std::string& key) {
  const std::uint32_t flow = index_.find(key);
  if (flow == FlowIndex::kNone || lkg_of(flow) == nullptr) return;
  lkg_[flow] = Lkg{};
  --present_;
}

void NormScreen::save(persist::ByteWriter& w) const {
  w.u64(cfg_.max_stale);
  w.u8(cfg_.stale_decay ? 1 : 0);
  w.u64(steps_);
  w.f64(l2_mean_);
  w.f64(l2_m2_);
  w.f64(linf_mean_);
  w.f64(linf_m2_);
  w.u64(present_);
  for (const std::uint32_t flow : index_.sorted()) {
    const Lkg* lkg = lkg_of(flow);
    if (lkg == nullptr) continue;
    w.str(index_.key(flow));
    w.u64(lkg->version);
    w.u64(lkg->row.size());
    w.f32s(lkg->row);
  }
}

bool NormScreen::load(persist::ByteReader& r) {
  NormScreenConfig cfg;
  std::uint64_t steps = 0, flows = 0;
  std::uint8_t decay = 0;
  double l2_mean = 0, l2_m2 = 0, linf_mean = 0, linf_m2 = 0;
  if (!r.u64(cfg.max_stale) || !r.u8(decay) || !r.u64(steps) ||
      !r.f64(l2_mean) || !r.f64(l2_m2) || !r.f64(linf_mean) ||
      !r.f64(linf_m2) || !r.u64(flows))
    return false;
  cfg.stale_decay = decay != 0;
  NormScreen loaded(cfg);
  for (std::uint64_t i = 0; i < flows; ++i) {
    std::string key;
    std::uint64_t version = 0, len = 0;
    if (!r.str(key) || !r.u64(version) || !r.u64(len)) return false;
    if (len > r.remaining() / sizeof(float)) return false;
    std::vector<float> row(static_cast<std::size_t>(len));
    if (!r.f32s(row)) return false;
    // A repeated key keeps its first record (map emplace semantics).
    const std::uint32_t flow = loaded.flow_id(key);
    if (loaded.lkg_of(flow) != nullptr) continue;
    if (flow >= loaded.lkg_.size()) loaded.lkg_.resize(loaded.index_.size());
    loaded.lkg_[flow] = Lkg{true, version, std::move(row)};
    ++loaded.present_;
  }
  loaded.steps_ = steps;
  loaded.l2_mean_ = l2_mean;
  loaded.l2_m2_ = l2_m2;
  loaded.linf_mean_ = linf_mean;
  loaded.linf_m2_ = linf_m2;
  *this = std::move(loaded);
  return true;
}

// ---------------------------------------------------------------------------
// EnsembleDisagreement

EnsembleDisagreement::EnsembleDisagreement(nn::Model sibling)
    : sibling_(std::move(sibling)) {
  sibling_.set_inference_only(true);
}

double sibling_disbelief(const float* logits, int classes, int pred) {
  if (pred < 0 || pred >= classes) return 1.0;
  // nn::softmax_t at T = 1 (x / 1.0f == x exactly): float max and
  // exponentials, double denominator, probability rounded to float.
  float row_max = -std::numeric_limits<float>::infinity();
  for (int j = 0; j < classes; ++j) row_max = std::max(row_max, logits[j]);
  double denom = 0.0;
  float e_pred = 0.0f;
  for (int j = 0; j < classes; ++j) {
    const float e = std::exp(logits[j] - row_max);
    if (j == pred) e_pred = e;
    denom += e;
  }
  return 1.0 - static_cast<double>(static_cast<float>(e_pred / denom));
}

double EnsembleDisagreement::score(const nn::Tensor& input, int primary_pred) {
  const int classes = sibling_.num_classes();
  if (primary_pred < 0 || primary_pred >= classes) return 1.0;
  return sibling_disbelief(sibling_.logits_one(input).raw(), classes,
                           primary_pred);
}

// ---------------------------------------------------------------------------
// FineTuneQueue

FineTuneQueue::FineTuneQueue(int capacity) : capacity_(std::max(capacity, 1)) {}

bool FineTuneQueue::push(const nn::Tensor& sample, int label) {
  if (full()) {
    ++dropped_;
    return false;
  }
  items_.push_back(Item{sample, label});
  return true;
}

bool FineTuneQueue::push(nn::Tensor&& sample, int label) {
  if (full()) {
    ++dropped_;
    return false;
  }
  items_.push_back(Item{std::move(sample), label});
  return true;
}

FineTuneQueue::Batch FineTuneQueue::batch() const {
  Batch out;
  if (items_.empty()) return out;
  const nn::Shape& sample_shape = items_.front().sample.shape();
  nn::Shape batch_shape;
  batch_shape.push_back(static_cast<int>(items_.size()));
  batch_shape.insert(batch_shape.end(), sample_shape.begin(),
                     sample_shape.end());
  out.x = nn::Tensor(batch_shape);
  out.y.reserve(items_.size());
  int i = 0;
  for (const Item& item : items_) {
    out.x.set_batch(i++, item.sample);
    out.y.push_back(item.label);
  }
  return out;
}

void FineTuneQueue::save(persist::ByteWriter& w) const {
  w.i32(capacity_);
  w.u64(dropped_);
  w.u64(items_.size());
  for (const Item& item : items_) {
    w.i32(item.label);
    nn::write_tensor(w, item.sample);
  }
}

bool FineTuneQueue::load(persist::ByteReader& r) {
  std::int32_t capacity = 0;
  std::uint64_t dropped = 0, n = 0;
  if (!r.i32(capacity) || !r.u64(dropped) || !r.u64(n) || capacity < 1)
    return false;
  if (n > static_cast<std::uint64_t>(capacity)) return false;
  std::deque<Item> items;
  for (std::uint64_t i = 0; i < n; ++i) {
    Item item;
    if (!r.i32(item.label)) return false;
    if (!nn::read_tensor(r, item.sample).ok()) return false;
    items.push_back(std::move(item));
  }
  capacity_ = capacity;
  dropped_ = dropped;
  items_ = std::move(items);
  return true;
}

nn::TrainReport harden(nn::Model& victim, const FineTuneQueue& queue,
                       const nn::TrainConfig& cfg) {
  OREV_CHECK(!victim.inference_only(),
             "harden() needs a trainable model — clone the served one");
  if (queue.empty()) return nn::TrainReport{};
  const FineTuneQueue::Batch b = queue.batch();
  nn::Trainer trainer(cfg);
  return trainer.fit(victim, b.x, b.y, b.x, b.y);
}

nn::Model harden_candidate(const nn::Model& served, const FineTuneQueue& queue,
                           const nn::TrainConfig& cfg, nn::TrainReport* report,
                           const nn::Tensor* replay_x,
                           const std::vector<int>* replay_y) {
  nn::Model candidate = served.clone();
  candidate.set_inference_only(false);
  nn::TrainReport rep;
  if (replay_x != nullptr && !queue.empty()) {
    OREV_CHECK(replay_x->rank() >= 2 && replay_y != nullptr &&
                   replay_y->size() ==
                       static_cast<std::size_t>(replay_x->dim(0)),
               "harden_candidate replay labels must pair 1:1 with "
               "[m, ...sample] replay rows");
    // Clean-replay mix: quarantined points first (flag order), then the
    // anchor rows — one deterministic batch that trains local robustness
    // without letting the attack points own the loss.
    const FineTuneQueue::Batch b = queue.batch();
    const int qn = b.x.dim(0);
    const int rn = replay_x->dim(0);
    nn::Shape shape = b.x.shape();
    shape[0] = qn + rn;
    nn::Tensor x(shape);
    std::vector<int> y;
    y.reserve(static_cast<std::size_t>(qn + rn));
    for (int i = 0; i < qn; ++i) {
      x.set_batch(i, b.x.slice_batch(i));
      y.push_back(b.y[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < rn; ++i) {
      x.set_batch(qn + i, replay_x->slice_batch(i));
      y.push_back((*replay_y)[static_cast<std::size_t>(i)]);
    }
    nn::Trainer trainer(cfg);
    rep = trainer.fit(candidate, x, y, x, y);
  } else {
    rep = harden(candidate, queue, cfg);
  }
  if (report != nullptr) *report = rep;
  // Hand back ready to serve: the engine's gate probes (and replicas)
  // expect an inference-locked model.
  candidate.set_inference_only(true);
  return candidate;
}

}  // namespace orev::defense
