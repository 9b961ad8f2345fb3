#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

#include "util/check.hpp"

// ------------------------------------------------------- allocation probe
//
// Counts every heap allocation in the process, as bench_cityscale's
// g_allocs does, so the loop can report allocations per indication inside
// the running pipeline. Relaxed atomics: the count only has to not tear
// under citysim's and the serve replicas' worker threads.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

Tracer* g_tracer = nullptr;
bool g_wrap_apps = false;
std::uint64_t g_app_allocs = 0;
std::uint64_t g_deliver_allocs = 0;
std::uint64_t g_request = 0;

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finaliser over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------ statistics

double percentile(std::vector<double>& v, double pct) {
  OREV_CHECK(!v.empty(), "percentile of an empty sample");
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool resolvable(std::size_t n, double pct) {
  return static_cast<double>(n) * (100.0 - pct) / 100.0 >= 10.0;
}

// ---------------------------------------------------------------- report

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},         {"ind_per_s", "1/s"},
    {"ctrl_p50_us", "us"},    {"ctrl_p90_us", "us"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics every traced run reports.
const std::vector<MetricDef> kPerLayer = {
    {"citysim.events", "count"},
    {"citysim.reports", "count"},
    {"citysim.self_ms_per_epoch", "ms"},
    {"citysim.t1_over_t4", "ratio"},
    {"oran.deliver_self_us.p50", "us"},
    {"oran.deliver_self_us.p99", "us"},
    {"oran.decode_ns.p50", "ns"},
    {"oran.allocs_per_deliver", "count"},
    {"oran.loop_allocs_per_ind", "count"},
    {"oran.sdl_writes_per_ind", "count"},
    {"oran.sdl_reads_per_ind", "count"},
    {"oran.frames_rejected", "count"},
    {"oran.controls_dropped", "count"},
    {"apps.on_indication_us.p50", "us"},
    {"apps.on_indication_us.p99", "us"},
    {"apps.allocs_per_ind", "count"},
    {"apps.failsafe_controls", "count"},
    {"apps.serve_shed", "count"},
    {"apps.serve_quarantined", "count"},
    {"apps.serve_released", "count"},
    {"serve.submit_us.p50", "us"},
    {"serve.submit_us.p99", "us"},
    {"serve.batches", "count"},
    {"serve.occupancy_mean", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.degraded_syncs", "count"},
    {"serve.rejected", "count"},
    {"serve.plan_us_per_row", "us"},
    {"serve.int8_us_per_row", "us"},
    {"serve.int8_activated", "count"},
    {"serve.t1_over_t4", "ratio"},
    {"defense.screen_us_per_row", "us"},
    {"defense.review_ms_per_pass", "ms"},
    {"defense.screened", "count"},
    {"defense.flagged", "count"},
    {"defense.released", "count"},
    {"defense.confirmed", "count"},
    {"defense.review_passes", "count"},
    {"defense.release_ratio", "ratio"},
    {"defense.attack_pass_rate", "ratio"},
    {"defense.clean_quarantine_rate", "ratio"},
    {"attack.campaign_s", "s"},
    {"attack.query_s", "s"},
    {"attack.victim_queries", "count"},
    {"attack.probe_retries", "count"},
    {"attack.clone_s", "s"},
    {"attack.clone_accuracy", "ratio"},
    {"attack.uap_s", "s"},
    {"attack.uap_passes", "count"},
    {"attack.perturb_p50_ms", "ms"},
    {"attack.perturb_p99_ms", "ms"},
    {"attack.victim_asr", "ratio"},
    {"nn.train_samples_per_s", "1/s"},
    {"nn.epochs_run", "count"},
    {"nn.grad_ms_per_sample", "ms"},
    {"obs.trace_overhead_frac", "ratio"},
};

}  // namespace

void zero_layer_metrics(Report& r) {
  for (const MetricDef& d : kPerLayer) r.set(d.name, 0.0);
}

void Report::set(const std::string& name, double value) {
  bool known = false;
  for (const std::vector<MetricDef>* defs : {&kEndToEnd, &kPerLayer})
    for (const MetricDef& d : *defs) known = known || name == d.name;
  OREV_CHECK(known, "unknown metric " + name);
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics_.push_back(Metric{name, value});
}

void Report::check(bool ok, const std::string& what) {
  std::printf("[check] %s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) correct_ = false;
}

std::string Report::json(bool trace) {
  const std::vector<MetricDef>& defs = trace ? kPerLayer : kEndToEnd;
  std::string out = "{";
  std::string body;
  for (const MetricDef& d : defs) {
    const Metric* m = nullptr;
    for (const Metric& x : metrics_)
      if (x.name == d.name) m = &x;
    if (m == nullptr || !std::isfinite(m->value)) {
      check(false, std::string("metric reported: ") + d.name);
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", d.name, m->value, d.unit);
    body += buf;
  }
  char head[160];
  std::snprintf(head, sizeof head,
                "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(
                    std::max<std::uint64_t>(attempted, 1)),
                static_cast<unsigned long long>(failed));
  out += head;
  out += "\"metrics\": {" + body + "}}";
  return out;
}

// ----------------------------------------------------------------- spans

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
  stack_.reserve(64);
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t request) {
  if (full()) return kNone;
  const std::uint32_t id = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = stack_.empty() ? kNone : stack_.back();
  spans_.push_back(Span{name, now_ns(), 0, parent, request});
  stack_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id].end_ns = now_ns();
  // Spans close in LIFO order on the driving thread.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Tracer::duration_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.end_ns != 0 && name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

std::vector<double> Tracer::self_us(std::string_view name) const {
  // Children of one span never overlap (one recording thread), so the
  // time they cover is the sum of their durations.
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent != kNone && s.end_ns != 0)
      child_ns[s.parent] += s.end_ns - s.start_ns;
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0 || name != s.name) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                  1e-3);
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    std::snprintf(
        buf, sizeof buf,
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
        "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%llu,"
        "\"start_ns\":%llu,\"end_ns\":%llu}}",
        i == 0 ? "" : ",", s.name,
        static_cast<double>(s.start_ns - t0) * 1e-3,
        static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
        s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
        static_cast<unsigned long long>(s.request),
        static_cast<unsigned long long>(s.start_ns),
        static_cast<unsigned long long>(s.end_ns));
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

// ------------------------------------------------------------ loop stats

LoopStats::LoopStats(double slice_seconds)
    : slice_ns_(static_cast<std::uint64_t>(slice_seconds * 1e9)) {
  current_.reserve(1u << 18);
}

void LoopStats::start(std::uint64_t t_ns) {
  running_ = true;
  slice_start_ = t_ns;
  if (first_ns_ == 0) first_ns_ = t_ns;
}

void LoopStats::record(std::uint64_t t_ns, std::uint64_t latency_ns) {
  if (!running_) return;
  if (t_ns >= slice_start_ + slice_ns_) close_slice(t_ns);
  current_.push_back(static_cast<double>(latency_ns) * 1e-3);
  ++total_;
}

void LoopStats::stop(std::uint64_t t_ns) {
  if (!running_) return;
  close_slice(t_ns);
  running_ = false;
  last_ns_ = t_ns;
}

void LoopStats::close_slice(std::uint64_t t_ns) {
  Slice s{static_cast<double>(t_ns - slice_start_) * 1e-9, current_.size(),
          0.0, -1.0, -1.0};
  if (!current_.empty()) {
    s.p50_us = percentile(current_, 50.0);
    if (resolvable(current_.size(), 90.0))
      s.p90_us = percentile(current_, 90.0);
    if (resolvable(current_.size(), 99.0))
      s.p99_us = percentile(current_, 99.0);
  }
  if (s.seconds > 0.0) slices_.push_back(s);
  current_.clear();
  slice_start_ = t_ns;
}

double LoopStats::seconds() const {
  return static_cast<double>(last_ns_ - first_ns_) * 1e-9;
}

std::vector<const LoopStats::Slice*> LoopStats::usable() const {
  std::vector<const Slice*> out;
  const double min_s = 0.5 * static_cast<double>(slice_ns_) * 1e-9;
  for (const Slice& s : slices_)
    if (s.seconds >= min_s && s.n > 0) out.push_back(&s);
  if (out.empty())
    for (const Slice& s : slices_)
      if (s.n > 0) out.push_back(&s);
  return out;
}

double LoopStats::ind_per_s() const {
  std::vector<double> v;
  for (const Slice* s : usable())
    v.push_back(static_cast<double>(s->n) / s->seconds);
  return median(v);
}

double LoopStats::p50_us() const {
  std::vector<double> v;
  for (const Slice* s : usable()) v.push_back(s->p50_us);
  return median(v);
}

double LoopStats::p90_us() const {
  std::vector<double> v;
  for (const Slice* s : usable())
    if (s->p90_us >= 0.0) v.push_back(s->p90_us);
  return median(v);
}

double LoopStats::p99_us() const {
  std::vector<double> v;
  for (const Slice* s : usable())
    if (s->p99_us >= 0.0) v.push_back(s->p99_us);
  return median(v);
}

void LoopStats::print(const char* label) const {
  const std::size_t used = usable().size();
  std::printf(
      "[loop] %s: %llu answered in %.3f s over %zu slices (%zu used, about "
      "%llu samples each); median slice: ind_per_s=%.1f  ctrl_p50_us=%.2f  "
      "ctrl_p90_us=%.2f  ctrl_p99_us=%.2f\n",
      label, static_cast<unsigned long long>(total_), seconds(),
      slices_.size(), used,
      static_cast<unsigned long long>(used == 0 ? 0 : total_ / used),
      ind_per_s(), p50_us(), p90_us(), p99_us());
  std::printf("[loop] %s slices (ind_per_s/p50/p90/p99):", label);
  for (const Slice& s : slices_)
    std::printf(" %.0f/%.1f/%.1f/%.1f", static_cast<double>(s.n) / s.seconds,
                s.p50_us, s.p90_us, s.p99_us);
  std::printf("\n");
}

// --------------------------------------------------------------- E2 node

void BenchE2Node::watch(const orev::apps::IcXApp* app) {
  app_ = app;
  reset();
}

void BenchE2Node::reset() {
  next_ = head_ = releases_ = unmatched_ = 0;
  for (std::uint64_t& c : counts_) c = 0;
  if (app_ != nullptr) {
    seen_released_ = app_->serve_released();
    seen_quarantined_ = app_->serve_quarantined();
    seen_failsafe_ = app_->serve_shed() + app_->failsafe_controls();
  }
  digest_prefix_ = ~std::uint64_t{0};
  digest_.reset();
  digest_hex_.clear();
}

std::uint64_t BenchE2Node::begin() {
  OREV_CHECK(next_ - head_ < kRing, "too many unanswered indications");
  starts_[next_ % kRing] = now_ns();
  g_request = next_;
  return next_++;
}

void BenchE2Node::handle_control(const orev::oran::E2Control& control) {
  const std::uint64_t t = now_ns();
  Answer kind = Answer::kPrediction;
  if (app_->serve_released() > seen_released_) {
    kind = Answer::kRelease;
  } else if (app_->serve_quarantined() > seen_quarantined_) {
    kind = Answer::kQuarantine;
  } else if (app_->serve_shed() + app_->failsafe_controls() > seen_failsafe_) {
    kind = Answer::kFailsafe;
  }
  seen_released_ = app_->serve_released();
  seen_quarantined_ = app_->serve_quarantined();
  seen_failsafe_ = app_->serve_shed() + app_->failsafe_controls();
  ++counts_[static_cast<int>(kind)];

  std::uint64_t idx = ~std::uint64_t{0};
  if (kind == Answer::kRelease) {
    ++releases_;
  } else if (head_ == next_) {
    ++unmatched_;
    return;
  } else {
    idx = head_++;
    if (stats != nullptr) stats->record(t, t - starts_[idx % kRing]);
    if (idx < digest_prefix_) {
      const std::uint8_t rec[3] = {
          static_cast<std::uint8_t>(kind),
          static_cast<std::uint8_t>(control.action),
          static_cast<std::uint8_t>(control.fixed_mcs_index)};
      digest_.update(rec, sizeof rec);
    }
  }
  if (on_answer) on_answer(idx, kind, control);
}

std::string BenchE2Node::decision_digest() {
  if (digest_hex_.empty()) digest_hex_ = orev::Sha256::to_hex(digest_.finish());
  return digest_hex_;
}

// ----------------------------------------------------------- RIC fixture

namespace {

/// Forwarding xApp of the traced run: times the wrapped app's
/// on_indication and counts the allocations made inside it.
class TimedXApp : public orev::oran::XApp {
 public:
  TimedXApp(std::shared_ptr<orev::oran::XApp> inner, const char* span_name)
      : inner_(std::move(inner)), span_name_(span_name) {}
  void on_indication(const orev::oran::E2Indication& ind,
                     orev::oran::NearRtRic& ric) override {
    if (g_tracer == nullptr) {
      inner_->on_indication(ind, ric);
      return;
    }
    ScopedSpan span(span_name_, g_request);
    const std::uint64_t a0 = allocations();
    inner_->on_indication(ind, ric);
    g_app_allocs += allocations() - a0;
  }

 private:
  std::shared_ptr<orev::oran::XApp> inner_;
  const char* span_name_;
};

}  // namespace

RicFixture::RicFixture() {
  using orev::oran::Permission;
  rbac.define_role("ic-xapp", {Permission{"telemetry/*", true, false},
                               Permission{"decisions", true, true},
                               Permission{"defense-alerts", true, true},
                               Permission{"e2/control", false, true}});
  // The §3.1 insider: reads and rewrites telemetry, reads decisions.
  rbac.define_role("rogue-xapp", {Permission{"telemetry/*", true, true},
                                  Permission{"decisions", true, false}});
}

void RicFixture::add(std::shared_ptr<orev::oran::XApp> app,
                     const std::string& name, const std::string& role,
                     int priority, const char* span_name) {
  orev::oran::AppDescriptor d;
  d.name = name;
  d.version = "1";
  d.vendor = "perfbench";
  d.payload = name;
  d.requested_role = role;
  const std::string id = svc.onboard(op.package(d)).app_id;
  ids.emplace_back(name, id);
  if (!g_wrap_apps) {
    OREV_CHECK(ric.register_xapp(std::move(app), id, priority),
               "xApp registration failed: " + name);
    return;
  }
  OREV_CHECK(identity_ric.register_xapp(app, id, priority),
             "xApp registration failed: " + name);
  OREV_CHECK(ric.register_xapp(
                 std::make_shared<TimedXApp>(std::move(app), span_name), id,
                 priority),
             "xApp registration failed: " + name);
}

std::string RicFixture::app_id_of(const std::string& name) const {
  for (const auto& [n, id] : ids)
    if (n == name) return id;
  return {};
}

}  // namespace perfbench
