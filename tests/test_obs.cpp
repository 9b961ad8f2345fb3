// Observability-layer lockdown: metric correctness (counters, gauges,
// latency-sketch statistics and quantile clamping), registry get-or-create
// stability, exactness of lock-striped counters and sketches under the
// thread pool, well-formedness of both JSON exports (metrics report and
// Chrome trace), the pipelines' latency metrics landing under "sketches",
// and the disabled-mode no-op contract for tracing.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "oran/near_rt_ric.hpp"
#include "oran/onboarding.hpp"
#include "oran/y1.hpp"
#include "serve/slo.hpp"
#include "util/fault/retry.hpp"
#include "util/obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace orev {
namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(util::num_threads()) {}
  ~ThreadGuard() { util::set_num_threads(saved_); }

 private:
  int saved_;
};

/// Restore the tracing switch (tests flip it on and off).
class TraceGuard {
 public:
  TraceGuard() : saved_(obs::trace_enabled()) {}
  ~TraceGuard() { obs::set_trace_enabled(saved_); }

 private:
  bool saved_;
};

// ------------------------------------------------- mini JSON validator
//
// Strict-enough recursive-descent JSON checker: objects, arrays, strings
// with escapes, numbers, true/false/null. Returns true iff the whole
// input is exactly one valid JSON value. No external dependency needed.

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!peek(':')) return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(',')) { ++pos_; continue; }
      if (peek('}')) { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(',')) { ++pos_; continue; }
      if (peek(']')) { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (!peek('"')) return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0)
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek('-')) ++pos_;
    if (!digits()) return false;
    if (peek('.')) {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek('e') || peek('E')) {
      ++pos_;
      if (peek('+') || peek('-')) ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }

  bool peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(JsonValidatorSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonValidator(R"({"a": [1, -2.5e3, "x\n"], "b": null})").valid());
  EXPECT_FALSE(JsonValidator(R"({"a": })").valid());
  EXPECT_FALSE(JsonValidator(R"({"a": 1,})").valid());
  EXPECT_FALSE(JsonValidator(R"([1, 2)").valid());
  EXPECT_FALSE(JsonValidator("{} extra").valid());
  EXPECT_FALSE(JsonValidator(R"("unterminated)").valid());
}

// ------------------------------------------------------------- counters

TEST(ObsCounter, IncrementAndReset) {
  obs::Counter& c = obs::counter("test.counter.basic");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, ExactUnderConcurrentIncrements) {
  ThreadGuard guard;
  util::set_num_threads(4);
  obs::Counter& c = obs::counter("test.counter.concurrent");
  c.reset();
  constexpr std::int64_t kN = 20000;
  util::parallel_for(0, kN, 64, [&](std::int64_t) { c.inc(); });
  // Lock striping must lose nothing: the sum over stripes is exact at
  // quiescence regardless of which worker incremented which stripe.
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kN));
}

TEST(ObsGauge, SetAddValue) {
  obs::Gauge& g = obs::gauge("test.gauge.basic");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.add(2.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.75);
  g.add(-3.75);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// ------------------------------------------------- latency distributions
//
// ObsHistogram.* pin the latency-distribution contract every timed call
// site relies on. Its one implementation is SketchMetric: exact count,
// sum, min and max next to relative-error quantiles.

TEST(ObsHistogram, SnapshotStatisticsExact) {
  obs::SketchMetric& m = obs::sketch("test.hist.stats");
  m.reset();
  for (int i = 1; i <= 100; ++i) m.observe(static_cast<double>(i));
  const obs::QuantileSketch s = m.merged();
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  // Quantiles are bucket estimates within the relative-error bound, not
  // exact order statistics.
  EXPECT_LE(s.quantile(0.50), s.quantile(0.95));
  EXPECT_LE(s.quantile(0.95), s.quantile(0.99));
  EXPECT_GE(s.quantile(0.50), s.min());
  EXPECT_LE(s.quantile(0.99), s.max());
  EXPECT_NEAR(s.quantile(0.50), 50.0, 50.0 * s.alpha());
}

TEST(ObsHistogram, PercentileClampedToObservedRange) {
  obs::SketchMetric& m = obs::sketch("test.hist.clamp");
  m.reset();
  // All mass in one bucket: its midpoint estimate must still never escape
  // [min, max].
  for (int i = 0; i < 50; ++i) m.observe(3.3);
  const obs::QuantileSketch s = m.merged();
  EXPECT_DOUBLE_EQ(s.quantile(0.50), 3.3);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 3.3);
}

TEST(ObsHistogram, CountExactUnderConcurrentObserves) {
  ThreadGuard guard;
  util::set_num_threads(4);
  obs::SketchMetric& m = obs::sketch("test.hist.concurrent");
  m.reset();
  constexpr std::int64_t kN = 10000;
  util::parallel_for(0, kN, 64, [&](std::int64_t i) {
    m.observe(static_cast<double>(i % 7));
  });
  // Integer samples: every shard's sum and the merged sum are exact.
  double expected_sum = 0.0;
  for (std::int64_t i = 0; i < kN; ++i) expected_sum += double(i % 7);
  const obs::QuantileSketch s = m.merged();
  EXPECT_EQ(s.count(), static_cast<std::uint64_t>(kN));
  EXPECT_DOUBLE_EQ(s.sum(), expected_sum);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

// ------------------------------------------------------------- registry

TEST(ObsRegistry, GetOrCreateReturnsStableAddresses) {
  obs::Counter& a = obs::counter("test.registry.stable");
  obs::Counter& b = obs::counter("test.registry.stable");
  EXPECT_EQ(&a, &b);
  a.inc(7);
  obs::Registry::instance().reset_values();
  // reset_values zeroes in place: cached references stay valid and read 0.
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(&obs::counter("test.registry.stable"), &a);
}

TEST(ObsRegistry, JsonExportIsWellFormed) {
  obs::counter("test.export.counter").inc(3);
  obs::gauge("test.export.gauge").set(-1.25);
  obs::sketch("test.export.sketch").observe(2.0);
  const std::string json = obs::Registry::instance().to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("orev-metrics-v2"), std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("test.export.counter"), std::string::npos);
  EXPECT_NE(json.find("test.export.sketch"), std::string::npos);
}

class NopXApp : public oran::XApp {
 public:
  void on_indication(const oran::E2Indication& /*ind*/,
                     oran::NearRtRic& /*ric*/) override {}
};

/// True when `name` is a key of the report's "sketches" object (the last
/// section of to_json()).
bool exported_as_sketch(const std::string& json, const std::string& name) {
  const std::size_t section = json.find("\"sketches\": {");
  return section != std::string::npos &&
         json.find("\"" + name + "\": {", section) != std::string::npos;
}

TEST(ObsRegistry, PipelineLatencyMetricsExportAsSketches) {
  // Each metric is registered by its real call site, not by name here.
  oran::Rbac rbac;
  rbac.define_role("xapp-full", {oran::Permission{"telemetry/*", true, true},
                                 oran::Permission{"e2/control", false, true}});
  oran::Operator op("op", "sec");
  oran::OnboardingService svc(&op, &rbac);
  oran::AppDescriptor d;
  d.name = "obs";
  d.version = "1";
  d.vendor = "v";
  d.payload = "p";
  d.requested_role = "xapp-full";
  oran::NearRtRic ric(&rbac, &svc);  // its Sdl registers lock_wait_ns
  ric.register_xapp(std::make_shared<NopXApp>(),
                    svc.onboard(op.package(d)).app_id, 0);
  oran::E2Indication ind;
  ind.ran_node_id = "ran-1";
  ind.kind = oran::IndicationKind::kKpm;
  ind.payload = nn::Tensor({4}, 0.5f);
  ric.deliver_indication(ind);

  serve::SloStats slo("obstest", 1, serve::SloConfig{});
  slo.on_batch(8);

  oran::Y1Service y1(&op);
  y1.publish(oran::RaiReport{});

  int calls = 0;
  fault::retry_call(fault::RetryPolicy{}, 1, [&] {
    return ++calls < 2 ? fault::TryResult::kTransient : fault::TryResult::kOk;
  });

  {
    ThreadGuard guard;
    util::set_num_threads(4);
    util::parallel_for(0, 64, 1, [](std::int64_t) {});
  }

  const std::string json = obs::Registry::instance().to_json();
  for (const char* name :
       {"oran.xapp.dispatch_ms", "oran.sdl.lock_wait_ns",
        "serve.obstest.occupancy", "oran.y1.fanout_ms",
        "fault.retry.backoff_ms", "pool.task_ms", "pool.region_ms"})
    EXPECT_TRUE(exported_as_sketch(json, name)) << name;
  EXPECT_GE(obs::sketch("oran.xapp.dispatch_ms").count(), 1u);
  EXPECT_GE(obs::sketch("serve.obstest.occupancy").count(), 1u);
}

TEST(ObsRegistry, PrometheusExportSanitizesNames) {
  obs::counter("test.export.counter").inc();
  const std::string text = obs::Registry::instance().to_prometheus();
  // Dots become underscores, the orev_ prefix is applied, and each metric
  // carries a TYPE line.
  EXPECT_NE(text.find("orev_test_export_counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_EQ(text.find("test.export.counter"), std::string::npos);
}

// -------------------------------------------------------------- tracing

TEST(ObsTrace, DisabledModeRecordsNothing) {
  TraceGuard guard;
  obs::set_trace_enabled(false);
  obs::trace_clear();
  {
    OREV_TRACE_SPAN("should.not.record");
    OREV_TRACE_SPAN_CAT("nor.this", "test");
  }
  EXPECT_TRUE(obs::trace_snapshot().empty());
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(ObsTrace, RecordsNestedSpansWithNames) {
  TraceGuard guard;
  obs::set_trace_enabled(true);
  obs::trace_clear();
  {
    OREV_TRACE_SPAN_CAT("outer", "test");
    { OREV_TRACE_SPAN_CAT("inner", "test"); }
  }
  const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at destruction: inner completes first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  // The inner interval nests within the outer one.
  EXPECT_GE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[0].ts_ns + events[0].dur_ns,
            events[1].ts_ns + events[1].dur_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(ObsTrace, SpanToggleIsCapturedAtConstruction) {
  TraceGuard guard;
  obs::set_trace_enabled(false);
  obs::trace_clear();
  obs::set_trace_enabled(true);
  {
    OREV_TRACE_SPAN("flipped");
    // Disabling mid-span must not lose the already-active span...
    obs::set_trace_enabled(false);
  }
  // ...and spans constructed while disabled stay silent.
  { OREV_TRACE_SPAN("silent"); }
  const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "flipped");
}

TEST(ObsTrace, ChromeJsonIsWellFormed) {
  TraceGuard guard;
  obs::set_trace_enabled(true);
  obs::trace_clear();
  {
    OREV_TRACE_SPAN_CAT("alpha", "test");
    { OREV_TRACE_SPAN_CAT("beta \"quoted\"\\slash", "test"); }
  }
  const std::string json = obs::trace_to_chrome_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("alpha"), std::string::npos);
}

TEST(ObsTrace, ConcurrentSpansAllRecorded) {
  ThreadGuard tguard;
  TraceGuard guard;
  util::set_num_threads(4);
  obs::set_trace_enabled(true);
  obs::trace_clear();
  constexpr std::int64_t kN = 500;
  util::parallel_for(0, kN, 8,
                     [&](std::int64_t) { OREV_TRACE_SPAN("worker.span"); });
  const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  // The pool's own instrumentation may add pool.* spans on top of ours.
  std::int64_t ours = 0;
  std::set<std::uint32_t> tids;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "worker.span") ++ours;
    tids.insert(e.tid);
  }
  EXPECT_EQ(ours, kN);
  EXPECT_GE(tids.size(), 1u);
}

// --------------------------------------------------------------- timers

TEST(ObsTimer, MonotoneAndLaps) {
  obs::WallTimer t;
  const std::uint64_t a = t.elapsed_ns();
  const std::uint64_t lap1 = t.lap_ns();
  const std::uint64_t b = t.elapsed_ns();
  EXPECT_GE(b, a);
  EXPECT_GE(lap1, a);
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LE(t.elapsed_ns(), b + 1000000000ull);  // sanity: reset re-anchors
}

TEST(ObsTimer, ScopedTimerObservesIntoSketch) {
  obs::SketchMetric& m = obs::sketch("test.scoped.timer");
  m.reset();
  { const obs::ScopedTimerMs t(m); }
  EXPECT_EQ(m.count(), 1u);
  EXPECT_GE(m.merged().min(), 0.0);
}

}  // namespace
}  // namespace orev
