// Observability v2 lockdown (DESIGN.md §13): relative-error quantile
// sketches (accuracy bound, exact merge under randomized shard orders),
// the causal span log (parent integrity, deterministic chrome export,
// ring drop accounting), the flight recorder (deterministic reports,
// file output), multi-window SLO burn rates, and the Prometheus
// exposition fixes (HELP lines, name sanitization, sketch summaries).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "serve/burnrate.hpp"
#include "util/check.hpp"
#include "util/obs/obs.hpp"

namespace orev {
namespace {

/// Restore the causal switch and clear the ring around each test.
class CausalGuard {
 public:
  CausalGuard() : saved_(obs::causal_enabled()) { obs::causal_clear(); }
  ~CausalGuard() {
    obs::set_causal_enabled(saved_);
    obs::causal_clear();
  }

 private:
  bool saved_;
};

// ------------------------------------------------------- QuantileSketch

TEST(QuantileSketch, RelativeErrorBoundHolds) {
  obs::QuantileSketch s(0.01);
  for (int i = 1; i <= 10000; ++i) s.observe(static_cast<double>(i));
  EXPECT_EQ(s.count(), 10000u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10000.0);
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double truth = std::ceil(q * 10000.0);  // exact order statistic
    const double est = s.quantile(q);
    // The DDSketch guarantee is alpha-relative; allow 2*alpha for the
    // rank-vs-value discretization at the bucket edge.
    EXPECT_NEAR(est, truth, 0.02 * truth) << "q=" << q;
  }
}

TEST(QuantileSketch, QuantilesMonotoneAndClamped) {
  obs::QuantileSketch s(0.02);
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(3.0, 1.5);
  for (int i = 0; i < 5000; ++i) s.observe(dist(rng));
  double prev = s.min();
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double v = s.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_GE(v, s.min());
    EXPECT_LE(v, s.max());
    prev = v;
  }
}

TEST(QuantileSketch, ZeroAndNegativeLandInZeroBucket) {
  obs::QuantileSketch s(0.01);
  s.observe(0.0);
  s.observe(-5.0);
  s.observe(100.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  // Two of three observations are "~0": the median resolves to the zero
  // bucket (clamped into the observed envelope), the max to the tail.
  EXPECT_LE(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
}

TEST(QuantileSketch, NonFiniteObservationsHaveDefinedEffects) {
  const double inf = std::numeric_limits<double>::infinity();
  obs::QuantileSketch s(0.01);
  s.observe(1.0);
  s.observe(std::numeric_limits<double>::quiet_NaN());  // no rank: ignored
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.sum(), 1.0);
  EXPECT_EQ(s.bucket_count(), 1u);

  s.observe(inf);   // counted in the top bucket
  s.observe(-inf);  // counted in the zero bucket
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.max(), inf);
  EXPECT_EQ(s.min(), -inf);
  EXPECT_EQ(s.bucket_count(), 3u);
  EXPECT_EQ(s.quantile(1.0), inf);
  EXPECT_LE(s.quantile(0.0), 0.0);
  EXPECT_NEAR(s.quantile(0.5), 1.0, 0.02);

  // Round trip and merge keep the clamped bucket.
  persist::ByteWriter w;
  s.save(w);
  obs::QuantileSketch loaded;
  persist::ByteReader r(w.buffer());
  ASSERT_TRUE(loaded.load(r));
  EXPECT_EQ(loaded.quantile(1.0), inf);
  obs::QuantileSketch merged(0.01);
  merged.merge(s);
  merged.merge(loaded);
  EXPECT_EQ(merged.count(), 6u);
  EXPECT_EQ(merged.bucket_count(), 3u);

  // A log-index beyond int32 (tiny alpha, huge value) is clamped too: a
  // defined bucket, its estimate kept inside the [min, max] envelope.
  obs::QuantileSketch fine(1e-12);
  fine.observe(1e300);
  fine.observe(1e-8);
  EXPECT_EQ(fine.count(), 2u);
  EXPECT_EQ(fine.bucket_count(), 2u);
  EXPECT_GE(fine.quantile(1.0), fine.min());
  EXPECT_LE(fine.quantile(1.0), fine.max());
}

TEST(QuantileSketch, LoadCanonicalisesBucketOrder) {
  // Buckets written out of order, one index twice: the sketch keeps them
  // sorted with the later count, as a sorted map would have.
  obs::QuantileSketch ref(0.01);
  for (double v : {1.0, 2.0, 2.0, 5.0}) ref.observe(v);
  persist::ByteWriter w;
  w.f64(0.01);
  w.u64(4);
  w.u64(0);
  w.f64(ref.sum());
  w.f64(ref.min());
  w.f64(ref.max());
  w.u64(4);
  persist::ByteWriter canon;
  ref.save(canon);
  // Indices of 5.0, 1.0, 2.0 (a stale count), 2.0.
  const auto index = [](double v) {
    return static_cast<std::int32_t>(std::ceil(
        std::log(v) / std::log((1.0 + 0.01) / (1.0 - 0.01))));
  };
  w.i32(index(5.0));
  w.u64(1);
  w.i32(index(1.0));
  w.u64(1);
  w.i32(index(2.0));
  w.u64(7);
  w.i32(index(2.0));
  w.u64(2);
  obs::QuantileSketch loaded;
  persist::ByteReader r(w.buffer());
  ASSERT_TRUE(loaded.load(r));
  persist::ByteWriter again;
  loaded.save(again);
  EXPECT_EQ(again.buffer(), canon.buffer());
}

TEST(QuantileSketch, MergeAssociativeCommutativeUnderRandomShardOrders) {
  // The determinism contract's foundation: shard merge order never
  // changes the merged sketch. Build 8 shards of lognormal samples, merge
  // them in 20 random permutations (and one pairwise-tree order), and
  // demand identical count/sum/quantiles every time.
  constexpr int kShards = 8;
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(2.0, 1.0);
  std::vector<obs::QuantileSketch> shards(kShards, obs::QuantileSketch(0.01));
  for (int i = 0; i < kShards; ++i)
    for (int j = 0; j < 500 + 37 * i; ++j) shards[i].observe(dist(rng));

  auto merged_in = [&](const std::vector<int>& order) {
    obs::QuantileSketch out(0.01);
    for (const int i : order) out.merge(shards[static_cast<std::size_t>(i)]);
    return out;
  };
  std::vector<int> order(kShards);
  std::iota(order.begin(), order.end(), 0);
  const obs::QuantileSketch ref = merged_in(order);

  std::mt19937_64 shuffle_rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    const obs::QuantileSketch m = merged_in(order);
    EXPECT_EQ(m.count(), ref.count());
    EXPECT_EQ(m.bucket_count(), ref.bucket_count());
    EXPECT_DOUBLE_EQ(m.min(), ref.min());
    EXPECT_DOUBLE_EQ(m.max(), ref.max());
    for (const double q : {0.5, 0.95, 0.99, 0.999})
      EXPECT_DOUBLE_EQ(m.quantile(q), ref.quantile(q)) << "q=" << q;
  }

  // Associativity: ((a+b)+(c+d)) == (a+(b+(c+d))) — tree vs chain.
  obs::QuantileSketch ab(0.01), cd(0.01), tree(0.01), chain(0.01);
  ab.merge(shards[0]);
  ab.merge(shards[1]);
  cd.merge(shards[2]);
  cd.merge(shards[3]);
  tree.merge(ab);
  tree.merge(cd);
  for (int i = 3; i >= 0; --i) chain.merge(shards[static_cast<std::size_t>(i)]);
  EXPECT_EQ(tree.count(), chain.count());
  for (const double q : {0.5, 0.99})
    EXPECT_DOUBLE_EQ(tree.quantile(q), chain.quantile(q));
}

TEST(QuantileSketch, EveryQuantileIsTheBucketOfTheRankedObservation) {
  // quantile(q) is the bucket midpoint of the rank-ceil(q·n) observation
  // (zero bucket below kMinTrackable). Checked on a grid of q for a merged
  // and a checkpoint-loaded sketch, so the running bucket total behind the
  // top-down bucket walk is exercised on every path that builds it.
  const double alpha = 0.01;
  const double gamma = (1.0 + alpha) / (1.0 - alpha);
  const double inv_log_gamma = 1.0 / std::log(gamma);
  std::mt19937_64 rng(11);
  std::lognormal_distribution<double> dist(0.0, 2.0);
  std::vector<double> values;
  obs::QuantileSketch a(alpha), b(alpha);
  for (int i = 0; i < 3000; ++i) {
    const double v = i % 10 == 0 ? 0.0 : dist(rng);
    values.push_back(v);
    (i % 3 == 0 ? b : a).observe(v);
  }
  obs::QuantileSketch merged(alpha);
  merged.merge(a);
  merged.merge(b);
  persist::ByteWriter w;
  merged.save(w);
  persist::ByteReader r(w.buffer());
  obs::QuantileSketch loaded;
  ASSERT_TRUE(loaded.load(r));

  std::sort(values.begin(), values.end());
  const double lo = values.front(), hi = values.back();
  for (int k = 0; k <= 1000; ++k) {
    const double q = k / 1000.0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(values.size()))));
    const double v = values[rank - 1];
    double want = std::clamp(0.0, lo, hi);
    if (v >= 1e-9) {
      const double idx = std::ceil(std::log(v) * inv_log_gamma);
      want = std::clamp(2.0 * std::pow(gamma, idx) / (gamma + 1.0), lo, hi);
    }
    ASSERT_EQ(merged.quantile(q), want) << "q=" << q;
    ASSERT_EQ(loaded.quantile(q), want) << "q=" << q;
  }
}

TEST(QuantileSketch, ResetEmptiesEverything) {
  obs::QuantileSketch s(0.01);
  s.observe(3.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.bucket_count(), 0u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(QuantileSketch, RegistrySketchMetricMergesShards) {
  obs::SketchMetric& m = obs::sketch("test.sketch.registry", 0.01);
  m.reset();
  for (int i = 1; i <= 100; ++i) m.observe(static_cast<double>(i));
  const obs::QuantileSketch s = m.merged();
  EXPECT_EQ(s.count(), 100u);
  EXPECT_NEAR(s.quantile(0.5), 50.0, 2.0);
  // Same name returns the same instance; a different type must throw.
  EXPECT_EQ(&obs::sketch("test.sketch.registry"), &m);
  EXPECT_THROW(obs::counter("test.sketch.registry"), CheckError);
}

// ---------------------------------------------------------- CausalTrace

TEST(CausalTrace, DisabledModeRecordsNothingAndReturnsUntraced) {
  CausalGuard guard;
  obs::set_causal_enabled(false);
  const obs::TraceContext root =
      obs::causal_root(obs::derive_trace_id(obs::domains::kE2, 1), "e2.ind",
                       obs::lanes::kIndication, 1000);
  EXPECT_FALSE(root.valid());
  const obs::TraceContext child =
      obs::causal_child(root, "child", obs::lanes::kApp, 1000);
  EXPECT_FALSE(child.valid());
  EXPECT_EQ(obs::causal_size(), 0u);
}

TEST(CausalTrace, ParentChainValidatesAndExports) {
  CausalGuard guard;
  obs::set_causal_enabled(true);
  const std::uint64_t tid = obs::derive_trace_id(obs::domains::kE2, 7);
  const obs::TraceContext root =
      obs::causal_root(tid, "e2.indication", obs::lanes::kIndication, 1000);
  ASSERT_TRUE(root.valid());
  EXPECT_EQ(root.trace_id, tid);
  const obs::TraceContext dispatch =
      obs::causal_child(root, "dispatch.ic", obs::lanes::kDispatch, 1000);
  const obs::TraceContext admit =
      obs::causal_child(dispatch, "serve.admit", obs::lanes::kAdmit, 5);
  const obs::TraceContext done = obs::causal_child(
      admit, "serve.complete", obs::lanes::kComplete, 105, 0, admit.span_id);
  EXPECT_TRUE(done.valid());

  const std::vector<obs::CausalSpan> spans = obs::causal_snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans[0].name, "e2.indication");
  EXPECT_EQ(spans[0].parent_span_id, 0u);
  EXPECT_EQ(spans[1].parent_span_id, spans[0].span_id);
  EXPECT_EQ(spans[2].parent_span_id, spans[1].span_id);
  EXPECT_EQ(spans[3].parent_span_id, spans[2].span_id);
  EXPECT_EQ(spans[3].flow_from, spans[2].span_id);
  for (const obs::CausalSpan& s : spans) EXPECT_EQ(s.trace_id, tid);
  // Span ids strictly increase in record order.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_GT(spans[i].span_id, spans[i - 1].span_id);

  std::string why;
  EXPECT_TRUE(obs::causal_validate(&why)) << why;

  const std::string json = obs::causal_to_chrome_json();
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("serve.admit"), std::string::npos);
  // Cross-lane parent links render as flow ("s"/"f") pairs.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

TEST(CausalTrace, ExportIsByteIdenticalForIdenticalLogs) {
  CausalGuard guard;
  obs::set_causal_enabled(true);
  auto record = [] {
    obs::causal_clear();
    const obs::TraceContext root = obs::causal_root(
        obs::derive_trace_id(obs::domains::kApp, 3), "ps.decide",
        obs::lanes::kApp, 42);
    obs::causal_child(root, "serve.admit", obs::lanes::kAdmit, 43);
    return obs::causal_to_chrome_json();
  };
  const std::string a = record();
  const std::string b = record();
  // causal_clear() resets the span-id allocator, so a replayed scenario
  // exports byte-for-byte identically — the foundation of the trace
  // determinism contract.
  EXPECT_EQ(a, b);
}

TEST(CausalTrace, RingDropsOldestAndCountsThem) {
  CausalGuard guard;
  obs::set_causal_enabled(true);
  const std::size_t cap = obs::causal_capacity();
  const obs::TraceContext root = obs::causal_root(
      obs::derive_trace_id(obs::domains::kApp, 1), "root", obs::lanes::kApp, 0);
  for (std::size_t i = 0; i < cap + 9; ++i)
    obs::causal_child(root, "filler", obs::lanes::kApp, i);
  EXPECT_EQ(obs::causal_size(), cap);
  EXPECT_EQ(obs::causal_dropped(), 10u);  // root + 9 oldest fillers
  // Truncated logs still validate: unresolvable parents are skipped.
  std::string why;
  EXPECT_TRUE(obs::causal_validate(&why)) << why;
}

// -------------------------------------------------------- FlightRecorder

TEST(FlightRecorder, CapturesTailDeterministically) {
  CausalGuard guard;
  obs::set_causal_enabled(true);
  obs::flight_reset();
  auto scenario = [] {
    obs::causal_clear();
    obs::flight_reset();
    const obs::TraceContext root = obs::causal_root(
        obs::derive_trace_id(obs::domains::kE2, 1), "e2.indication",
        obs::lanes::kIndication, 1000);
    obs::causal_child(root, "dispatch.bad", obs::lanes::kDispatch, 1000);
    obs::flight_trigger("breaker.open", "bad-app");
    return obs::flight_last_report();
  };
  const std::string a = scenario();
  const std::string b = scenario();
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("\"schema\":\"orev-flight-v1\""), std::string::npos);
  EXPECT_NE(a.find("breaker.open"), std::string::npos);
  EXPECT_NE(a.find("bad-app"), std::string::npos);
  EXPECT_NE(a.find("dispatch.bad"), std::string::npos);
  EXPECT_EQ(a, b);  // same-seed scenario → byte-identical report
  EXPECT_EQ(obs::flight_trigger_count(), 1u);
}

TEST(FlightRecorder, WritesReportFileWhenDirConfigured) {
  CausalGuard guard;
  obs::set_causal_enabled(true);
  obs::flight_reset();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "orev_flight_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  obs::set_flight_dir(dir.string());
  const obs::TraceContext root = obs::causal_root(
      obs::derive_trace_id(obs::domains::kServe, 9), "serve.admit",
      obs::lanes::kAdmit, 5);
  (void)root;
  const std::uint64_t seq = obs::flight_trigger("quant.refuse", "cnnq: gate");
  obs::set_flight_dir("");
  EXPECT_GE(seq, 1u);
  bool found = false;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string fn = e.path().filename().string();
    if (fn.find("flight-") == 0 && fn.find("quant") != std::string::npos)
      found = true;
  }
  EXPECT_TRUE(found) << "no flight-*.json under " << dir;
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------------- BurnRate

TEST(BurnRate, BurnIsErrorRatioOverBudget) {
  serve::SloConfig cfg;
  cfg.window_us = 1000;
  cfg.short_windows = 2;
  cfg.long_windows = 4;
  cfg.miss_budget = 0.1;
  cfg.avail_budget = 0.1;
  serve::BurnRatePlane plane(cfg);
  // One window: 10 completions, 2 missed → miss ratio 0.2 → burn 2.0.
  for (int i = 0; i < 10; ++i) {
    plane.on_submit(100);
    plane.on_complete(100, /*deadline_missed=*/i < 2);
  }
  const serve::BurnRates r = plane.rates(100);
  EXPECT_NEAR(r.miss_short, 2.0, 1e-9);
  EXPECT_NEAR(r.miss_long, 2.0, 1e-9);
  EXPECT_NEAR(r.avail_short, 0.0, 1e-9);
  EXPECT_TRUE(r.miss_alert);
  EXPECT_FALSE(r.avail_alert);
}

TEST(BurnRate, ShortSpikeDoesNotTripLongWindow) {
  serve::SloConfig cfg;
  cfg.window_us = 1000;
  cfg.short_windows = 2;
  cfg.long_windows = 10;
  cfg.miss_budget = 0.01;
  serve::BurnRatePlane plane(cfg);
  // Eight clean windows of history, then one window with a miss burst.
  for (std::uint64_t w = 0; w < 8; ++w)
    for (int i = 0; i < 100; ++i) {
      plane.on_submit(w * 1000 + 1);
      plane.on_complete(w * 1000 + 1, false);
    }
  for (int i = 0; i < 10; ++i) {
    plane.on_submit(8000 + 1);
    plane.on_complete(8000 + 1, i < 5);
  }
  const serve::BurnRates r = plane.rates(8000 + 1);
  // Short horizon (2 windows: one clean + the burst): 5/110 / 0.01 ≈ 4.5.
  EXPECT_GT(r.miss_short, 1.0);
  // Long horizon dilutes the burst: 5/810 / 0.01 ≈ 0.62.
  EXPECT_LT(r.miss_long, 1.0);
  EXPECT_FALSE(r.miss_alert);  // multi-window rule suppresses the spike
}

TEST(BurnRate, SustainedRegressionTripsBothWindows) {
  serve::SloConfig cfg;
  cfg.window_us = 1000;
  cfg.short_windows = 2;
  cfg.long_windows = 4;
  cfg.avail_budget = 0.01;
  serve::BurnRatePlane plane(cfg);
  for (std::uint64_t w = 0; w < 4; ++w)
    for (int i = 0; i < 20; ++i) {
      plane.on_submit(w * 1000 + 1);
      if (i < 2) {
        plane.on_reject(w * 1000 + 1);
      } else {
        plane.on_complete(w * 1000 + 1, false);
      }
    }
  const serve::BurnRates r = plane.rates(3000 + 1);
  EXPECT_GT(r.avail_short, 1.0);
  EXPECT_GT(r.avail_long, 1.0);
  EXPECT_TRUE(r.avail_alert);
}

TEST(BurnRate, StaleCellsExpireFromTheRing) {
  serve::SloConfig cfg;
  cfg.window_us = 1000;
  cfg.short_windows = 1;
  cfg.long_windows = 2;
  cfg.miss_budget = 0.01;
  serve::BurnRatePlane plane(cfg);
  for (int i = 0; i < 10; ++i) {
    plane.on_submit(1);
    plane.on_complete(1, true);  // every completion missed, window 0
  }
  EXPECT_GT(plane.rates(1).miss_long, 0.0);
  // Jump far ahead: window 0 is outside the long horizon and its cell may
  // be reused — the misses must no longer count.
  const serve::BurnRates later = plane.rates(100 * 1000);
  EXPECT_DOUBLE_EQ(later.miss_long, 0.0);
  EXPECT_DOUBLE_EQ(later.miss_short, 0.0);
}

TEST(BurnRate, ConfigValidation) {
  serve::SloConfig bad;
  bad.window_us = 0;
  EXPECT_THROW(serve::BurnRatePlane{bad}, CheckError);
  serve::SloConfig bad2;
  bad2.short_windows = 10;
  bad2.long_windows = 5;
  EXPECT_THROW(serve::BurnRatePlane{bad2}, CheckError);
}

// ------------------------------------------------------------ PromExport

TEST(PromExport, HelpLinesAndEscaping) {
  obs::counter("test.prom.helped", "counts things \\ with\nnewlines").inc();
  const std::string text = obs::Registry::instance().to_prometheus();
  EXPECT_NE(text.find("# HELP orev_test_prom_helped"), std::string::npos);
  // Backslash and newline must arrive escaped, keeping one line per HELP.
  EXPECT_NE(text.find("\\\\ with\\nnewlines"), std::string::npos);
}

TEST(PromExport, NameSanitizationKeepsColons) {
  obs::counter("test.prom:rule name#2").inc();
  const std::string text = obs::Registry::instance().to_prometheus();
  // ':' is legal in exposition names and survives; space and '#' do not.
  EXPECT_NE(text.find("orev_test_prom:rule_name_2"), std::string::npos);
  EXPECT_EQ(text.find("rule name"), std::string::npos);
}

TEST(PromExport, SketchExportsSummaryWithQuantiles) {
  obs::SketchMetric& m =
      obs::sketch("test.prom.sketch", 0.01, "sketch help");
  m.reset();
  for (int i = 1; i <= 50; ++i) m.observe(static_cast<double>(i));
  const std::string text = obs::Registry::instance().to_prometheus();
  EXPECT_NE(text.find("# TYPE orev_test_prom_sketch summary"),
            std::string::npos);
  EXPECT_NE(text.find("orev_test_prom_sketch{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(text.find("orev_test_prom_sketch_count 50"), std::string::npos);
  // And the JSON export carries the sketches section.
  const std::string json = obs::Registry::instance().to_json();
  EXPECT_NE(json.find("\"sketches\""), std::string::npos);
  EXPECT_NE(json.find("\"test.prom.sketch\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

}  // namespace
}  // namespace orev
