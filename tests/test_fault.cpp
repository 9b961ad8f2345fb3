// Fault-injection layer tests (DESIGN.md §9): plan parsing, deterministic
// decision streams, retry/backoff, the circuit breaker state machine, SDL
// fault semantics, platform isolation/quarantine of faulty apps, degraded
// modes of the IC xApp and Power-Saving rApp, and closed-loop same-seed
// reproducibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/ic_xapp.hpp"
#include "apps/model_zoo.hpp"
#include "apps/power_saving_rapp.hpp"
#include "defense/runtime_monitor.hpp"
#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "oran/near_rt_ric.hpp"
#include "oran/non_rt_ric.hpp"
#include "util/fault/circuit_breaker.hpp"
#include "util/fault/fault.hpp"
#include "util/fault/retry.hpp"

namespace orev {
namespace {

using fault::FaultDecision;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::TryResult;

// -------------------------------------------------------------- fault plan

TEST(FaultPlan, ParsesDirectivesAndParams) {
  const FaultPlan plan = FaultPlan::parse(
      "# chaos schedule\n"
      "seed 99\n"
      "site sdl.read transient p=0.25 max=10\n"
      "site e2.indication delay p=1 delay_ms=7.5\n"
      "site sdl.write corrupt p=0.5 corrupt_scale=0.125\n"
      "\n"
      "site xapp.dispatch crash p=0.01  # trailing comment\n");
  EXPECT_EQ(plan.seed, 99u);
  ASSERT_EQ(plan.sites.size(), 4u);
  const FaultSpec& read = plan.sites.at("sdl.read")[0];
  EXPECT_EQ(read.kind, FaultKind::kTransient);
  EXPECT_DOUBLE_EQ(read.probability, 0.25);
  EXPECT_EQ(read.max_injections, 10u);
  const FaultSpec& delay = plan.sites.at("e2.indication")[0];
  EXPECT_EQ(delay.kind, FaultKind::kDelay);
  EXPECT_DOUBLE_EQ(delay.delay_ms, 7.5);
  EXPECT_FLOAT_EQ(plan.sites.at("sdl.write")[0].corrupt_scale, 0.125f);
}

TEST(FaultPlan, RejectsMalformedInput) {
  EXPECT_THROW(FaultPlan::parse("bogus directive\n"), CheckError);
  EXPECT_THROW(FaultPlan::parse("site sdl.read explode p=0.5\n"), CheckError);
  EXPECT_THROW(FaultPlan::parse("site sdl.read drop p=1.5\n"), CheckError);
  EXPECT_THROW(FaultPlan::parse("site sdl.read drop chance\n"), CheckError);
}

TEST(FaultPlan, RoundTripsThroughText) {
  const FaultPlan plan = fault::default_chaos_plan();
  const FaultPlan reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
  EXPECT_EQ(reparsed.seed, plan.seed);
  EXPECT_EQ(reparsed.sites.size(), plan.sites.size());
}

TEST(FaultPlan, LoadMissingFileIsNullopt) {
  EXPECT_FALSE(FaultPlan::load("/nonexistent/fault.plan").has_value());
}

// ---------------------------------------------------------- fault injector

FaultPlan one_site_plan(const char* site, FaultKind kind, double p,
                        std::uint64_t max = UINT64_MAX) {
  FaultPlan plan;
  plan.seed = 7;
  FaultSpec spec;
  spec.kind = kind;
  spec.probability = p;
  spec.max_injections = max;
  plan.sites[site].push_back(spec);
  return plan;
}

std::vector<FaultKind> draw_kinds(FaultInjector& inj, const char* site,
                                  int n) {
  std::vector<FaultKind> out;
  for (int i = 0; i < n; ++i) out.push_back(inj.decide(site).kind);
  return out;
}

TEST(FaultInjector, SameSeedSameSequence) {
  const FaultPlan plan = one_site_plan("sdl.read", FaultKind::kTransient, 0.4);
  FaultInjector a(plan);
  FaultInjector b(plan);
  EXPECT_EQ(draw_kinds(a, "sdl.read", 300), draw_kinds(b, "sdl.read", 300));
  // ...and payload seeds too (full decision equality, not just kinds).
  FaultPlan cp = one_site_plan("sdl.write", FaultKind::kCorrupt, 1.0);
  FaultInjector ca(cp);
  FaultInjector cb(cp);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(ca.decide("sdl.write").payload_seed,
              cb.decide("sdl.write").payload_seed);
}

TEST(FaultInjector, DifferentSeedDifferentSequence) {
  FaultPlan plan = one_site_plan("sdl.read", FaultKind::kTransient, 0.4);
  FaultInjector a(plan);
  plan.seed = 8;
  FaultInjector b(plan);
  EXPECT_NE(draw_kinds(a, "sdl.read", 300), draw_kinds(b, "sdl.read", 300));
}

TEST(FaultInjector, SiteStreamsAreIndependent) {
  FaultPlan plan = one_site_plan("sdl.read", FaultKind::kTransient, 0.4);
  FaultSpec other;
  other.kind = FaultKind::kDrop;
  other.probability = 0.4;
  plan.sites["e2.indication"].push_back(other);

  // Reference: sdl.read alone.
  FaultInjector alone(plan);
  const auto expected = draw_kinds(alone, "sdl.read", 100);
  // Interleave heavy traffic on the other site; sdl.read must not shift.
  FaultInjector mixed(plan);
  std::vector<FaultKind> got;
  for (int i = 0; i < 100; ++i) {
    mixed.decide("e2.indication");
    mixed.decide("e2.indication");
    got.push_back(mixed.decide("sdl.read").kind);
  }
  EXPECT_EQ(got, expected);
}

TEST(FaultInjector, BudgetBoundsInjections) {
  FaultInjector inj(one_site_plan("x", FaultKind::kCrash, 1.0, /*max=*/3));
  int injected = 0;
  for (int i = 0; i < 50; ++i)
    if (inj.decide("x")) ++injected;
  EXPECT_EQ(injected, 3);
  EXPECT_EQ(inj.site_stats("x").ops, 50u);
  EXPECT_EQ(inj.site_stats("x").injected, 3u);
  EXPECT_EQ(inj.site_stats("x").by_kind[static_cast<int>(FaultKind::kCrash)],
            3u);
}

TEST(FaultInjector, UnknownSiteAndEmptyPlanAreNoops) {
  FaultInjector inj{FaultPlan{}};
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(inj.decide("sdl.read"));
  EXPECT_EQ(inj.total_ops(), 0u);
  EXPECT_EQ(inj.total_injected(), 0u);

  FaultInjector with(one_site_plan("a", FaultKind::kDrop, 1.0));
  EXPECT_FALSE(with.decide("not-in-plan"));
}

TEST(FaultInjector, ResetReplaysTheSequence) {
  FaultInjector inj(
      one_site_plan("x", FaultKind::kTransient, 0.5, /*max=*/20));
  const auto first = draw_kinds(inj, "x", 100);
  inj.reset();
  EXPECT_EQ(draw_kinds(inj, "x", 100), first);
}

TEST(FaultInjector, StatsJsonIsDeterministic) {
  const FaultPlan plan = fault::default_chaos_plan();
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 64; ++i) {
    a.decide("sdl.read");
    a.decide("xapp.dispatch");
    b.decide("sdl.read");
    b.decide("xapp.dispatch");
  }
  EXPECT_EQ(a.stats_json(), b.stats_json());
  EXPECT_NE(a.stats_json().find("\"sdl.read\""), std::string::npos);
}

// ---------------------------------------------------------- retry/backoff

TEST(Retry, BackoffDeterministicGrowingAndCapped) {
  fault::RetryPolicy p;
  p.base_backoff_ms = 2.0;
  p.multiplier = 2.0;
  p.max_backoff_ms = 10.0;
  p.jitter_frac = 0.1;
  EXPECT_DOUBLE_EQ(fault::backoff_ms(p, 1, 5), fault::backoff_ms(p, 1, 5));
  EXPECT_NE(fault::backoff_ms(p, 1, 5), fault::backoff_ms(p, 1, 6));
  // Jitter bounds: base * mult^(k-1) capped at max, ±10%.
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double nominal =
        std::min(2.0 * std::pow(2.0, attempt - 1), p.max_backoff_ms);
    const double b = fault::backoff_ms(p, attempt, 17);
    EXPECT_GE(b, nominal * 0.9 - 1e-12);
    EXPECT_LE(b, nominal * 1.1 + 1e-12);
  }
}

TEST(Retry, CallSemantics) {
  fault::RetryPolicy p;
  p.max_attempts = 3;

  auto ok = fault::retry_call(p, 0, [] { return TryResult::kOk; });
  EXPECT_TRUE(ok.success);
  EXPECT_EQ(ok.attempts, 1);
  EXPECT_DOUBLE_EQ(ok.total_backoff_ms, 0.0);

  int calls = 0;
  auto eventually = fault::retry_call(p, 1, [&] {
    return ++calls < 3 ? TryResult::kTransient : TryResult::kOk;
  });
  EXPECT_TRUE(eventually.success);
  EXPECT_EQ(eventually.attempts, 3);
  EXPECT_GT(eventually.total_backoff_ms, 0.0);

  auto exhausted =
      fault::retry_call(p, 2, [] { return TryResult::kTransient; });
  EXPECT_FALSE(exhausted.success);
  EXPECT_FALSE(exhausted.fatal);
  EXPECT_EQ(exhausted.attempts, 3);

  int fatal_calls = 0;
  auto fatal = fault::retry_call(p, 3, [&] {
    ++fatal_calls;
    return TryResult::kFatal;
  });
  EXPECT_FALSE(fatal.success);
  EXPECT_TRUE(fatal.fatal);
  EXPECT_EQ(fatal_calls, 1);

  int once = 0;
  fault::retry_call(fault::no_retry_policy(), 4, [&] {
    ++once;
    return TryResult::kTransient;
  });
  EXPECT_EQ(once, 1);
}

// --------------------------------------------------------- circuit breaker

TEST(CircuitBreaker, OpensQuarantinesAndRecovers) {
  fault::BreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.open_cooldown = 2;
  cfg.half_open_successes = 1;
  fault::CircuitBreaker b(cfg);

  using State = fault::CircuitBreaker::State;
  EXPECT_EQ(b.state(), State::kClosed);
  // A success in between resets the consecutive-failure count.
  b.record_failure();
  b.record_failure();
  b.record_success();
  b.record_failure();
  b.record_failure();
  EXPECT_EQ(b.state(), State::kClosed);
  b.record_failure();
  EXPECT_EQ(b.state(), State::kOpen);
  EXPECT_EQ(b.times_opened(), 1u);

  // Cooldown counts offered ops; the call that exhausts it admits a probe.
  EXPECT_FALSE(b.allow());
  EXPECT_TRUE(b.allow());
  EXPECT_EQ(b.state(), State::kHalfOpen);

  // A failed probe goes straight back to open...
  b.record_failure();
  EXPECT_EQ(b.state(), State::kOpen);
  EXPECT_EQ(b.times_opened(), 2u);

  // ...and a successful probe after the next cooldown closes it.
  EXPECT_FALSE(b.allow());
  EXPECT_TRUE(b.allow());
  b.record_success();
  EXPECT_EQ(b.state(), State::kClosed);
}

// ------------------------------------------------------ SDL fault semantics

class SdlFaultTest : public ::testing::Test {
 protected:
  SdlFaultTest() : sdl_(&rbac_) {
    rbac_.define_role("rw", {oran::Permission{"ns/*", true, true}});
    rbac_.assign_role("app", "rw");
  }
  oran::Rbac rbac_;
  oran::Sdl sdl_;
};

TEST_F(SdlFaultTest, TransientReadIsUnavailableAndLeavesOutUntouched) {
  const nn::Tensor t({2}, std::vector<float>{1.0f, 2.0f});
  ASSERT_EQ(sdl_.write_tensor("app", "ns/a", "k", t), oran::SdlStatus::kOk);

  FaultInjector inj(
      one_site_plan("sdl.read", FaultKind::kTransient, 1.0, /*max=*/2));
  sdl_.set_fault_injector(&inj);
  nn::Tensor out({1}, std::vector<float>{-7.0f});
  EXPECT_EQ(sdl_.read_tensor("app", "ns/a", "k", out),
            oran::SdlStatus::kUnavailable);
  EXPECT_EQ(out.numel(), 1u);
  EXPECT_FLOAT_EQ(out[0], -7.0f);  // untouched on failure
  EXPECT_EQ(sdl_.read_tensor("app", "ns/a", "k", out),
            oran::SdlStatus::kUnavailable);
  // Budget exhausted: the store recovers.
  EXPECT_EQ(sdl_.read_tensor("app", "ns/a", "k", out), oran::SdlStatus::kOk);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
  EXPECT_EQ(sdl_.unavailable_reads(), 2u);
}

TEST_F(SdlFaultTest, DroppedWriteIsSilentlyLost) {
  FaultInjector inj(
      one_site_plan("sdl.write", FaultKind::kDrop, 1.0, /*max=*/1));
  sdl_.set_fault_injector(&inj);
  // The caller sees success, but the store was never touched.
  EXPECT_EQ(sdl_.write_tensor("app", "ns/a", "k", nn::Tensor({1}, 3.0f)),
            oran::SdlStatus::kOk);
  EXPECT_FALSE(sdl_.version("ns/a", "k").has_value());
  EXPECT_FALSE(sdl_.last_writer("ns/a", "k").has_value());
  nn::Tensor out;
  EXPECT_EQ(sdl_.read_tensor("app", "ns/a", "k", out),
            oran::SdlStatus::kNotFound);
  EXPECT_EQ(sdl_.dropped_writes(), 1u);
  // Budget spent: the next write lands.
  EXPECT_EQ(sdl_.write_tensor("app", "ns/a", "k", nn::Tensor({1}, 4.0f)),
            oran::SdlStatus::kOk);
  EXPECT_EQ(sdl_.version("ns/a", "k"), 1u);
}

TEST_F(SdlFaultTest, CorruptionIsDeterministicAcrossRuns) {
  const FaultPlan plan = one_site_plan("sdl.write", FaultKind::kCorrupt, 1.0);
  const nn::Tensor original({3}, std::vector<float>{1.0f, 2.0f, 3.0f});

  auto run = [&](oran::Sdl& sdl, FaultInjector& inj) {
    sdl.set_fault_injector(&inj);
    EXPECT_EQ(sdl.write_tensor("app", "ns/a", "k", original),
              oran::SdlStatus::kOk);
    sdl.set_fault_injector(nullptr);
    nn::Tensor out;
    EXPECT_EQ(sdl.read_tensor("app", "ns/a", "k", out), oran::SdlStatus::kOk);
    return out;
  };
  FaultInjector ia(plan);
  const nn::Tensor a = run(sdl_, ia);
  oran::Sdl sdl2(&rbac_);
  FaultInjector ib(plan);
  const nn::Tensor b = run(sdl2, ib);

  bool differs_from_original = false;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "corruption must replay identically";
    if (a[i] != original[i]) differs_from_original = true;
  }
  EXPECT_TRUE(differs_from_original);
  EXPECT_EQ(sdl_.corrupted_writes(), 1u);
}

TEST_F(SdlFaultTest, MonitorCursorSurvivesAuditEviction) {
  // The write monitor's cursor is an absolute sequence number, so ring
  // evictions between scans neither replay nor skip records.
  defense::SdlWriteMonitor monitor;
  monitor.expect_writers("ns/prot", {"app"});
  rbac_.define_role("rogue-rw", {oran::Permission{"ns/*", true, true}});
  rbac_.assign_role("rogue", "rogue-rw");

  sdl_.set_audit_capacity(4);
  sdl_.write_text("app", "ns/prot", "k", "fine");
  EXPECT_TRUE(monitor.scan(sdl_).empty());
  // Push the earlier records out of the ring, with one violation inside.
  for (int i = 0; i < 6; ++i) sdl_.write_text("app", "ns/other", "k", "x");
  sdl_.write_text("rogue", "ns/prot", "k", "evil");
  EXPECT_GT(sdl_.audit_dropped_records(), 0u);
  const auto alerts = monitor.scan(sdl_);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].writer, "rogue");
  EXPECT_TRUE(monitor.scan(sdl_).empty());  // no replay on the next scan
}

// ----------------------------------------------- Near-RT RIC fault handling

/// A 2-feature IC model: interference iff feature0 < 0.5 (low SINR).
nn::Model tiny_ic_model() {
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Dense>(2, 2);
  nn::Model m("TinyIc", std::move(seq), {2}, 2);
  std::vector<nn::Tensor> w;
  w.push_back(nn::Tensor({2, 2}, {8.0f, 0.0f, -8.0f, 0.0f}));
  w.push_back(nn::Tensor({2}, {-4.0f, 4.0f}));
  m.set_weights(w);
  return m;
}

class ThrowingXApp : public oran::XApp {
 public:
  void on_indication(const oran::E2Indication&, oran::NearRtRic&) override {
    ++calls;
    if (throwing) throw std::runtime_error("app bug");
  }
  bool throwing = true;
  int calls = 0;
};

class RecordingXApp : public oran::XApp {
 public:
  void on_indication(const oran::E2Indication& ind,
                     oran::NearRtRic&) override {
    ttis.push_back(ind.tti);
  }
  std::vector<std::uint64_t> ttis;
};

class FakeE2Node : public oran::E2Node {
 public:
  void handle_control(const oran::E2Control& c) override {
    controls.push_back(c);
  }
  std::string node_id() const override { return "ran-1"; }
  std::vector<oran::E2Control> controls;
};

class RicFaultTest : public ::testing::Test {
 protected:
  RicFaultTest() : op_("op", "sec"), svc_(&op_, &rbac_) {
    rbac_.define_role("xapp-full",
                      {oran::Permission{"telemetry/*", true, false},
                       oran::Permission{"decisions", true, true},
                       oran::Permission{"e2/control", false, true}});
  }
  std::string onboard(const std::string& name) {
    oran::AppDescriptor d;
    d.name = name;
    d.version = "1";
    d.vendor = "v";
    d.payload = "p";
    d.requested_role = "xapp-full";
    return svc_.onboard(op_.package(d)).app_id;
  }
  oran::E2Indication kpm_indication(float sinr, std::uint64_t tti) {
    oran::E2Indication ind;
    ind.ran_node_id = "ran-1";
    ind.tti = tti;
    ind.kind = oran::IndicationKind::kKpm;
    ind.payload = nn::Tensor({2}, std::vector<float>{sinr, 1.0f - sinr});
    return ind;
  }
  oran::Rbac rbac_;
  oran::Operator op_;
  oran::OnboardingService svc_;
};

TEST_F(RicFaultTest, ThrowingXAppIsIsolatedAndQuarantined) {
  oran::NearRtRic ric(&rbac_, &svc_);
  fault::BreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.open_cooldown = 2;
  ric.set_breaker_config(cfg);

  auto thrower = std::make_shared<ThrowingXApp>();
  auto recorder = std::make_shared<RecordingXApp>();
  const std::string bad = onboard("bad");
  const std::string good = onboard("good");
  ASSERT_TRUE(ric.register_xapp(thrower, bad, 1));
  ASSERT_TRUE(ric.register_xapp(recorder, good, 10));

  using State = fault::CircuitBreaker::State;
  // Two faults open the breaker; the lower-priority app keeps running.
  ric.deliver_indication(kpm_indication(0.5f, 1));
  ric.deliver_indication(kpm_indication(0.5f, 2));
  EXPECT_EQ(ric.stats_of(bad).faults, 2u);
  EXPECT_EQ(ric.breaker_state(bad), State::kOpen);
  // Quarantine (tti 3), then a failed half-open probe (tti 4) reopens.
  ric.deliver_indication(kpm_indication(0.5f, 3));
  EXPECT_EQ(ric.stats_of(bad).quarantined_skips, 1u);
  ric.deliver_indication(kpm_indication(0.5f, 4));
  EXPECT_EQ(ric.stats_of(bad).faults, 3u);
  EXPECT_EQ(ric.breaker_state(bad), State::kOpen);
  EXPECT_EQ(ric.breaker_opens(bad), 2u);
  // The app recovers: quarantine (tti 5), successful probe (tti 6) closes.
  thrower->throwing = false;
  ric.deliver_indication(kpm_indication(0.5f, 5));
  ric.deliver_indication(kpm_indication(0.5f, 6));
  EXPECT_EQ(ric.breaker_state(bad), State::kClosed);
  ric.deliver_indication(kpm_indication(0.5f, 7));
  // The well-behaved app saw every indication throughout.
  EXPECT_EQ(recorder->ttis.size(), 7u);
  EXPECT_EQ(ric.stats_of(good).faults, 0u);
  EXPECT_EQ(ric.breaker_state(good), State::kClosed);
}

TEST_F(RicFaultTest, InjectedCrashesCountAsFaults) {
  oran::NearRtRic ric(&rbac_, &svc_);
  FaultInjector inj(
      one_site_plan("xapp.dispatch", FaultKind::kCrash, 1.0, /*max=*/2));
  ric.set_fault_injector(&inj);
  auto recorder = std::make_shared<RecordingXApp>();
  const std::string id = onboard("x");
  ASSERT_TRUE(ric.register_xapp(recorder, id, 1));
  for (std::uint64_t t = 1; t <= 4; ++t)
    ric.deliver_indication(kpm_indication(0.5f, t));
  EXPECT_EQ(ric.stats_of(id).faults, 2u);
  EXPECT_EQ(ric.stats_of(id).dispatches, 4u);
  EXPECT_EQ(recorder->ttis.size(), 2u);  // the two non-crashed dispatches
}

TEST_F(RicFaultTest, DroppedIndicationReportsFalse) {
  oran::NearRtRic ric(&rbac_, &svc_);
  FaultInjector inj(
      one_site_plan("e2.indication", FaultKind::kDrop, 1.0, /*max=*/1));
  ric.set_fault_injector(&inj);
  EXPECT_FALSE(ric.deliver_indication(kpm_indication(0.5f, 1)));
  EXPECT_TRUE(ric.deliver_indication(kpm_indication(0.5f, 2)));
  EXPECT_EQ(ric.indications_dropped(), 1u);
  EXPECT_EQ(ric.indications_delivered(), 1u);
}

TEST_F(RicFaultTest, PlatformWriteRetriesTransientOutage) {
  oran::NearRtRic ric(&rbac_, &svc_);
  // Two transient write faults, a 3-attempt policy: the write succeeds.
  FaultInjector inj(
      one_site_plan("sdl.write", FaultKind::kTransient, 1.0, /*max=*/2));
  ric.set_fault_injector(&inj);
  EXPECT_TRUE(ric.deliver_indication(kpm_indication(0.5f, 1)));
  EXPECT_EQ(ric.sdl_write_failures(), 0u);
  nn::Tensor out;
  EXPECT_EQ(ric.read_telemetry(oran::kRicPlatformId, oran::kNsKpm,
                               "ran-1/current", out),
            oran::SdlStatus::kOk);
}

TEST_F(RicFaultTest, IcXAppFallsBackThenFailsSafeThenRecovers) {
  oran::NearRtRic ric(&rbac_, &svc_);
  FakeE2Node node;
  ric.connect_e2(&node);
  auto app = std::make_shared<apps::IcXApp>(tiny_ic_model(),
                                            oran::IndicationKind::kKpm, 13);
  apps::IcDegradedConfig dcfg;
  dcfg.enabled = true;
  dcfg.max_stale = 2;
  app->set_degraded_config(dcfg);
  ASSERT_TRUE(ric.register_xapp(app, onboard("ic"), 10));

  // Healthy period primes the last-known-good cache (jammed sample).
  ric.deliver_indication(kpm_indication(0.1f, 1));
  EXPECT_EQ(app->predictions_made(), 1u);
  ASSERT_EQ(node.controls.size(), 1u);
  EXPECT_EQ(node.controls[0].action, oran::ControlAction::kSetAdaptiveMcs);

  // Storage outage: reads fail from now on; platform writes still land
  // and bump the entry version, so the cache ages one version per tti.
  FaultInjector inj(one_site_plan("sdl.read", FaultKind::kTransient, 1.0));
  ric.set_fault_injector(&inj);
  ric.deliver_indication(kpm_indication(0.9f, 2));  // staleness 1 → fallback
  ric.deliver_indication(kpm_indication(0.9f, 3));  // staleness 2 → fallback
  EXPECT_EQ(app->fallback_classifications(), 2u);
  EXPECT_EQ(app->failsafe_controls(), 0u);
  // Fallback classifies the *cached* jammed sample → adaptive MCS.
  ASSERT_EQ(node.controls.size(), 3u);
  EXPECT_EQ(node.controls[2].action, oran::ControlAction::kSetAdaptiveMcs);

  ric.deliver_indication(kpm_indication(0.9f, 4));  // staleness 3 → fail-safe
  EXPECT_EQ(app->failsafe_controls(), 1u);
  ASSERT_EQ(node.controls.size(), 4u);
  EXPECT_EQ(node.controls[3].action, oran::ControlAction::kSetAdaptiveMcs);

  // The store recovers: fresh classification resumes (clean → fixed MCS).
  ric.set_fault_injector(nullptr);
  std::string published;
  ASSERT_EQ(ric.sdl().read_text(oran::kRicPlatformId, oran::kNsDecisions,
                                "ic/ran-1", published),
            oran::SdlStatus::kOk);
  EXPECT_EQ(published, "failsafe");
  ric.deliver_indication(kpm_indication(0.9f, 5));
  EXPECT_EQ(app->predictions_made(), 4u);  // 1 fresh + 2 fallback + this one
  ASSERT_EQ(node.controls.size(), 5u);
  EXPECT_EQ(node.controls[4].action, oran::ControlAction::kSetFixedMcs);
  EXPECT_EQ(app->telemetry_failures(), 3u);
}

TEST_F(RicFaultTest, IcXAppDegradedModeFallsBackToEachNodesOwnTelemetry) {
  oran::NearRtRic ric(&rbac_, &svc_);
  FakeE2Node node;
  ric.connect_e2(&node);
  auto app = std::make_shared<apps::IcXApp>(tiny_ic_model(),
                                            oran::IndicationKind::kKpm, 13);
  apps::IcDegradedConfig dcfg;
  dcfg.enabled = true;
  dcfg.max_stale = 2;
  app->set_degraded_config(dcfg);
  ASSERT_TRUE(ric.register_xapp(app, onboard("ic"), 10));
  // Deliver one cell's indication; return the control it caused.
  auto deliver = [&](const char* cell, float sinr, std::uint64_t tti) {
    oran::E2Indication ind = kpm_indication(sinr, tti);
    ind.ran_node_id = cell;
    const std::size_t before = node.controls.size();
    ric.deliver_indication(ind);
    EXPECT_EQ(node.controls.size(), before + 1) << cell << " tti " << tti;
    return node.controls.back().action;
  };
  using oran::ControlAction;

  // Healthy: cell A is clean, then cell B is jammed — B's row is the
  // last one the app read.
  EXPECT_EQ(deliver("cell-a", 0.9f, 1), ControlAction::kSetFixedMcs);
  EXPECT_EQ(deliver("cell-b", 0.1f, 2), ControlAction::kSetAdaptiveMcs);

  // Storage outage: reads fail, platform writes still land.
  FaultInjector inj(one_site_plan("sdl.read", FaultKind::kTransient, 1.0));
  ric.set_fault_injector(&inj);
  // A falls back to its own clean row, not to B's jammed one.
  EXPECT_EQ(deliver("cell-a", 0.1f, 3), ControlAction::kSetFixedMcs);
  EXPECT_EQ(app->fallback_classifications(), 1u);
  // A cell that never had a good read fails safe, although the app holds
  // other cells' rows.
  EXPECT_EQ(deliver("cell-c", 0.9f, 4), ControlAction::kSetAdaptiveMcs);
  EXPECT_EQ(app->failsafe_controls(), 1u);
  // B falls back to its own jammed row.
  EXPECT_EQ(deliver("cell-b", 0.9f, 5), ControlAction::kSetAdaptiveMcs);
  EXPECT_EQ(app->fallback_classifications(), 2u);
  // Staleness ages per cell: A's cache is two of A's versions old (still
  // usable), then three (fail-safe) — B's and C's writes do not count.
  EXPECT_EQ(deliver("cell-a", 0.1f, 6), ControlAction::kSetFixedMcs);
  EXPECT_EQ(app->fallback_classifications(), 3u);
  EXPECT_EQ(deliver("cell-a", 0.1f, 7), ControlAction::kSetAdaptiveMcs);
  EXPECT_EQ(app->failsafe_controls(), 2u);
  EXPECT_EQ(app->telemetry_failures(), 5u);

  ric.set_fault_injector(nullptr);
  std::string published;
  ASSERT_EQ(ric.sdl().read_text(oran::kRicPlatformId, oran::kNsDecisions,
                                "ic/cell-c", published),
            oran::SdlStatus::kOk);
  EXPECT_EQ(published, "failsafe");
}

TEST_F(RicFaultTest, EmptyPlanChangesNothing) {
  auto run = [&](FaultInjector* inj) {
    oran::NearRtRic ric(&rbac_, &svc_);
    FakeE2Node node;
    ric.connect_e2(&node);
    if (inj != nullptr) ric.set_fault_injector(inj);
    auto app = std::make_shared<apps::IcXApp>(
        tiny_ic_model(), oran::IndicationKind::kKpm, 13);
    EXPECT_TRUE(ric.register_xapp(app, onboard("ic"), 10));
    for (std::uint64_t t = 0; t < 16; ++t)
      ric.deliver_indication(kpm_indication(t % 2 == 0 ? 0.1f : 0.9f, t));
    return std::make_pair(node.controls.size(), app->predictions_made());
  };
  FaultInjector empty{FaultPlan{}};
  EXPECT_EQ(run(&empty), run(nullptr));
  EXPECT_EQ(empty.total_ops(), 0u);
}

// ---------------------------------------------- Non-RT RIC fault handling

class FakeO1 : public oran::O1Interface {
 public:
  oran::PmReport collect_pm() override {
    oran::PmReport r;
    for (int id = 1; id <= 9; ++id) {
      oran::CellPm pm;
      pm.prb_util_dl = 10.0 * id;
      pm.active = inactive_.count(id) == 0;
      r.cells[id] = pm;
    }
    return r;
  }
  bool set_cell_state(int cell_id, bool active) override {
    if (active) inactive_.erase(cell_id);
    else inactive_.insert(cell_id);
    ++commands;
    return true;
  }
  std::set<int> inactive_;
  int commands = 0;
};

class NonRtFaultTest : public ::testing::Test {
 protected:
  NonRtFaultTest() : op_("op", "sec"), svc_(&op_, &rbac_) {
    rbac_.define_role("ps-rapp",
                      {oran::Permission{"pm", true, false},
                       oran::Permission{"rapp-decisions", true, true},
                       oran::Permission{"o1/cell-control", false, true}});
  }
  std::string onboard(const std::string& name) {
    oran::AppDescriptor d;
    d.name = name;
    d.version = "1";
    d.vendor = "v";
    d.payload = "p";
    d.type = oran::AppType::kRApp;
    d.requested_role = "ps-rapp";
    return svc_.onboard(op_.package(d)).app_id;
  }
  oran::Rbac rbac_;
  oran::Operator op_;
  oran::OnboardingService svc_;
};

TEST_F(NonRtFaultTest, CollectFaultSkipsPeriod) {
  oran::NonRtRic ric(&rbac_, &svc_, 12);
  FakeO1 o1;
  ric.connect_o1(&o1);
  FaultInjector inj(
      one_site_plan("o1.collect", FaultKind::kTransient, 1.0, /*max=*/6));
  ric.set_fault_injector(&inj);
  ric.set_retry_policy(fault::no_retry_policy());
  ric.step();  // collection fails outright
  EXPECT_EQ(ric.pm_collect_failures(), 1u);
  EXPECT_EQ(ric.periods_run(), 0u);
  // Remaining budget (5) is absorbed by one retried step (attempts reset).
  fault::RetryPolicy p;
  p.max_attempts = 6;
  ric.set_retry_policy(p);
  ric.step();
  EXPECT_EQ(ric.pm_collect_failures(), 1u);
  EXPECT_EQ(ric.periods_run(), 1u);
}

TEST_F(NonRtFaultTest, PowerSavingFallsBackThenFailsSafe) {
  oran::NonRtRic ric(&rbac_, &svc_, 12);
  FakeO1 o1;
  ric.connect_o1(&o1);
  auto app = std::make_shared<apps::PowerSavingRApp>(
      apps::make_power_saving_cnn({1, 12, 9}, 6, 21));
  apps::PsDegradedConfig dcfg;
  dcfg.enabled = true;
  dcfg.max_stale = 1;
  app->set_degraded_config(dcfg);
  ASSERT_TRUE(ric.register_rapp(app, onboard("ps"), 10));

  ric.step();  // healthy: fresh decisions prime the cache
  EXPECT_EQ(app->decisions_made(), 3u);
  const int commands_after_healthy = o1.commands;

  // Storage outage: rApp reads fail; the platform still publishes, so the
  // cached history ages one version per period.
  FaultInjector inj(one_site_plan("sdl.read", FaultKind::kTransient, 1.0));
  ric.set_fault_injector(&inj);
  ric.step();  // staleness 1 → fallback decisions
  EXPECT_EQ(app->fallback_decisions(), 1u);
  EXPECT_EQ(app->decisions_made(), 6u);
  ric.step();  // staleness 2 → fail-safe: no decisions, no cell commands
  EXPECT_EQ(app->failsafe_periods(), 1u);
  EXPECT_EQ(app->decisions_made(), 6u);
  const int commands_after_failsafe = o1.commands;
  ric.step();
  EXPECT_EQ(app->failsafe_periods(), 2u);
  EXPECT_EQ(o1.commands, commands_after_failsafe);  // still no sleep actions

  // Recovery: fresh decisions resume.
  ric.set_fault_injector(nullptr);
  ric.step();
  EXPECT_EQ(app->decisions_made(), 9u);
  EXPECT_GE(o1.commands, commands_after_healthy);
  EXPECT_EQ(app->pm_read_failures(), 3u);
}

TEST_F(NonRtFaultTest, A1PushDropsAndRetries) {
  oran::NonRtRic non_rt(&rbac_, &svc_, 12);
  oran::NearRtRic near_rt(&rbac_, &svc_);
  oran::A1Policy pol;
  pol.policy_type = "energy-saving";

  FaultInjector drop(one_site_plan("a1.policy", FaultKind::kDrop, 1.0,
                                   /*max=*/1));
  non_rt.set_fault_injector(&drop);
  EXPECT_FALSE(non_rt.push_a1_policy(near_rt, pol));
  EXPECT_EQ(non_rt.policies_dropped(), 1u);
  EXPECT_TRUE(near_rt.policies().empty());
  EXPECT_TRUE(non_rt.push_a1_policy(near_rt, pol));
  ASSERT_EQ(near_rt.policies().size(), 1u);

  // Transient faults within the retry budget still deliver.
  FaultInjector flaky(one_site_plan("a1.policy", FaultKind::kTransient, 1.0,
                                    /*max=*/2));
  non_rt.set_fault_injector(&flaky);
  EXPECT_TRUE(non_rt.push_a1_policy(near_rt, pol));
  EXPECT_EQ(near_rt.policies().size(), 2u);
  EXPECT_EQ(non_rt.policies_failed(), 0u);
}

TEST_F(NonRtFaultTest, RAppCrashInjectionIsContained) {
  oran::NonRtRic ric(&rbac_, &svc_, 12);
  FakeO1 o1;
  ric.connect_o1(&o1);
  auto app = std::make_shared<apps::PowerSavingRApp>(
      apps::make_power_saving_cnn({1, 12, 9}, 6, 21));
  const std::string id = onboard("ps");
  ASSERT_TRUE(ric.register_rapp(app, id, 10));
  FaultInjector inj(
      one_site_plan("rapp.dispatch", FaultKind::kCrash, 1.0, /*max=*/2));
  ric.set_fault_injector(&inj);
  for (int i = 0; i < 4; ++i) ric.step();
  EXPECT_EQ(ric.stats_of(id).dispatches, 4u);
  EXPECT_EQ(ric.stats_of(id).faults, 2u);
  EXPECT_EQ(ric.periods_run(), 4u);  // the platform never went down
}

// ------------------------------------------------- closed-loop determinism

struct LoopEndState {
  std::uint64_t controls = 0;
  std::uint64_t predictions = 0;
  std::uint64_t failsafes = 0;
  std::uint64_t faults = 0;
  std::uint64_t breaker_opens = 0;
  std::string injector_stats;

  bool operator==(const LoopEndState& o) const {
    return controls == o.controls && predictions == o.predictions &&
           failsafes == o.failsafes && faults == o.faults &&
           breaker_opens == o.breaker_opens &&
           injector_stats == o.injector_stats;
  }
};

TEST_F(RicFaultTest, ClosedLoopSameSeedSameEndState) {
  auto run = [&] {
    oran::NearRtRic ric(&rbac_, &svc_);
    FakeE2Node node;
    ric.connect_e2(&node);
    FaultInjector inj(fault::default_chaos_plan());
    ric.set_fault_injector(&inj);
    auto app = std::make_shared<apps::IcXApp>(
        tiny_ic_model(), oran::IndicationKind::kKpm, 13);
    const std::string id = onboard("ic");
    EXPECT_TRUE(ric.register_xapp(app, id, 10));
    for (std::uint64_t t = 0; t < 300; ++t)
      ric.deliver_indication(kpm_indication(t % 2 == 0 ? 0.1f : 0.9f, t));
    LoopEndState s;
    s.controls = node.controls.size();
    s.predictions = app->predictions_made();
    s.failsafes = app->failsafe_controls();
    s.faults = ric.stats_of(id).faults;
    s.breaker_opens = ric.breaker_opens(id);
    s.injector_stats = inj.stats_json();
    return s;
  };
  const LoopEndState a = run();
  const LoopEndState b = run();
  EXPECT_TRUE(a == b) << "chaos runs with the same seed must replay";
  EXPECT_GT(a.faults, 0u) << "the default chaos plan must actually bite";
}

}  // namespace
}  // namespace orev
