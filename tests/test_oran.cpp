// O-RAN substrate tests: RBAC/ABAC decision procedure, SDL mediation and
// audit, the onboarding pipeline (integrity / authenticity / authorization
// failure modes and the signed-but-malicious supply-chain gap), and both
// RIC platforms' dispatch semantics.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "oran/near_rt_ric.hpp"
#include "oran/non_rt_ric.hpp"
#include "oran/onboarding.hpp"
#include "oran/rbac.hpp"
#include "oran/sdl.hpp"
#include "util/fault/fault.hpp"
#include "util/persist/persist.hpp"

namespace orev::oran {
namespace {

// ------------------------------------------------------------------- RBAC

TEST(Rbac, UnknownAppDeniedByDefault) {
  Rbac r;
  EXPECT_FALSE(r.allowed("ghost", "telemetry/kpm", Op::kRead));
}

TEST(Rbac, RoleGrantsExactNamespace) {
  Rbac r;
  r.define_role("reader", {Permission{"telemetry/kpm", true, false}});
  r.assign_role("app1", "reader");
  EXPECT_TRUE(r.allowed("app1", "telemetry/kpm", Op::kRead));
  EXPECT_FALSE(r.allowed("app1", "telemetry/kpm", Op::kWrite));
  EXPECT_FALSE(r.allowed("app1", "telemetry/spectrogram", Op::kRead));
}

TEST(Rbac, WildcardPrefixPattern) {
  Rbac r;
  r.define_role("tele", {Permission{"telemetry/*", true, true}});
  r.assign_role("app", "tele");
  EXPECT_TRUE(r.allowed("app", "telemetry/kpm", Op::kWrite));
  EXPECT_TRUE(r.allowed("app", "telemetry/spectrogram", Op::kRead));
  EXPECT_FALSE(r.allowed("app", "decisions", Op::kRead));
}

TEST(Rbac, GlobalWildcard) {
  Rbac r;
  r.define_role("admin", {Permission{"*", true, true}});
  r.assign_role("root", "admin");
  EXPECT_TRUE(r.allowed("root", "anything/at/all", Op::kWrite));
}

TEST(Rbac, MultipleRolesUnion) {
  Rbac r;
  r.define_role("a", {Permission{"ns-a", true, false}});
  r.define_role("b", {Permission{"ns-b", false, true}});
  r.assign_role("app", "a");
  r.assign_role("app", "b");
  EXPECT_TRUE(r.allowed("app", "ns-a", Op::kRead));
  EXPECT_TRUE(r.allowed("app", "ns-b", Op::kWrite));
  EXPECT_FALSE(r.allowed("app", "ns-b", Op::kRead));
}

TEST(Rbac, AssigningUndefinedRoleThrows) {
  Rbac r;
  EXPECT_THROW(r.assign_role("app", "nope"), CheckError);
}

TEST(Rbac, AbacAllowGrantsByAttribute) {
  Rbac r;
  r.set_attribute("app", "function", "monitoring");
  r.add_abac_rule(AbacRule{"function", "monitoring", "telemetry/*",
                           Op::kRead, Effect::kAllow});
  EXPECT_TRUE(r.allowed("app", "telemetry/kpm", Op::kRead));
  EXPECT_FALSE(r.allowed("app", "telemetry/kpm", Op::kWrite));
}

TEST(Rbac, AbacDenyOverridesRoleGrant) {
  Rbac r;
  r.define_role("admin", {Permission{"*", true, true}});
  r.assign_role("app", "admin");
  r.set_attribute("app", "vendor", "untrusted");
  r.add_abac_rule(AbacRule{"vendor", "untrusted", "decisions", Op::kWrite,
                           Effect::kDeny});
  EXPECT_FALSE(r.allowed("app", "decisions", Op::kWrite));
  EXPECT_TRUE(r.allowed("app", "decisions", Op::kRead));  // deny is op-scoped
}

TEST(Rbac, AbacRuleRequiresAttributeMatch) {
  Rbac r;
  r.set_attribute("app", "function", "billing");
  r.add_abac_rule(AbacRule{"function", "monitoring", "telemetry/*",
                           Op::kRead, Effect::kAllow});
  EXPECT_FALSE(r.allowed("app", "telemetry/kpm", Op::kRead));
}

TEST(Rbac, RolesOfReportsAssignments) {
  Rbac r;
  r.define_role("x", {});
  r.assign_role("app", "x");
  EXPECT_EQ(r.roles_of("app").count("x"), 1u);
  EXPECT_TRUE(r.roles_of("other").empty());
}

// -------------------------------------------------------------------- SDL

class SdlTest : public ::testing::Test {
 protected:
  SdlTest() : sdl_(&rbac_) {
    rbac_.define_role("rw", {Permission{"ns/*", true, true}});
    rbac_.define_role("ro", {Permission{"ns/*", true, false}});
    rbac_.assign_role("writer", "rw");
    rbac_.assign_role("reader", "ro");
  }
  Rbac rbac_;
  Sdl sdl_;
};

TEST_F(SdlTest, TensorRoundTrip) {
  const nn::Tensor t({2}, std::vector<float>{1.0f, 2.0f});
  EXPECT_EQ(sdl_.write_tensor("writer", "ns/a", "k", t), SdlStatus::kOk);
  nn::Tensor out;
  EXPECT_EQ(sdl_.read_tensor("reader", "ns/a", "k", out), SdlStatus::kOk);
  EXPECT_EQ(out[1], 2.0f);
}

TEST_F(SdlTest, TextRoundTrip) {
  EXPECT_EQ(sdl_.write_text("writer", "ns/a", "k", "hello"), SdlStatus::kOk);
  std::string out;
  EXPECT_EQ(sdl_.read_text("reader", "ns/a", "k", out), SdlStatus::kOk);
  EXPECT_EQ(out, "hello");
}

TEST_F(SdlTest, WriteDeniedWithoutPermission) {
  EXPECT_EQ(sdl_.write_tensor("reader", "ns/a", "k", nn::Tensor({1})),
            SdlStatus::kDenied);
  EXPECT_EQ(sdl_.write_tensor("stranger", "ns/a", "k", nn::Tensor({1})),
            SdlStatus::kDenied);
}

TEST_F(SdlTest, ReadMissingKeyIsNotFound) {
  nn::Tensor out;
  EXPECT_EQ(sdl_.read_tensor("reader", "ns/a", "missing", out),
            SdlStatus::kNotFound);
}

TEST_F(SdlTest, TypeConfusionIsNotFound) {
  sdl_.write_text("writer", "ns/a", "k", "text");
  nn::Tensor out;
  EXPECT_EQ(sdl_.read_tensor("reader", "ns/a", "k", out),
            SdlStatus::kNotFound);
}

TEST_F(SdlTest, VersionBumpsOnEveryWrite) {
  EXPECT_FALSE(sdl_.version("ns/a", "k").has_value());
  sdl_.write_text("writer", "ns/a", "k", "v1");
  EXPECT_EQ(sdl_.version("ns/a", "k"), 1u);
  sdl_.write_text("writer", "ns/a", "k", "v2");
  EXPECT_EQ(sdl_.version("ns/a", "k"), 2u);
}

TEST_F(SdlTest, LastWriterTracked) {
  sdl_.write_text("writer", "ns/a", "k", "x");
  EXPECT_EQ(sdl_.last_writer("ns/a", "k"), "writer");
}

TEST_F(SdlTest, AuditLogRecordsDenials) {
  sdl_.write_tensor("reader", "ns/a", "k", nn::Tensor({1}));
  ASSERT_EQ(sdl_.audit_log().size(), 1u);
  const AuditRecord& rec = sdl_.audit_log().front();
  EXPECT_EQ(rec.app_id, "reader");
  EXPECT_EQ(rec.op, Op::kWrite);
  EXPECT_FALSE(rec.allowed);
}

TEST_F(SdlTest, KeysListsNamespaceContents) {
  sdl_.write_text("writer", "ns/a", "k1", "x");
  sdl_.write_text("writer", "ns/a", "k2", "y");
  sdl_.write_text("writer", "ns/b", "k3", "z");
  const auto keys = sdl_.keys("ns/a");
  EXPECT_EQ(keys.size(), 2u);
}

TEST_F(SdlTest, DeniedReadLeavesOutUntouched) {
  sdl_.write_tensor("writer", "ns/a", "k", nn::Tensor({1}, 5.0f));
  nn::Tensor out({2}, std::vector<float>{7.0f, 8.0f});
  EXPECT_EQ(sdl_.read_tensor("stranger", "ns/a", "k", out),
            SdlStatus::kDenied);
  ASSERT_EQ(out.numel(), 2u);
  EXPECT_FLOAT_EQ(out[0], 7.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);

  sdl_.write_text("writer", "ns/a", "t", "secret");
  std::string text = "stale";
  EXPECT_EQ(sdl_.read_text("stranger", "ns/a", "t", text), SdlStatus::kDenied);
  EXPECT_EQ(text, "stale");
}

TEST_F(SdlTest, NotFoundReadLeavesOutUntouched) {
  nn::Tensor out({1}, std::vector<float>{3.0f});
  EXPECT_EQ(sdl_.read_tensor("reader", "ns/a", "missing", out),
            SdlStatus::kNotFound);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  std::string text = "stale";
  EXPECT_EQ(sdl_.read_text("reader", "ns/a", "missing", text),
            SdlStatus::kNotFound);
  EXPECT_EQ(text, "stale");
}

TEST_F(SdlTest, FailedWriteDoesNotBumpVersionOrWriter) {
  sdl_.write_text("writer", "ns/a", "k", "v1");
  ASSERT_EQ(sdl_.version("ns/a", "k"), 1u);
  // A denied write must not advance version or reassign last_writer.
  EXPECT_EQ(sdl_.write_text("reader", "ns/a", "k", "evil"),
            SdlStatus::kDenied);
  EXPECT_EQ(sdl_.version("ns/a", "k"), 1u);
  EXPECT_EQ(sdl_.last_writer("ns/a", "k"), "writer");
  std::string out;
  sdl_.read_text("reader", "ns/a", "k", out);
  EXPECT_EQ(out, "v1");
  // A key that has only ever seen denied writes has no version at all.
  EXPECT_EQ(sdl_.write_text("reader", "ns/a", "fresh", "x"),
            SdlStatus::kDenied);
  EXPECT_FALSE(sdl_.version("ns/a", "fresh").has_value());
  EXPECT_FALSE(sdl_.last_writer("ns/a", "fresh").has_value());
}

TEST_F(SdlTest, AuditRingIsBoundedAndCountsDrops) {
  sdl_.set_audit_capacity(4);
  for (int i = 0; i < 10; ++i)
    sdl_.write_text("writer", "ns/a", "k" + std::to_string(i), "v");
  EXPECT_EQ(sdl_.audit_log().size(), 4u);
  EXPECT_EQ(sdl_.audit_dropped_records(), 6u);
  // Oldest records were evicted: the ring holds the last four writes.
  EXPECT_EQ(sdl_.audit_log().front().key, "k6");
  EXPECT_EQ(sdl_.audit_log().back().key, "k9");
  // Shrinking the capacity drops the oldest surviving records too.
  sdl_.set_audit_capacity(2);
  EXPECT_EQ(sdl_.audit_log().size(), 2u);
  EXPECT_EQ(sdl_.audit_dropped_records(), 8u);
  EXPECT_EQ(sdl_.audit_log().front().key, "k8");
}

// ------------------------------------------------------------- onboarding

class OnboardingTest : public ::testing::Test {
 protected:
  OnboardingTest() : op_("operator-1", "s3cret"), svc_(&op_, &rbac_) {
    rbac_.define_role("xapp-standard",
                      {Permission{"telemetry/*", true, false}});
  }
  AppDescriptor descriptor() {
    AppDescriptor d;
    d.name = "ic-xapp";
    d.version = "1.0";
    d.vendor = "acme";
    d.payload = "binary-blob";
    d.requested_role = "xapp-standard";
    return d;
  }
  Rbac rbac_;
  Operator op_;
  OnboardingService svc_;
};

TEST_F(OnboardingTest, ValidPackageOnboards) {
  const OnboardResult r = svc_.onboard(op_.package(descriptor()));
  EXPECT_TRUE(r.accepted);
  EXPECT_FALSE(r.app_id.empty());
  EXPECT_TRUE(svc_.is_onboarded(r.app_id));
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_TRUE(op_.verify_certificate(*r.certificate));
}

TEST_F(OnboardingTest, OnboardingAssignsRequestedRole) {
  const OnboardResult r = svc_.onboard(op_.package(descriptor()));
  EXPECT_TRUE(rbac_.allowed(r.app_id, "telemetry/kpm", Op::kRead));
  EXPECT_FALSE(rbac_.allowed(r.app_id, "telemetry/kpm", Op::kWrite));
}

TEST_F(OnboardingTest, TamperedPayloadRejected) {
  SignedPackage pkg = op_.package(descriptor());
  pkg.descriptor.payload = "trojaned-blob";  // post-signing tamper
  const OnboardResult r = svc_.onboard(pkg);
  EXPECT_FALSE(r.accepted);
  EXPECT_NE(r.reason.find("integrity"), std::string::npos);
}

TEST_F(OnboardingTest, RoleEscalationAfterSigningRejected) {
  rbac_.define_role("admin", {Permission{"*", true, true}});
  SignedPackage pkg = op_.package(descriptor());
  pkg.descriptor.requested_role = "admin";  // escalate after signing
  EXPECT_FALSE(svc_.onboard(pkg).accepted);
}

TEST_F(OnboardingTest, ForgedSignatureRejected) {
  SignedPackage pkg = op_.package(descriptor());
  pkg.signature = "deadbeef";
  const OnboardResult r = svc_.onboard(pkg);
  EXPECT_FALSE(r.accepted);
  EXPECT_NE(r.reason.find("authentication"), std::string::npos);
}

TEST_F(OnboardingTest, WrongOperatorSignatureRejected) {
  Operator rogue("rogue-op", "other-secret");
  const SignedPackage pkg = rogue.package(descriptor());
  EXPECT_FALSE(svc_.onboard(pkg).accepted);
}

TEST_F(OnboardingTest, UnknownRoleRejected) {
  AppDescriptor d = descriptor();
  d.requested_role = "undefined-role";
  const OnboardResult r = svc_.onboard(op_.package(d));
  EXPECT_FALSE(r.accepted);
  EXPECT_NE(r.reason.find("authorization"), std::string::npos);
}

TEST_F(OnboardingTest, SignedMaliciousAppOnboards) {
  // The §2.2.2 supply-chain gap: onboarding validates provenance and
  // integrity, not behaviour. A properly signed package with malicious
  // logic sails through.
  AppDescriptor d = descriptor();
  d.name = "innocuous-looking-optimizer";
  d.payload = "malicious-logic-dormant-until-triggered";
  EXPECT_TRUE(svc_.onboard(op_.package(d)).accepted);
}

TEST_F(OnboardingTest, AttributesRegisteredForAbac) {
  AppDescriptor d = descriptor();
  d.attributes["function"] = "monitoring";
  const OnboardResult r = svc_.onboard(op_.package(d));
  rbac_.add_abac_rule(AbacRule{"function", "monitoring", "analytics/*",
                               Op::kRead, Effect::kAllow});
  EXPECT_TRUE(rbac_.allowed(r.app_id, "analytics/foo", Op::kRead));
}

TEST_F(OnboardingTest, DistinctAppIdsPerOnboarding) {
  const OnboardResult a = svc_.onboard(op_.package(descriptor()));
  const OnboardResult b = svc_.onboard(op_.package(descriptor()));
  EXPECT_NE(a.app_id, b.app_id);
}

TEST(OperatorCrypto, SignVerifyRoundTrip) {
  Operator op("o", "k");
  const std::string sig = op.sign("message");
  EXPECT_TRUE(op.verify("message", sig));
  EXPECT_FALSE(op.verify("other", sig));
  Operator other("o", "k2");
  EXPECT_FALSE(other.verify("message", sig));
}

TEST(PackageDigest, SensitiveToEveryField) {
  AppDescriptor d;
  d.name = "a";
  d.version = "1";
  d.vendor = "v";
  d.payload = "p";
  d.requested_role = "r";
  const std::string base = package_digest(d);
  AppDescriptor d2 = d;
  d2.version = "2";
  EXPECT_NE(package_digest(d2), base);
  AppDescriptor d3 = d;
  d3.type = AppType::kRApp;
  EXPECT_NE(package_digest(d3), base);
  AppDescriptor d4 = d;
  d4.attributes["k"] = "v";
  EXPECT_NE(package_digest(d4), base);
}

// ------------------------------------------------------------- Near-RT RIC

class RecordingXApp : public XApp {
 public:
  void on_indication(const E2Indication& ind, NearRtRic& /*ric*/) override {
    ttis.push_back(ind.tti);
    if (order_log != nullptr) order_log->push_back(tag);
  }
  std::vector<std::uint64_t> ttis;
  std::string tag;
  std::vector<std::string>* order_log = nullptr;
};

class FakeE2Node : public E2Node {
 public:
  void handle_control(const E2Control& c) override { controls.push_back(c); }
  std::string node_id() const override { return "ran-1"; }
  std::vector<E2Control> controls;
};

class NearRtRicTest : public ::testing::Test {
 protected:
  NearRtRicTest() : op_("op", "sec"), svc_(&op_, &rbac_) {
    rbac_.define_role("xapp-full",
                      {Permission{"telemetry/*", true, true},
                       Permission{"decisions/*", true, true},
                       Permission{"decisions", true, true},
                       Permission{"e2/control", false, true}});
  }
  std::string onboard(const std::string& name) {
    AppDescriptor d;
    d.name = name;
    d.version = "1";
    d.vendor = "v";
    d.payload = "p";
    d.requested_role = "xapp-full";
    return svc_.onboard(op_.package(d)).app_id;
  }
  E2Indication indication(std::uint64_t tti = 1) {
    E2Indication ind;
    ind.ran_node_id = "ran-1";
    ind.tti = tti;
    ind.kind = IndicationKind::kKpm;
    ind.payload = nn::Tensor({4}, 0.5f);
    return ind;
  }
  Rbac rbac_;
  Operator op_;
  OnboardingService svc_;
};

TEST_F(NearRtRicTest, RegistrationRequiresOnboarding) {
  NearRtRic ric(&rbac_, &svc_);
  EXPECT_FALSE(ric.register_xapp(std::make_shared<RecordingXApp>(),
                                 "never-onboarded", 0));
  EXPECT_TRUE(ric.register_xapp(std::make_shared<RecordingXApp>(),
                                onboard("x"), 0));
}

TEST_F(NearRtRicTest, IndicationWritesTelemetryToSdl) {
  NearRtRic ric(&rbac_, &svc_);
  ric.deliver_indication(indication(9));
  nn::Tensor out;
  EXPECT_EQ(ric.sdl().read_tensor(kRicPlatformId, kNsKpm, "ran-1/current",
                                  out),
            SdlStatus::kOk);
  EXPECT_EQ(out.shape(), (nn::Shape{4}));
  EXPECT_EQ(ric.indications_delivered(), 1u);
}

TEST_F(NearRtRicTest, DispatchFollowsPriorityOrder) {
  NearRtRic ric(&rbac_, &svc_);
  std::vector<std::string> order;
  auto late = std::make_shared<RecordingXApp>();
  late->tag = "late";
  late->order_log = &order;
  auto early = std::make_shared<RecordingXApp>();
  early->tag = "early";
  early->order_log = &order;
  // Register in reverse priority order; dispatch must sort by priority.
  ric.register_xapp(late, onboard("late"), 10);
  ric.register_xapp(early, onboard("early"), 1);
  ric.deliver_indication(indication());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "early");
  EXPECT_EQ(order[1], "late");
}

TEST_F(NearRtRicTest, ControlGatedByPolicy) {
  NearRtRic ric(&rbac_, &svc_);
  FakeE2Node node;
  ric.connect_e2(&node);
  const std::string authorized = onboard("good");
  ric.send_control(authorized, E2Control{});
  EXPECT_EQ(node.controls.size(), 1u);
  // An app without the e2/control permission is silently dropped.
  rbac_.define_role("no-control", {Permission{"telemetry/*", true, false}});
  rbac_.assign_role("weak-app", "no-control");
  ric.send_control("weak-app", E2Control{});
  EXPECT_EQ(node.controls.size(), 1u);
}

TEST_F(NearRtRicTest, DispatchStatsCount) {
  NearRtRic ric(&rbac_, &svc_);
  auto app = std::make_shared<RecordingXApp>();
  const std::string id = onboard("counted");
  ric.register_xapp(app, id, 0);
  ric.deliver_indication(indication(1));
  ric.deliver_indication(indication(2));
  EXPECT_EQ(ric.stats_of(id).dispatches, 2u);
  EXPECT_EQ(app->ttis.size(), 2u);
}

class SlowXApp : public XApp {
 public:
  explicit SlowXApp(double busy_ms) : busy_ms_(busy_ms) {}
  void on_indication(const E2Indication&, NearRtRic&) override {
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count() < busy_ms_) {
    }
  }

 private:
  double busy_ms_;
};

TEST_F(NearRtRicTest, DeadlineMissesAreAccounted) {
  // A 0.01 ms control window that a 2 ms xApp can never meet.
  NearRtRic ric(&rbac_, &svc_, /*control_window_ms=*/0.01);
  const std::string slow = onboard("slow");
  const std::string fast = onboard("fast");
  ric.register_xapp(std::make_shared<SlowXApp>(2.0), slow, 0);
  auto recorder = std::make_shared<RecordingXApp>();
  ric.register_xapp(recorder, fast, 1);
  ric.deliver_indication(indication(1));
  ric.deliver_indication(indication(2));
  EXPECT_EQ(ric.stats_of(slow).dispatches, 2u);
  EXPECT_EQ(ric.stats_of(slow).deadline_misses, 2u);
  EXPECT_GE(ric.stats_of(slow).total_ms, 4.0);
  // Missing the deadline is accounted, not fatal: dispatch still completed
  // and (by default) does not trip the app's circuit breaker.
  EXPECT_EQ(recorder->ttis.size(), 2u);
  EXPECT_EQ(ric.breaker_state(slow),
            fault::CircuitBreaker::State::kClosed);
  EXPECT_EQ(ric.stats_of(slow).faults, 0u);
}

TEST_F(NearRtRicTest, PoliciesAccepted) {
  NearRtRic ric(&rbac_, &svc_);
  A1Policy p;
  p.policy_type = "interference-management";
  ric.accept_policy(p);
  ASSERT_EQ(ric.policies().size(), 1u);
  EXPECT_EQ(ric.policies().front().policy_type, "interference-management");
}

// ------------------------------------------------------------- Non-RT RIC

class FakeO1 : public O1Interface {
 public:
  PmReport collect_pm() override {
    PmReport r;
    for (int id = 1; id <= 9; ++id) {
      CellPm pm;
      pm.prb_util_dl = 10.0 * id;
      pm.active = active_.count(id) == 0;
      r.cells[id] = pm;
    }
    return r;
  }
  bool set_cell_state(int cell_id, bool active) override {
    if (cell_id < 1 || cell_id > 9) return false;
    if (active) active_.erase(cell_id);
    else active_.insert(cell_id);
    ++commands;
    return true;
  }
  std::set<int> active_;  // ids currently forced inactive
  int commands = 0;
};

class RecordingRApp : public RApp {
 public:
  void on_pm_period(const PmReport& report, NonRtRic& /*ric*/) override {
    periods.push_back(report.period);
  }
  std::vector<std::uint64_t> periods;
};

class NonRtRicTest : public ::testing::Test {
 protected:
  NonRtRicTest() : op_("op", "sec"), svc_(&op_, &rbac_) {
    rbac_.define_role("rapp-full",
                      {Permission{"pm", true, true},
                       Permission{"rapp-decisions", true, true},
                       Permission{"o1/cell-control", false, true}});
  }
  std::string onboard(const std::string& name) {
    AppDescriptor d;
    d.name = name;
    d.version = "1";
    d.vendor = "v";
    d.payload = "p";
    d.type = AppType::kRApp;
    d.requested_role = "rapp-full";
    return svc_.onboard(op_.package(d)).app_id;
  }
  Rbac rbac_;
  Operator op_;
  OnboardingService svc_;
};

TEST_F(NonRtRicTest, StepPublishesPrbHistory) {
  NonRtRic ric(&rbac_, &svc_, /*history_window=*/4);
  FakeO1 o1;
  ric.connect_o1(&o1);
  ric.step();
  nn::Tensor hist;
  ASSERT_EQ(ric.sdl().read_tensor(kRicPlatformId, kNsPm, kKeyPrbHistory,
                                  hist),
            SdlStatus::kOk);
  EXPECT_EQ(hist.shape(), (nn::Shape{4, 9}));
  // The newest row carries the per-cell PRB = 10 * id pattern.
  EXPECT_FLOAT_EQ(hist.at2(3, 0), 10.0f);
  EXPECT_FLOAT_EQ(hist.at2(3, 8), 90.0f);
}

TEST_F(NonRtRicTest, HistorySlidesOverPeriods) {
  NonRtRic ric(&rbac_, &svc_, /*history_window=*/3);
  FakeO1 o1;
  ric.connect_o1(&o1);
  for (int i = 0; i < 5; ++i) ric.step();
  EXPECT_EQ(ric.periods_run(), 5u);
  nn::Tensor hist;
  ric.sdl().read_tensor(kRicPlatformId, kNsPm, kKeyPrbHistory, hist);
  EXPECT_EQ(hist.shape(), (nn::Shape{3, 9}));
}

TEST_F(NonRtRicTest, RappDispatchedEachPeriod) {
  NonRtRic ric(&rbac_, &svc_);
  FakeO1 o1;
  ric.connect_o1(&o1);
  auto app = std::make_shared<RecordingRApp>();
  ASSERT_TRUE(ric.register_rapp(app, onboard("r"), 0));
  ric.step();
  ric.step();
  EXPECT_EQ(app->periods.size(), 2u);
}

TEST_F(NonRtRicTest, CellControlRequiresPermission) {
  NonRtRic ric(&rbac_, &svc_);
  FakeO1 o1;
  ric.connect_o1(&o1);
  const std::string strong = onboard("strong");
  EXPECT_TRUE(ric.request_cell_state(strong, 4, false));
  EXPECT_EQ(o1.commands, 1);
  rbac_.define_role("weak", {Permission{"pm", true, false}});
  rbac_.assign_role("weak-app", "weak");
  EXPECT_FALSE(ric.request_cell_state("weak-app", 4, false));
  EXPECT_EQ(o1.commands, 1);
}

TEST_F(NonRtRicTest, A1PolicyReachesNearRtRic) {
  NonRtRic non_rt(&rbac_, &svc_);
  NearRtRic near_rt(&rbac_, &svc_);
  A1Policy p;
  p.policy_type = "energy-saving";
  non_rt.push_a1_policy(near_rt, p);
  ASSERT_EQ(near_rt.policies().size(), 1u);
  EXPECT_EQ(near_rt.policies().front().policy_type, "energy-saving");
}

TEST_F(NonRtRicTest, RegistrationRequiresOnboarding) {
  NonRtRic ric(&rbac_, &svc_);
  EXPECT_FALSE(
      ric.register_rapp(std::make_shared<RecordingRApp>(), "ghost", 0));
}

// ------------------------------------------------------------- handles --

TEST_F(SdlTest, HandleHonoursAPolicyChangeMidRun) {
  SdlHandle h = sdl_.resolve("writer", "ns/a", "k");
  EXPECT_EQ(sdl_.write_text(h, "v1"), SdlStatus::kOk);
  EXPECT_EQ(sdl_.write_text(h, "v2"), SdlStatus::kOk);  // cached decision

  rbac_.revoke_role("writer", "rw");
  EXPECT_EQ(sdl_.write_text(h, "v3"), SdlStatus::kDenied);
  {
    const AuditRecord rec = sdl_.audit_log().back();
    EXPECT_EQ(rec.app_id, "writer");
    EXPECT_EQ(rec.ns, "ns/a");
    EXPECT_EQ(rec.key, "k");
    EXPECT_EQ(rec.op, Op::kWrite);
    EXPECT_FALSE(rec.allowed);
  }
  std::string out;
  SdlHandle r = sdl_.resolve("reader", "ns/a", "k");
  ASSERT_EQ(sdl_.read_text(r, out), SdlStatus::kOk);
  EXPECT_EQ(out, "v2");

  rbac_.assign_role("writer", "rw");
  EXPECT_EQ(sdl_.write_text(h, "v4"), SdlStatus::kOk);
  EXPECT_TRUE(sdl_.audit_log().back().allowed);
  // An ABAC deny added later overrides the role as well.
  rbac_.set_attribute("writer", "vendor", "x");
  rbac_.add_abac_rule(AbacRule{"vendor", "x", "ns/*", Op::kWrite,
                               Effect::kDeny});
  EXPECT_EQ(sdl_.write_text(h, "v5"), SdlStatus::kDenied);
  EXPECT_EQ(sdl_.version(h), 3u);
}

TEST_F(SdlTest, HandleReadsMissingEntriesThenFindsThem) {
  SdlHandle r = sdl_.resolve("reader", "ns/b", "later");
  nn::Tensor out;
  EXPECT_EQ(sdl_.read_tensor(r, out), SdlStatus::kNotFound);
  EXPECT_EQ(sdl_.version(r), std::nullopt);
  std::string writer;
  EXPECT_FALSE(sdl_.last_writer(r, writer));
  ASSERT_EQ(sdl_.write_tensor("writer", "ns/b", "later",
                              nn::Tensor({2}, std::vector<float>{3.0f, 4.0f})),
            SdlStatus::kOk);
  ASSERT_EQ(sdl_.read_tensor(r, out), SdlStatus::kOk);
  EXPECT_EQ(out[1], 4.0f);
  EXPECT_EQ(sdl_.version(r), 1u);
  ASSERT_TRUE(sdl_.last_writer(r, writer));
  EXPECT_EQ(writer, "writer");
}

/// Drives one store through a fixed op mix, either through resolved
/// handles or through the string-keyed calls, recording every status.
std::vector<SdlStatus> drive_sdl(Sdl& sdl, bool handles) {
  std::vector<SdlStatus> st;
  const std::string keys[3] = {"k0", "k1", "k2"};
  std::vector<SdlHandle> w, rd;
  for (const std::string& k : keys) {
    w.push_back(sdl.resolve("writer", "ns/t", k));
    rd.push_back(sdl.resolve("reader", "ns/t", k));
  }
  nn::Tensor out;
  std::string text;
  for (int i = 0; i < 60; ++i) {
    const std::size_t k = static_cast<std::size_t>(i % 3);
    const std::vector<float> payload{float(i), -float(i), 0.5f};
    switch (i % 5) {
      case 0:
        st.push_back(handles
                         ? sdl.write_tensor(w[k], nn::Tensor({3}, payload))
                         : sdl.write_tensor("writer", "ns/t", keys[k],
                                            nn::Tensor({3}, payload)));
        break;
      case 1:
        st.push_back(handles ? sdl.write_tensor_inplace(w[k], {3}, payload)
                             : sdl.write_tensor_inplace("writer", "ns/t",
                                                        keys[k], {3}, payload));
        break;
      case 2:
        st.push_back(handles ? sdl.write_text(w[k], "t" + std::to_string(i))
                             : sdl.write_text("writer", "ns/t", keys[k],
                                              "t" + std::to_string(i)));
        break;
      case 3:
        st.push_back(handles
                         ? sdl.read_tensor(rd[k], out)
                         : sdl.read_tensor("reader", "ns/t", keys[k], out));
        break;
      default:
        st.push_back(handles ? sdl.read_text(rd[k], text)
                             : sdl.read_text("reader", "ns/t", keys[k], text));
        // A denied write: audited, no fault draw.
        st.push_back(handles ? sdl.write_text(rd[k], "x")
                             : sdl.write_text("reader", "ns/t", keys[k], "x"));
        break;
    }
  }
  return st;
}

std::string file_bytes(const std::string& path) {
  std::string out;
  EXPECT_TRUE(persist::read_file(path, out).ok()) << path;
  return out;
}

TEST_F(SdlTest, HandlesDrawTheStringApisFaultsAuditAndBytes) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed 1234\n"
      "site sdl.read transient p=0.2\n"
      "site sdl.write drop p=0.1\n"
      "site sdl.write corrupt p=0.2 corrupt_scale=0.5\n"
      "site sdl.shard transient p=0.1\n");
  const std::string root = ::testing::TempDir() + "orev_sdl_handles";
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  std::vector<std::string> dirs;
  std::vector<std::vector<SdlStatus>> statuses;
  std::vector<std::vector<std::string>> audits;
  std::vector<std::string> journals;
  std::vector<std::uint64_t> counters;
  for (const bool handles : {false, true}) {
    const std::string dir = root + (handles ? "/handles" : "/strings");
    std::filesystem::create_directories(dir, ec);
    Sdl sdl(&rbac_);
    ASSERT_TRUE(sdl.attach_storage(dir).ok());
    fault::FaultInjector inj(plan);
    sdl.set_fault_injector(&inj);
    statuses.push_back(drive_sdl(sdl, handles));
    std::vector<std::string> audit;
    for (std::size_t i = 0; i < sdl.audit_log().size(); ++i) {
      const AuditRecord rec = sdl.audit_log()[i];
      audit.push_back(rec.app_id + "|" + rec.ns + "|" + rec.key + "|" +
                      std::to_string(static_cast<int>(rec.op)) +
                      (rec.allowed ? "+" : "-"));
    }
    audits.push_back(audit);
    journals.push_back(file_bytes(dir + "/sdl_journal.log"));
    counters.push_back(sdl.unavailable_reads() * 1000000 +
                       sdl.unavailable_writes() * 10000 +
                       sdl.dropped_writes() * 100 + sdl.corrupted_writes());
    sdl.set_fault_injector(nullptr);
    ASSERT_TRUE(sdl.snapshot().ok());
    dirs.push_back(dir);
  }
  EXPECT_EQ(statuses[0], statuses[1]);
  EXPECT_EQ(audits[0], audits[1]);
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_GT(counters[0], 0u);  // the plan did inject faults
  EXPECT_FALSE(journals[0].empty());
  EXPECT_EQ(journals[0], journals[1]);
  EXPECT_EQ(file_bytes(dirs[0] + "/sdl_snapshot.ckpt"),
            file_bytes(dirs[1] + "/sdl_snapshot.ckpt"));
  std::filesystem::remove_all(root, ec);
}

TEST_F(SdlTest, AuditRingCapacityChangesKeepTheNewestRecords) {
  SdlHandle h = sdl_.resolve("writer", "ns/a", "k");
  sdl_.set_audit_capacity(3);
  for (int i = 0; i < 5; ++i) sdl_.write_text(h, "v");
  EXPECT_EQ(sdl_.audit_log().size(), 3u);
  EXPECT_EQ(sdl_.audit_dropped_records(), 2u);
  // Growing keeps the ring's order; new records append after the newest.
  sdl_.set_audit_capacity(5);
  sdl_.write_text("writer", "ns/a", "k9", "v");
  ASSERT_EQ(sdl_.audit_log().size(), 4u);
  EXPECT_EQ(sdl_.audit_log().front().key, "k");
  EXPECT_EQ(sdl_.audit_log().back().key, "k9");
  sdl_.clear_audit_log();
  EXPECT_TRUE(sdl_.audit_log().empty());
}

}  // namespace
}  // namespace orev::oran
