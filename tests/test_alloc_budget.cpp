// Allocation budget of the near-RT indication loop.
//
// This executable replaces the global operator new with a counting one, so
// it is its own test binary. Each test builds a RIC + IC xApp + defended
// serve engine, delivers binary KPM frames until every buffer on the path
// (SDL handles, the audit ring, request and quarantine slots, sketches,
// per-flow state) has reached its steady size, and then asserts that the
// loop makes at most one heap allocation per indication:
//   * a fleet-like loop: 16 flows, about 30% perturbed rows, a distilled
//     sibling, adaptive thresholds, quarantine review and the release
//     channel;
//   * a city-like loop: 256 cells, almost every row quarantined, review
//     off;
//   * the fleet-like loop with SDL storage attached (journal on, fsync
//     off), so every committed write is also encoded and appended.
// A fourth test holds per-sample PGD on the compiled gradient plan to the
// allocations of its own results.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "apps/ic_xapp.hpp"
#include "apps/model_zoo.hpp"
#include "attack/pgm.hpp"
#include "oran/e2_codec.hpp"
#include "oran/near_rt_ric.hpp"
#include "oran/onboarding.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The replacement pair below is malloc/free underneath, which GCC's
// new/delete pairing check cannot see through.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace orev {
namespace {

constexpr int kFeatures = 4;

class CountingNode : public oran::E2Node {
 public:
  void handle_control(const oran::E2Control&) override { ++controls; }
  std::string node_id() const override { return "alloc-ran"; }
  std::uint64_t controls = 0;
};

struct LoopShape {
  int flows = 16;
  /// Share of rows pushed far off their walk (attack-scale steps).
  double perturbed = 0.3;
  /// Calibration spread: a narrow one quarantines nearly every row.
  float calib_sigma = 0.05f;
  bool sibling = true;
  std::uint64_t review_every = 24;
  bool release_channel = true;
  /// Non-empty: attach SDL storage here (fsync off) before the warm-up.
  std::string storage_dir;
};

/// RIC + IC xApp + defended engine driven by binary KPM frames.
class IndicationLoop {
 public:
  explicit IndicationLoop(const LoopShape& shape)
      : shape_(shape), walk_(static_cast<std::size_t>(shape.flows)) {
    util::set_num_threads(1);
    rbac_.define_role("ic-xapp", {oran::Permission{"telemetry/*", true, false},
                                  oran::Permission{"decisions", true, true},
                                  oran::Permission{"defense-alerts", true, true},
                                  oran::Permission{"e2/control", false, true}});
    oran::AppDescriptor d;
    d.name = "ic";
    d.version = "1";
    d.vendor = "alloc";
    d.payload = "ic";
    d.requested_role = "ic-xapp";
    const std::string id = svc_.onboard(op_.package(d)).app_id;
    app_ = std::make_shared<apps::IcXApp>(
        apps::make_kpm_dnn(kFeatures, 4, 17), oran::IndicationKind::kKpm, 13);
    EXPECT_TRUE(ric_.register_xapp(app_, id, 10));
    ric_.connect_e2(&node_);
    if (!shape_.storage_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(shape_.storage_dir, ec);
      std::filesystem::create_directories(shape_.storage_dir, ec);
      EXPECT_TRUE(ric_.sdl()
                      .attach_storage(shape_.storage_dir,
                                      /*sync_each_write=*/false)
                      .ok());
    }
    for (auto& w : walk_)
      for (float& x : w) x = 0.5f;

    // Warm-up on the synchronous path, keeping each flow's clean rows.
    std::vector<float> all;
    std::vector<std::vector<float>> per_flow(walk_.size());
    for (int round = 0; round < 12; ++round)
      for (int f = 0; f < shape_.flows; ++f) {
        const std::array<float, kFeatures> x = deliver(f, /*perturb=*/false);
        all.insert(all.end(), x.begin(), x.end());
        per_flow[static_cast<std::size_t>(f)].insert(
            per_flow[static_cast<std::size_t>(f)].end(), x.begin(), x.end());
      }

    serve::ServeConfig cfg;
    cfg.name = "alloc";
    cfg.batch_max = 32;
    cfg.deadline_us = 1000000;
    cfg.flush_wait_us = 2000;
    cfg.defense.enable = true;
    cfg.defense.use_ensemble = shape_.sibling;
    cfg.defense.quarantine_capacity = 64;
    cfg.defense.finetune_capacity = 128;
    cfg.defense.adaptive.enable = true;
    cfg.defense.adaptive.warmup = 16;
    cfg.defense.adaptive.update_every = 8;
    cfg.defense.review_every = shape_.review_every;
    engine_ = std::make_unique<serve::ServeEngine>(
        apps::make_kpm_dnn(kFeatures, 4, 17), cfg);
    if (shape_.sibling)
      engine_->attach_defense_sibling(apps::make_one_layer({kFeatures}, 4, 5));
    // A narrow calibration spread makes ordinary rows look anomalous.
    const float scale = shape_.calib_sigma / 0.05f;
    for (float& v : all) v = 0.5f + (v - 0.5f) * scale;
    engine_->defense()->calibrate(
        nn::Tensor({static_cast<int>(all.size() / kFeatures), kFeatures}, all));
    for (int f = 0; f < shape_.flows; ++f) {
      std::vector<float>& rows = per_flow[static_cast<std::size_t>(f)];
      for (float& v : rows) v = 0.5f + (v - 0.5f) * scale;
      engine_->defense()->calibrate_flow(
          flow_key(f),
          nn::Tensor({static_cast<int>(rows.size() / kFeatures), kFeatures},
                     rows),
          1);
    }
    app_->set_serve_engine(engine_.get());
    if (shape_.release_channel) app_->enable_release_channel(ric_);
  }

  ~IndicationLoop() { engine_->drain(); }

  /// Deliver `n` indications round-robin over the flows.
  void run(int n) {
    for (int i = 0; i < n; ++i) {
      const int f = static_cast<int>(next_++ % static_cast<std::uint64_t>(
                                                   shape_.flows));
      deliver(f, rng_.uniform(0.0f, 1.0f) < shape_.perturbed);
    }
  }

  /// Allocations per indication over `n` indications after `warm` more.
  double allocs_per_indication(int warm, int n) {
    run(warm);
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    run(n);
    const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    return static_cast<double>(a1 - a0) / n;
  }

  const apps::IcXApp& app() const { return *app_; }
  const oran::Sdl& sdl() const { return ric_.sdl(); }
  const serve::ServeEngine& engine() const { return *engine_; }
  std::uint64_t controls() const { return node_.controls; }

 private:
  static std::string flow_key(int f) {
    return std::string(oran::kNsKpm) + "/cell-" + std::to_string(f) +
           "/current";
  }

  /// One frame of flow `f`: a small step of its clean walk, or (perturbed)
  /// the walk pushed far off. Returns the delivered features.
  std::array<float, kFeatures> deliver(int f, bool perturb) {
    std::array<float, kFeatures>& w = walk_[static_cast<std::size_t>(f)];
    std::array<float, kFeatures> x{};
    for (int j = 0; j < kFeatures; ++j) {
      w[j] = 0.5f + 0.9f * (w[j] - 0.5f) + rng_.normal(0.0f, 0.02f);
      x[j] = perturb ? w[j] + 0.6f : w[j];
    }
    const std::string_view frame =
        arena_.encode(static_cast<std::uint32_t>(f), tti_++,
                      oran::IndicationKind::kKpm, x);
    EXPECT_TRUE(ric_.deliver_kpm_frame(frame));
    return x;
  }

  LoopShape shape_;
  oran::Rbac rbac_;
  oran::Operator op_{"alloc-op", "alloc-secret"};
  oran::OnboardingService svc_{&op_, &rbac_};
  oran::NearRtRic ric_{&rbac_, &svc_};
  CountingNode node_;
  std::shared_ptr<apps::IcXApp> app_;
  std::unique_ptr<serve::ServeEngine> engine_;
  oran::KpmFrameArena arena_;
  std::vector<std::array<float, kFeatures>> walk_;
  Rng rng_{0xa11c};
  std::uint64_t tti_ = 0;
  std::uint64_t next_ = 0;
};

TEST(AllocBudget, DefendedFleetLoopAllocatesAtMostOncePerIndication) {
  LoopShape shape;
  IndicationLoop loop(shape);
  const double per_ind = loop.allocs_per_indication(20000, 20000);
  std::printf("[alloc] fleet-like loop: %.4f allocations per indication "
              "(%llu quarantined, %llu released)\n",
              per_ind,
              static_cast<unsigned long long>(loop.app().serve_quarantined()),
              static_cast<unsigned long long>(loop.app().serve_released()));
  EXPECT_LE(per_ind, 1.0);
  // The loop exercised what it is meant to: quarantine, review, controls.
  EXPECT_GT(loop.app().serve_quarantined(), 1000u);
  EXPECT_GT(loop.engine().defense()->review_passes(), 0u);
  EXPECT_GT(loop.controls(), 40000u);
}

TEST(AllocBudget, QuarantineHeavyCityLoopAllocatesAtMostOncePerIndication) {
  LoopShape shape;
  shape.flows = 256;
  shape.perturbed = 0.0;
  shape.calib_sigma = 0.002f;
  shape.sibling = false;
  shape.review_every = 0;
  shape.release_channel = false;
  IndicationLoop loop(shape);
  const double per_ind = loop.allocs_per_indication(20000, 20000);
  std::printf("[alloc] city-like loop: %.4f allocations per indication "
              "(%llu quarantined)\n",
              per_ind,
              static_cast<unsigned long long>(loop.app().serve_quarantined()));
  EXPECT_LE(per_ind, 1.0);
  // Nearly every row is quarantined: the alert path is the steady state.
  EXPECT_GT(loop.app().serve_quarantined(), 30000u);
}

TEST(AllocBudget, PersistedSdlLoopAllocatesAtMostOncePerIndication) {
  LoopShape shape;
  shape.storage_dir = ::testing::TempDir() + "orev_alloc_sdl";
  std::uintmax_t journal_bytes = 0;
  {
    IndicationLoop loop(shape);
    ASSERT_TRUE(loop.sdl().storage_attached());
    const double per_ind = loop.allocs_per_indication(20000, 20000);
    std::printf("[alloc] persisted fleet-like loop: %.4f allocations per "
                "indication\n",
                per_ind);
    EXPECT_LE(per_ind, 1.0);
    std::error_code ec;
    journal_bytes = std::filesystem::file_size(
        shape.storage_dir + "/sdl_journal.log", ec);
  }
  // The writes really went through the journal.
  EXPECT_GT(journal_bytes, 1000000u);
  std::error_code ec;
  std::filesystem::remove_all(shape.storage_dir, ec);
}

TEST(AllocBudget, PgdOnGradPlanAllocatesOnlyItsResults) {
  // Per-sample PGD on the compiled gradient plan: after warm-up a whole
  // perturbation allocates its adversarial sample and one gradient buffer
  // (a tensor is a shape plus its data: two allocations each) — at most
  // steps + 2 — where the layer walk allocated every activation and
  // gradient of every step.
  util::set_num_threads(1);
  constexpr int kSteps = 5;
  nn::Model surrogate = apps::make_base_cnn({1, 24, 24}, 2, 11);
  Rng rng(0x9d);
  const nn::Tensor x = nn::Tensor::uniform({1, 24, 24}, rng, 0.0f, 1.0f);
  attack::Pgd pgd(0.3f, kSteps);
  for (int i = 0; i < 3; ++i) pgd.perturb(surrogate, x, 1);
  ASSERT_EQ(surrogate.grad_plan_refusal(), nn::CompileError::kOk);
  std::uint64_t worst = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const nn::Tensor adv = pgd.perturb(surrogate, x, 1);
    const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    worst = std::max<std::uint64_t>(worst, a1 - a0);
    ASSERT_EQ(adv.shape(), x.shape());
  }
  std::printf("[alloc] PGD(%d) on the gradient plan: %llu allocations per "
              "perturbation\n",
              kSteps, static_cast<unsigned long long>(worst));
  EXPECT_LE(worst, static_cast<std::uint64_t>(kSteps + 2));
}

}  // namespace
}  // namespace orev
