// Defense-plane tests (DESIGN.md §14): the three inline detectors
// (calibration profile, perturbation-norm screen, ensemble disagreement)
// and the bounded fine-tuning queue; the DefensePlane's quarantine ring,
// LKG-poisoning resistance, burst flight trigger with hysteresis, and
// checkpoint guard; and the ServeEngine integration — kQuarantined
// completions, byte-identical decisions across thread counts, screening on
// the degraded synchronous path, the config fingerprint, and the IC xApp's
// end-to-end quarantine → fail-safe → attestation-alert chain.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "apps/ic_xapp.hpp"
#include "apps/model_zoo.hpp"
#include "defense/detectors.hpp"
#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "oran/near_rt_ric.hpp"
#include "serve/serve.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/obs/flight.hpp"
#include "util/persist/bytes.hpp"
#include "util/thread_pool.hpp"

namespace orev {
namespace {

using serve::DefenseConfig;
using serve::DefensePlane;
using serve::DefenseVerdict;
using serve::ServeConfig;
using serve::ServeEngine;
using serve::ServeResult;
using serve::ServeStatus;

class ThreadGuard {
 public:
  ThreadGuard() : saved_(util::num_threads()) {}
  ~ThreadGuard() { util::set_num_threads(saved_); }

 private:
  int saved_;
};

/// KPM-style victim matching the serving tests: dense DNN over 4 features.
nn::Model kpm_model(std::uint64_t seed = 17) {
  return apps::make_kpm_dnn(/*num_features=*/4, /*num_classes=*/4, seed);
}

/// One clean sample: tight cluster around 0.5 per feature (σ = 0.05).
nn::Tensor cluster_row(Rng& rng) {
  nn::Tensor t({4});
  for (std::size_t j = 0; j < 4; ++j)
    t[j] = 0.5f + rng.normal(0.0f, 0.05f);
  return t;
}

/// An out-of-distribution sample: every feature ~12 cluster σ away.
nn::Tensor far_row(Rng& rng) {
  nn::Tensor t = cluster_row(rng);
  for (std::size_t j = 0; j < 4; ++j) t[j] += 0.6f;
  return t;
}

/// [m, 4] batch of clean cluster rows for profile calibration.
nn::Tensor cluster_rows(int m, std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor rows({m, 4});
  for (int i = 0; i < m; ++i) {
    const nn::Tensor r = cluster_row(rng);
    rows.set_batch(i, r);
  }
  return rows;
}

// ---------------------------------------------------- calibration profile --

TEST(CalibrationProfile, ScoresDistanceFromTheCleanDistribution) {
  defense::CalibrationProfile prof;
  nn::Tensor first({4}, 0.5f);
  prof.observe(first.raw(), first.numel());
  EXPECT_FALSE(prof.ready());  // variance needs two samples
  EXPECT_EQ(prof.score(first), 0.0);

  prof.observe_rows(cluster_rows(64, 0xca11));
  ASSERT_TRUE(prof.ready());
  EXPECT_EQ(prof.features(), 4u);
  EXPECT_EQ(prof.samples(), 65u);

  Rng rng(0x5c0);
  const double clean = prof.score(cluster_row(rng));
  const double adv = prof.score(far_row(rng));
  // A clean row's per-feature z's are ~N(0,1), so the normalized
  // Mahalanobis score sits near 1; the 12σ offset lands far above it.
  EXPECT_LT(clean, 4.0);
  EXPECT_GT(adv, 6.0);
  EXPECT_GT(adv, clean);

  // A row of the wrong width cannot be scored against this profile.
  nn::Tensor wrong({3}, 0.5f);
  EXPECT_EQ(prof.score(wrong), 0.0);
}

TEST(CalibrationProfile, RoundTripsThroughBytes) {
  defense::CalibrationProfile prof;
  prof.observe_rows(cluster_rows(32, 0xabe));

  persist::ByteWriter w;
  prof.save(w);
  persist::ByteReader r(w.buffer());
  defense::CalibrationProfile loaded;
  ASSERT_TRUE(loaded.load(r));

  EXPECT_EQ(loaded.samples(), prof.samples());
  Rng rng(0x99);
  for (int i = 0; i < 4; ++i) {
    const nn::Tensor probe = i % 2 == 0 ? cluster_row(rng) : far_row(rng);
    EXPECT_DOUBLE_EQ(loaded.score(probe), prof.score(probe)) << "probe " << i;
  }

  // A truncated stream must fail cleanly, not half-load.
  persist::ByteReader torn(
      std::string_view(w.buffer().data(), w.buffer().size() / 2));
  defense::CalibrationProfile partial;
  EXPECT_FALSE(partial.load(torn));
}

// ---------------------------------------------------------- norm screen --

/// Calibrate one flow with a gentle random walk (per-feature steps of
/// ±0.01), returning the walk's final row (the flow's LKG afterwards).
nn::Tensor calibrate_walk(defense::NormScreen& screen, const std::string& key,
                          int steps, std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor row({4}, 0.5f);
  for (int v = 0; v < steps; ++v) {
    screen.calibrate(key, static_cast<std::uint64_t>(v), row.raw(),
                     row.numel());
    for (std::size_t j = 0; j < 4; ++j)
      row[j] += rng.uniform(-0.01f, 0.01f);
  }
  return row;
}

TEST(NormScreen, FlagsStepsFarBeyondTheNaturalWalk) {
  defense::NormScreen screen;
  const nn::Tensor lkg = calibrate_walk(screen, "flow/a", 20, 0x4a1);
  ASSERT_TRUE(screen.ready());
  EXPECT_EQ(screen.flows(), 1u);

  // A natural-sized next step scores low; an ε=0.5 perturbation step is
  // many step-σ out.
  nn::Tensor natural = lkg;
  natural[0] += 0.008f;
  nn::Tensor adv = lkg;
  for (std::size_t j = 0; j < 4; ++j) adv[j] += 0.5f;
  const double z_nat = screen.score("flow/a", 20, natural.raw(), 4);
  const double z_adv = screen.score("flow/a", 20, adv.raw(), 4);
  EXPECT_LT(z_nat, 4.0);
  EXPECT_GT(z_adv, 4.0);

  // First-sight flows, empty keys and shape changes all opt out (0).
  EXPECT_EQ(screen.score("flow/unknown", 0, adv.raw(), 4), 0.0);
  EXPECT_EQ(screen.score("", 20, adv.raw(), 4), 0.0);
  EXPECT_EQ(screen.score("flow/a", 20, adv.raw(), 3), 0.0);
}

TEST(NormScreen, StalenessAndOutOfOrderVersionsDisableTheScreen) {
  defense::NormScreenConfig cfg;
  cfg.max_stale = 2;
  defense::NormScreen screen(cfg);
  const nn::Tensor lkg = calibrate_walk(screen, "flow/a", 20, 0x4a2);
  nn::Tensor adv = lkg;
  for (std::size_t j = 0; j < 4; ++j) adv[j] += 0.5f;

  // LKG is at version 19: lags of 1 and 2 score, 3 is past the bound,
  // and a version below the LKG (out-of-order submit) never scores.
  EXPECT_GT(screen.score("flow/a", 20, adv.raw(), 4), 4.0);
  EXPECT_GT(screen.score("flow/a", 21, adv.raw(), 4), 4.0);
  EXPECT_EQ(screen.score("flow/a", 22, adv.raw(), 4), 0.0);
  EXPECT_EQ(screen.score("flow/a", 18, adv.raw(), 4), 0.0);

  // reset_flow drops the LKG: the next sight is "first sight" again.
  screen.reset_flow("flow/a");
  EXPECT_EQ(screen.flows(), 0u);
  EXPECT_EQ(screen.score("flow/a", 20, adv.raw(), 4), 0.0);
}

TEST(NormScreen, RoundTripsThroughBytes) {
  defense::NormScreen screen;
  const nn::Tensor lkg = calibrate_walk(screen, "flow/a", 20, 0x4a3);
  calibrate_walk(screen, "flow/b", 10, 0x4a4);

  persist::ByteWriter w;
  screen.save(w);
  persist::ByteReader r(w.buffer());
  defense::NormScreen loaded;
  ASSERT_TRUE(loaded.load(r));

  EXPECT_EQ(loaded.calibration_steps(), screen.calibration_steps());
  EXPECT_EQ(loaded.flows(), screen.flows());
  nn::Tensor adv = lkg;
  for (std::size_t j = 0; j < 4; ++j) adv[j] += 0.3f;
  EXPECT_DOUBLE_EQ(loaded.score("flow/a", 20, adv.raw(), 4),
                   screen.score("flow/a", 20, adv.raw(), 4));
}

// ------------------------------------------------- ensemble disagreement --

TEST(EnsembleDisagreement, ScoresTheSiblingsDisbelief) {
  // The hand-weighted linear model is saturated: p(class 1 | (0.9, 0.9))
  // ≈ 1, so agreement scores ≈ 0 and dissent scores ≈ 1.
  defense::EnsembleDisagreement ens(test::known_linear_model());
  const nn::Tensor hi({2}, {0.9f, 0.9f});
  EXPECT_LT(ens.score(hi, 1), 0.1);
  EXPECT_GT(ens.score(hi, 0), 0.9);
  // Out-of-range primaries (a shed's −1, a bogus class) score full dissent.
  EXPECT_EQ(ens.score(hi, -1), 1.0);
  EXPECT_EQ(ens.score(hi, 5), 1.0);
}

TEST(EnsembleDisagreement, DisbeliefMatchesNnSoftmaxBitForBit) {
  // The shared helper behind both the compiled and the layer-walk ensemble
  // score must reproduce 1 − nn::softmax(logits)[pred] exactly, including
  // saturated and tied logits.
  Rng rng(0x50f7);
  for (int trial = 0; trial < 200; ++trial) {
    const int classes = 2 + trial % 6;
    const float scale = trial % 5 == 4 ? 80.0f : 3.0f;
    nn::Tensor logits({1, classes});
    for (int j = 0; j < classes; ++j)
      logits[static_cast<std::size_t>(j)] = rng.uniform(-scale, scale);
    if (trial % 7 == 0) logits[1] = logits[0];  // a tie
    const nn::Tensor proba = nn::softmax(logits);
    for (int pred = -1; pred <= classes; ++pred) {
      const double want =
          pred < 0 || pred >= classes
              ? 1.0
              : 1.0 - static_cast<double>(
                          proba[static_cast<std::size_t>(pred)]);
      ASSERT_EQ(defense::sibling_disbelief(logits.raw(), classes, pred), want)
          << "trial " << trial << " pred " << pred;
    }
  }
}

// ------------------------------------------------------ fine-tune queue --

TEST(FineTuneQueue, StaysBoundedAndCountsDrops) {
  defense::FineTuneQueue q(3);
  EXPECT_EQ(q.capacity(), 3);
  EXPECT_EQ(defense::FineTuneQueue(0).capacity(), 1);  // floor, not a throw

  for (int i = 0; i < 5; ++i) {
    const bool pushed = q.push(nn::Tensor({2}, static_cast<float>(i)), i % 2);
    EXPECT_EQ(pushed, i < 3) << "push " << i;
  }
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.dropped(), 2u);

  const defense::FineTuneQueue::Batch b = q.batch();
  EXPECT_EQ(b.x.shape(), (nn::Shape{3, 2}));
  EXPECT_EQ(b.y, (std::vector<int>{0, 1, 0}));
  EXPECT_FLOAT_EQ(b.x.at2(2, 0), 2.0f);
}

TEST(FineTuneQueue, RoundTripsThroughBytes) {
  defense::FineTuneQueue q(4);
  q.push(nn::Tensor({2}, {0.1f, 0.2f}), 1);
  q.push(nn::Tensor({2}, {0.3f, 0.4f}), 0);

  persist::ByteWriter w;
  q.save(w);
  persist::ByteReader r(w.buffer());
  defense::FineTuneQueue loaded(4);
  ASSERT_TRUE(loaded.load(r));
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.dropped(), 0u);
  EXPECT_EQ(loaded.items()[1].label, 0);
  EXPECT_FLOAT_EQ(loaded.items()[1].sample[0], 0.3f);
}

TEST(HardenFineTunes, EmptyQueueIsANoOpAndTrainingRuns) {
  defense::FineTuneQueue empty(8);
  nn::Model victim = apps::make_kpm_dnn(2, 2, 31);
  nn::TrainConfig cfg;
  cfg.max_epochs = 5;
  cfg.learning_rate = 1e-2f;
  EXPECT_EQ(defense::harden(victim, empty, cfg).epochs_run, 0);

  // Inference-locked models cannot be hardened in place — clone first.
  nn::Model locked = victim.clone();
  locked.set_inference_only(true);
  defense::FineTuneQueue q(16);
  Rng rng(0x41);
  for (int i = 0; i < 16; ++i) {
    nn::Tensor s({2});
    const bool hi = i % 2 == 0;
    s[0] = (hi ? 0.8f : 0.2f) + rng.normal(0.0f, 0.03f);
    s[1] = (hi ? 0.8f : 0.2f) + rng.normal(0.0f, 0.03f);
    q.push(std::move(s), hi ? 1 : 0);
  }
  EXPECT_THROW(defense::harden(locked, q, cfg), CheckError);

  cfg.max_epochs = 30;
  const nn::TrainReport rep = defense::harden(victim, q, cfg);
  EXPECT_GT(rep.epochs_run, 0);
  // The queue doubles as its own validation split: after fine-tuning the
  // victim should classify the quarantined points by their labels.
  const defense::FineTuneQueue::Batch b = q.batch();
  EXPECT_GE(nn::accuracy(victim.forward(b.x), b.y), 0.9);
}

// ------------------------------------------------------- defense plane --

DefenseConfig tight_defense() {
  DefenseConfig cfg;
  cfg.enable = true;
  cfg.dist_threshold = 4.0;
  cfg.step_threshold = 4.0;
  cfg.ens_threshold = 0.9;
  return cfg;
}

TEST(DefensePlane, FlagsOutOfDistributionRowsAndBoundsTheQuarantineRing) {
  DefenseConfig cfg = tight_defense();
  cfg.quarantine_capacity = 2;
  DefensePlane plane(cfg, "ringtest");
  plane.calibrate(cluster_rows(64, 0xd1));

  Rng rng(0xd2);
  const DefenseVerdict clean = plane.screen(1, "", 0, cluster_row(rng), 1);
  EXPECT_FALSE(clean.flagged);
  EXPECT_LT(clean.score, 1.0);

  for (std::uint64_t id = 2; id <= 5; ++id) {
    const DefenseVerdict v = plane.screen(id, "", 0, far_row(rng), 1);
    EXPECT_TRUE(v.flagged) << "request " << id;
    EXPECT_GE(v.score, 1.0);
  }
  EXPECT_EQ(plane.screened(), 5u);
  EXPECT_EQ(plane.flagged(), 4u);
  // The ring keeps only the newest `quarantine_capacity` records.
  ASSERT_EQ(plane.quarantine().size(), 2u);
  EXPECT_EQ(plane.quarantine().front().request_id, 4u);
  EXPECT_EQ(plane.quarantine().back().request_id, 5u);
  // Each flagged row also fed the fine-tuning queue (reference label =
  // the primary's prediction here: no flow, so no temporal label exists).
  EXPECT_EQ(plane.finetune().size(), 4u);
  EXPECT_EQ(plane.finetune().items().front().label, 1);
}

TEST(DefensePlane, FlaggedRowsNeverAdvanceTheLastKnownGood) {
  DefensePlane plane(tight_defense(), "lkgtest");
  defense::NormScreen seed_screen;  // reuse the walk helper's row sequence
  const nn::Tensor last = calibrate_walk(seed_screen, "flow/a", 20, 0x1c6);
  // Rebuild the same walk inside the plane.
  Rng rng(0x1c6);
  nn::Tensor row({4}, 0.5f);
  nn::Tensor walk({20, 4});
  for (int v = 0; v < 20; ++v) {
    walk.set_batch(v, row);
    for (std::size_t j = 0; j < 4; ++j)
      row[j] += rng.uniform(-0.01f, 0.01f);
  }
  plane.calibrate_flow("flow/a", walk, /*first_version=*/0);

  nn::Tensor adv = last;
  for (std::size_t j = 0; j < 4; ++j) adv[j] += 0.5f;
  const DefenseVerdict v1 = plane.screen(1, "flow/a", 20, adv, 2);
  ASSERT_TRUE(v1.flagged);
  EXPECT_GE(v1.step_score, 4.0);

  // The flagged row must not have become the reference: the identical
  // perturbed row at the next version scores the exact same step (still
  // measured from the calibration walk's last row, version 19).
  const DefenseVerdict v2 = plane.screen(2, "flow/a", 21, adv, 2);
  EXPECT_TRUE(v2.flagged);
  EXPECT_DOUBLE_EQ(v2.step_score, v1.step_score);

  // A clean step is accepted and advances the LKG; from then on the same
  // adversarial point is measured from the fresh reference.
  nn::Tensor clean = last;
  clean[0] += 0.008f;
  const DefenseVerdict v3 = plane.screen(3, "flow/a", 22, clean, 2);
  EXPECT_FALSE(v3.flagged);
  const DefenseVerdict v4 = plane.screen(4, "flow/a", 23, adv, 2);
  EXPECT_TRUE(v4.flagged);
  EXPECT_NE(v4.step_score, v1.step_score);
}

TEST(DefensePlane, BurstTriggerLatchesFiresOnceAndRearms) {
  DefenseConfig cfg = tight_defense();
  cfg.burst_window = 4;
  cfg.burst_threshold = 0.5;
  DefensePlane plane(cfg, "bursttest");
  plane.calibrate(cluster_rows(64, 0xb1));

  Rng rng(0xb2);
  const std::uint64_t flight_before = obs::flight_trigger_count();
  std::uint64_t id = 0;
  // Flood: the window fills with flagged rows, the trigger fires exactly
  // once (latched), no matter how long the attack sustains.
  for (int i = 0; i < 8; ++i) plane.screen(++id, "", 0, far_row(rng), 1);
  EXPECT_EQ(plane.bursts(), 1u);
  EXPECT_EQ(obs::flight_trigger_count(), flight_before + 1);
  EXPECT_DOUBLE_EQ(plane.burst_rate(), 1.0);
  const std::string report = obs::flight_last_report();
  EXPECT_NE(report.find("\"schema\":\"orev-flight-v1\""), std::string::npos)
      << report;
  EXPECT_NE(report.find("defense.quarantine_burst"), std::string::npos);
  EXPECT_NE(report.find("bursttest"), std::string::npos);

  // Clean traffic drops the rate below threshold/2: the trigger rearms
  // and a second burst fires a second report.
  for (int i = 0; i < 4; ++i) plane.screen(++id, "", 0, cluster_row(rng), 1);
  EXPECT_EQ(plane.bursts(), 1u);
  for (int i = 0; i < 4; ++i) plane.screen(++id, "", 0, far_row(rng), 1);
  EXPECT_EQ(plane.bursts(), 2u);
  EXPECT_EQ(obs::flight_trigger_count(), flight_before + 2);

  // The rate is kept as a running hit count over a fixed ring: on a
  // seeded random flag stream it must equal a brute-force recount of the
  // trailing window at every row, and the latch must fire exactly where
  // the recount crosses the threshold.
  DefenseConfig rcfg = tight_defense();
  rcfg.burst_window = 7;
  rcfg.burst_threshold = 0.4;
  DefensePlane ring(rcfg, "burstring");
  ring.calibrate(cluster_rows(64, 0xb3));
  Rng mix(0xb4);
  std::vector<bool> flags;
  bool latched = false;
  std::uint64_t fired = 0;
  for (int i = 0; i < 400; ++i) {
    const bool attack = mix.uniform(0.0f, 1.0f) < 0.35f;
    flags.push_back(
        ring.screen(++id, "", 0, attack ? far_row(mix) : cluster_row(mix), 1)
            .flagged);
    double expect = 0.0;
    if (flags.size() >= 7) {
      int hits = 0;
      for (std::size_t k = flags.size() - 7; k < flags.size(); ++k)
        hits += flags[k] ? 1 : 0;
      expect = static_cast<double>(hits) / 7.0;
    }
    ASSERT_EQ(ring.burst_rate(), expect) << "row " << i;
    if (!latched && expect >= rcfg.burst_threshold) {
      latched = true;
      ++fired;
    } else if (latched && expect < rcfg.burst_threshold * 0.5) {
      latched = false;
    }
    ASSERT_EQ(ring.bursts(), fired) << "row " << i;
  }
  EXPECT_GT(fired, 1u);
}

TEST(DefensePlane, BurstFlightReportIsDeterministic) {
  // Two identical planes fed the identical stream produce byte-identical
  // orev-flight-v1 reports — the committed post-mortem fixture contract.
  DefenseConfig cfg = tight_defense();
  cfg.burst_window = 4;
  cfg.burst_threshold = 0.5;
  std::string reports[2];
  for (int run = 0; run < 2; ++run) {
    obs::flight_reset();  // seq numbers restart → comparable reports
    DefensePlane plane(cfg, "fixture");
    plane.calibrate(cluster_rows(64, 0xf1));
    Rng rng(0xf2);
    for (std::uint64_t id = 1; id <= 6; ++id)
      plane.screen(id, "", 0, far_row(rng), 1);
    ASSERT_EQ(plane.bursts(), 1u);
    reports[run] = obs::flight_last_report();
  }
  obs::flight_reset();
  EXPECT_FALSE(reports[0].empty());
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(DefensePlane, CheckpointRoundTripsAndRejectsOtherConfigs) {
  const std::string dir = ::testing::TempDir() + "orev_defense_ckpt";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/plane.ckpt";

  const DefenseConfig cfg = tight_defense();
  DefensePlane plane(cfg, "persisttest");
  plane.calibrate(cluster_rows(64, 0xe1));
  Rng rng(0xe2);
  nn::Tensor walk({12, 4});
  {
    nn::Tensor row({4}, 0.5f);
    for (int v = 0; v < 12; ++v) {
      walk.set_batch(v, row);
      for (std::size_t j = 0; j < 4; ++j)
        row[j] += rng.uniform(-0.01f, 0.01f);
    }
  }
  plane.calibrate_flow("flow/a", walk);
  for (std::uint64_t id = 1; id <= 3; ++id)
    plane.screen(id, "", 0, id == 2 ? far_row(rng) : cluster_row(rng), 1);
  ASSERT_TRUE(plane.save_status(path).ok());

  DefensePlane fresh(cfg, "persisttest");
  ASSERT_TRUE(fresh.load_status(path).ok());
  EXPECT_EQ(fresh.screened(), plane.screened());
  EXPECT_EQ(fresh.flagged(), plane.flagged());
  EXPECT_EQ(fresh.finetune().size(), plane.finetune().size());
  EXPECT_EQ(fresh.profile().samples(), plane.profile().samples());
  EXPECT_EQ(fresh.norm_screen().calibration_steps(),
            plane.norm_screen().calibration_steps());
  // The restored detector state scores probes exactly like the original.
  Rng probe_rng(0xe3);
  const nn::Tensor probe = far_row(probe_rng);
  const DefenseVerdict a = plane.screen(4, "", 0, probe, 1);
  const DefenseVerdict b = fresh.screen(4, "", 0, probe, 1);
  EXPECT_EQ(a.flagged, b.flagged);
  EXPECT_DOUBLE_EQ(a.dist_score, b.dist_score);
  EXPECT_DOUBLE_EQ(a.score, b.score);

  // Any config drift (a different threshold) must reject with kMismatch
  // and leave the plane untouched.
  DefenseConfig other = cfg;
  other.dist_threshold = 5.0;
  DefensePlane incompatible(other, "persisttest");
  const persist::Status st = incompatible.load_status(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code, persist::StatusCode::kMismatch);
  EXPECT_EQ(incompatible.screened(), 0u);

  // The fingerprint also covers the engine name.
  EXPECT_NE(DefensePlane(cfg, "enginea").fingerprint(),
            DefensePlane(cfg, "engineb").fingerprint());
}

// --------------------------------------------------- engine integration --

ServeConfig defended_engine_config(const std::string& name) {
  ServeConfig cfg;
  cfg.name = name;
  cfg.batch_max = 8;
  cfg.deadline_us = 1000000;
  cfg.flush_wait_us = 2000;
  cfg.replicas = 2;
  cfg.defense = tight_defense();
  return cfg;
}

/// Alternating workload: every 3rd row is out-of-distribution.
std::vector<nn::Tensor> mixed_inputs(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<nn::Tensor> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    out.push_back(i % 3 == 2 ? far_row(rng) : cluster_row(rng));
  return out;
}

TEST(ServeDefense, QuarantinedRequestsSurfaceAndCountInTheSlo) {
  ServeEngine eng(kpm_model(), defended_engine_config("sloq"));
  ASSERT_NE(eng.defense(), nullptr);
  eng.defense()->calibrate(cluster_rows(64, 0x51));

  const std::vector<nn::Tensor> inputs = mixed_inputs(24, 0x52);
  std::vector<ServeResult> results(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    eng.submit(nn::Tensor(inputs[i]),
               [&results, i](const ServeResult& r) { results[i] = r; });
  eng.drain();

  int quarantined = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i % 3 == 2) {
      EXPECT_EQ(results[i].status, ServeStatus::kQuarantined) << i;
      EXPECT_EQ(results[i].prediction, -1) << i;
      EXPECT_GE(results[i].defense_score, 1.0) << i;
      ++quarantined;
    } else {
      EXPECT_EQ(results[i].status, ServeStatus::kOk) << i;
      EXPECT_GE(results[i].prediction, 0) << i;
      EXPECT_LT(results[i].defense_score, 1.0) << i;
    }
  }
  const serve::SloSnapshot s = eng.slo();
  EXPECT_EQ(s.quarantined, static_cast<std::uint64_t>(quarantined));
  // Quarantines are completions (the app got an answer: "degrade"), never
  // silent drops.
  EXPECT_EQ(s.completed, inputs.size());
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(eng.defense()->flagged(),
            static_cast<std::uint64_t>(quarantined));
}

TEST(ServeDefense, DegradedSyncPathIsNotAFailOpenSideDoor) {
  // Force every batch onto the degraded synchronous path: the screen must
  // still quarantine adversarial rows there.
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::FaultSpec delay;
  delay.kind = fault::FaultKind::kDelay;
  delay.probability = 1.0;
  delay.delay_ms = 10.0;
  plan.sites[fault::sites::kServeBatch] = {delay};
  fault::FaultInjector fi(plan);

  ServeConfig cfg = defended_engine_config("syncscreen");
  cfg.deadline_us = 4000;  // the 10 ms injected delay always misses it
  ServeEngine eng(kpm_model(), cfg);
  eng.set_fault_injector(&fi);
  eng.defense()->calibrate(cluster_rows(64, 0x71));

  const std::vector<nn::Tensor> inputs = mixed_inputs(12, 0x72);
  std::vector<ServeResult> results(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    eng.submit(nn::Tensor(inputs[i]),
               [&results, i](const ServeResult& r) { results[i] = r; });
  eng.drain();

  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i % 3 == 2)
      EXPECT_EQ(results[i].status, ServeStatus::kQuarantined) << i;
    else
      EXPECT_EQ(results[i].status, ServeStatus::kDegradedSync) << i;
  }
  EXPECT_EQ(eng.slo().quarantined, 4u);
  EXPECT_EQ(eng.slo().batched_samples, 0u);
}

TEST(ServeDefense, ConfigFingerprintCoversTheDefensePlane) {
  const nn::Model model = kpm_model();
  ServeConfig off;
  off.name = "fp";
  ServeConfig on = off;
  on.defense.enable = true;
  ServeEngine e_off(model.clone(), off);
  ServeEngine e_on(model.clone(), on);
  EXPECT_NE(e_off.config_fingerprint(), e_on.config_fingerprint());

  ServeConfig tuned = on;
  tuned.defense.dist_threshold += 1.0;
  ServeEngine e_tuned(model.clone(), tuned);
  EXPECT_NE(e_on.config_fingerprint(), e_tuned.config_fingerprint());

  ServeEngine e_on2(model.clone(), on);
  EXPECT_EQ(e_on.config_fingerprint(), e_on2.config_fingerprint());
}

TEST(ServeDefense, SiblingMustMatchTheServedModelAndAnEnabledPlane) {
  ServeEngine defended(kpm_model(), defended_engine_config("sibcheck"));
  EXPECT_THROW(defended.attach_defense_sibling(apps::make_one_layer({2}, 2, 3)),
               CheckError);
  EXPECT_NO_THROW(
      defended.attach_defense_sibling(apps::make_one_layer({4}, 4, 3)));
  EXPECT_TRUE(defended.defense()->has_sibling());

  ServeEngine undefended(kpm_model(), ServeConfig{});
  EXPECT_EQ(undefended.defense(), nullptr);
  EXPECT_THROW(undefended.attach_defense_sibling(apps::make_one_layer({4}, 4, 3)),
               CheckError);
}

// ------------------------------------------- PR 9: closed-loop defense --

/// Cluster row shifted by `delta` on every feature (delta/σ z per feature).
nn::Tensor offset_row(Rng& rng, float delta) {
  nn::Tensor t = cluster_row(rng);
  for (std::size_t j = 0; j < 4; ++j) t[j] += delta;
  return t;
}

/// [m, 4] wide clean rows (σ = 0.3): the operator-side recalibration that
/// turns an early borderline flag into a reviewable false positive.
nn::Tensor wide_rows(int m, std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor rows({m, 4});
  for (int i = 0; i < m; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      rows.at2(i, static_cast<int>(j)) = 0.5f + rng.normal(0.0f, 0.3f);
  return rows;
}

TEST(NormScreen, StaleDecayDiscountsEvidenceInsteadOfExpiring) {
  defense::NormScreenConfig hard_cfg;
  hard_cfg.max_stale = 2;
  defense::NormScreenConfig decay_cfg = hard_cfg;
  decay_cfg.stale_decay = true;
  defense::NormScreen hard(hard_cfg);
  defense::NormScreen decay(decay_cfg);
  calibrate_walk(hard, "flow/a", 20, 0x4a7);
  const nn::Tensor lkg = calibrate_walk(decay, "flow/a", 20, 0x4a7);
  nn::Tensor adv = lkg;
  for (std::size_t j = 0; j < 4; ++j) adv[j] += 0.5f;

  // Within the staleness bound the two modes are byte-identical (the LKG
  // is at version 19, so version 21 is a lag of 2).
  EXPECT_DOUBLE_EQ(decay.score("flow/a", 21, adv.raw(), 4),
                   hard.score("flow/a", 21, adv.raw(), 4));

  // Past the bound, hard expiry goes blind while decay keeps discounted
  // evidence: lag 3 is exactly max_stale/lag = 2/3 of the fresh score.
  EXPECT_EQ(hard.score("flow/a", 22, adv.raw(), 4), 0.0);
  const double fresh = decay.score("flow/a", 21, adv.raw(), 4);
  EXPECT_NEAR(decay.score("flow/a", 22, adv.raw(), 4), fresh * 2.0 / 3.0,
              1e-12);

  // The separation the decay exists for: an attack-sized step's huge z
  // survives a deep discount, a natural step's modest z does not.
  EXPECT_GT(decay.score("flow/a", 25, adv.raw(), 4), 4.0);  // lag 6, ×1/3
  nn::Tensor natural = lkg;
  natural[0] += 0.008f;
  EXPECT_LT(decay.score("flow/a", 40, natural.raw(), 4), 1.0);  // lag 21

  // Out-of-order submits never score, decay or not.
  EXPECT_EQ(decay.score("flow/a", 18, adv.raw(), 4), 0.0);
  EXPECT_EQ(hard.score("flow/a", 18, adv.raw(), 4), 0.0);
}

TEST(NormScreen, HasReferenceTracksFreshnessOrderShapeAndDecay) {
  defense::NormScreenConfig cfg;
  cfg.max_stale = 2;
  defense::NormScreen hard(cfg);
  cfg.stale_decay = true;
  defense::NormScreen decay(cfg);
  EXPECT_FALSE(hard.has_reference("flow/a", 0, 4));  // unknown flow
  calibrate_walk(hard, "flow/a", 20, 0x4a8);
  calibrate_walk(decay, "flow/a", 20, 0x4a8);

  EXPECT_TRUE(hard.has_reference("flow/a", 21, 4));   // lag 2, in bound
  EXPECT_FALSE(hard.has_reference("flow/a", 22, 4));  // lag 3, expired
  EXPECT_TRUE(decay.has_reference("flow/a", 22, 4));  // decay: still usable
  // Out-of-order and shape changes are unusable under either mode.
  EXPECT_FALSE(hard.has_reference("flow/a", 18, 4));
  EXPECT_FALSE(decay.has_reference("flow/a", 18, 4));
  EXPECT_FALSE(hard.has_reference("flow/a", 21, 3));
}

TEST(NormScreen, ReviewScoreIsRetrospectiveAndNeverAdvancesTheReference) {
  defense::NormScreen screen;
  const nn::Tensor lkg = calibrate_walk(screen, "flow/a", 20, 0x4a9);
  nn::Tensor adv = lkg;
  for (std::size_t j = 0; j < 4; ++j) adv[j] += 0.5f;

  // The retrospective distance equals the live score at the LKG's own
  // version (no staleness penalty — the guards exist for stream events).
  const double live = screen.score("flow/a", 20, adv.raw(), 4);
  const double review = screen.review_score("flow/a", adv.raw(), 4);
  EXPECT_GT(review, 4.0);
  EXPECT_DOUBLE_EQ(review, live);
  // Const: asking twice answers twice, the reference never moves.
  EXPECT_DOUBLE_EQ(screen.review_score("flow/a", adv.raw(), 4), review);
  EXPECT_EQ(screen.review_score("flow/none", adv.raw(), 4), 0.0);

  // After the flow advances, the same sample re-measures against the new
  // reference — the review always asks "how far from the LKG *now*".
  nn::Tensor next = lkg;
  next[0] += 0.2f;
  screen.accept("flow/a", 21, next.raw(), 4);
  EXPECT_NE(screen.review_score("flow/a", adv.raw(), 4), review);
}

TEST(NormScreen, StaleDecayRoundTripsThroughBytes) {
  defense::NormScreenConfig cfg;
  cfg.max_stale = 2;
  cfg.stale_decay = true;
  defense::NormScreen screen(cfg);
  const nn::Tensor lkg = calibrate_walk(screen, "flow/a", 20, 0x4aa);

  persist::ByteWriter w;
  screen.save(w);
  persist::ByteReader r(w.buffer());
  defense::NormScreen loaded;
  ASSERT_TRUE(loaded.load(r));

  // The decay flag is part of the stream: the loaded screen scores a
  // stale reference (lag 5 > max_stale) exactly like the original.
  nn::Tensor adv = lkg;
  for (std::size_t j = 0; j < 4; ++j) adv[j] += 0.5f;
  const double stale = screen.score("flow/a", 24, adv.raw(), 4);
  EXPECT_GT(stale, 0.0);
  EXPECT_DOUBLE_EQ(loaded.score("flow/a", 24, adv.raw(), 4), stale);
  EXPECT_TRUE(loaded.has_reference("flow/a", 24, 4));
}

// ------------------------------------------------- adaptive thresholds --

defense::AdaptiveConfig fast_adaptive() {
  defense::AdaptiveConfig cfg;
  cfg.enable = true;
  cfg.warmup = 8;
  cfg.update_every = 4;
  return cfg;
}

TEST(AdaptiveThresholds, TracksTheCleanTailInsideTheEnvelope) {
  defense::AdaptiveThresholds at(fast_adaptive(), 6.0, 6.0, 0.9);
  EXPECT_DOUBLE_EQ(at.dist_threshold(), 6.0);

  // A clean stream whose scores sit near 1: the tracked target
  // (margin × q0.995 ≈ 1.25) is far below the static 6.0, so the
  // threshold ratchets down — but the floor (0.5 × 6 = 3) catches it.
  for (int i = 0; i < 200; ++i) {
    at.observe_accepted("flow/a", 1.0, 1.0, 0.1);
    at.on_row();
  }
  EXPECT_GE(at.dist_threshold(), 3.0);   // envelope floor
  EXPECT_LE(at.dist_threshold(), 3.35);  // converged near it
  EXPECT_GT(at.updates(), 0u);
  EXPECT_GT(at.clamped(), 0u);             // floor engaged
  EXPECT_GT(at.held_by_hysteresis(), 0u);  // dead band engaged
}

TEST(AdaptiveThresholds, PatientAttackerCannotWalkPastTheCeiling) {
  defense::AdaptiveThresholds at(fast_adaptive(), 6.0, 6.0, 0.9);
  // Worst case: every observation the attacker sneaks under the flag line
  // is enormous. The adapted threshold may climb, but never past
  // ceiling_frac × static = 12.
  for (int i = 0; i < 400; ++i) {
    at.observe_accepted("flow/a", 100.0, 100.0, 0.89);
    at.on_row();
  }
  EXPECT_GT(at.dist_threshold(), 6.0);
  EXPECT_LE(at.dist_threshold(), 12.0);
  EXPECT_LE(at.step_threshold("flow/a"), 12.0);
  EXPECT_GT(at.clamped(), 0u);
}

TEST(AdaptiveThresholds, PerFlowStepThresholdsDivergeWithLocalHistory) {
  defense::AdaptiveThresholds at(fast_adaptive(), 6.0, 4.0, 0.9);
  // Two flows with very different natural step scales: the hot flow's
  // local threshold must sit above the cold flow's.
  for (int i = 0; i < 200; ++i) {
    at.observe_accepted("flow/hot", 1.0, 5.0, 0.1);
    at.on_row();
    at.observe_accepted("flow/cold", 1.0, 0.2, 0.1);
    at.on_row();
  }
  EXPECT_GT(at.step_threshold("flow/hot"), at.step_threshold("flow/cold"));
  // A flow with no local history falls back to the global estimate, and
  // the const query does not create a track for it.
  EXPECT_DOUBLE_EQ(at.step_threshold("flow/fresh"), at.step_threshold(""));
  EXPECT_EQ(at.flow_count(), 2u);
}

TEST(AdaptiveThresholds, RoundTripsThroughBytes) {
  defense::AdaptiveThresholds at(fast_adaptive(), 6.0, 6.0, 0.9);
  for (int i = 0; i < 100; ++i) {
    at.observe_accepted("flow/a", 1.0 + 0.01 * (i % 7), 2.0, 0.1);
    at.on_row();
  }
  persist::ByteWriter w;
  at.save(w);
  persist::ByteReader r(w.buffer());
  defense::AdaptiveThresholds loaded;
  ASSERT_TRUE(loaded.load(r));
  EXPECT_DOUBLE_EQ(loaded.dist_threshold(), at.dist_threshold());
  EXPECT_DOUBLE_EQ(loaded.ens_threshold(), at.ens_threshold());
  EXPECT_DOUBLE_EQ(loaded.step_threshold("flow/a"),
                   at.step_threshold("flow/a"));
  EXPECT_EQ(loaded.updates(), at.updates());
  EXPECT_EQ(loaded.held_by_hysteresis(), at.held_by_hysteresis());
  EXPECT_EQ(loaded.clamped(), at.clamped());
  EXPECT_EQ(loaded.flow_count(), at.flow_count());

  persist::ByteReader torn(
      std::string_view(w.buffer().data(), w.buffer().size() / 2));
  defense::AdaptiveThresholds partial;
  EXPECT_FALSE(partial.load(torn));

  // Resume mid-stream. The target quantile is cached per track keyed on
  // the sketch count, so load into a plane whose own tracks sit at the
  // *same* counts with different scores, and open the continuation with
  // unobserved (quarantined) rows so the first update after the load sees
  // unchanged counts: a cache that survived the load would answer with
  // the stale quantile. Continued on one stream, the resumed and the
  // uninterrupted plane must agree at every row.
  defense::AdaptiveThresholds resumed(fast_adaptive(), 6.0, 6.0, 0.9);
  for (int i = 0; i < 100; ++i) {
    resumed.observe_accepted("flow/a", 5.0, 0.5, 0.6);
    resumed.on_row();
  }
  persist::ByteReader again(w.buffer());
  ASSERT_TRUE(resumed.load(again));
  const char* flows[3] = {"flow/a", "flow/b", "flow/c"};
  for (int i = 0; i < 300; ++i) {
    const char* flow = flows[i % 3];
    const double d = 0.5 + 0.05 * (i % 11) + (i > 150 ? 3.0 : 0.0);
    const double st = 1.0 + 0.3 * (i % 5) + (i > 200 ? 6.0 : 0.0);
    const double e = 0.05 + 0.02 * (i % 13);
    if (i >= 8 && i % 9 != 0) {
      at.observe_accepted(flow, d, st, e);
      resumed.observe_accepted(flow, d, st, e);
    }
    at.on_row();
    resumed.on_row();
    ASSERT_EQ(resumed.dist_threshold(), at.dist_threshold()) << "row " << i;
    ASSERT_EQ(resumed.ens_threshold(), at.ens_threshold()) << "row " << i;
    for (const char* f : flows)
      ASSERT_EQ(resumed.step_threshold(f), at.step_threshold(f))
          << "row " << i << " " << f;
  }
  EXPECT_EQ(resumed.updates(), at.updates());
  EXPECT_EQ(resumed.held_by_hysteresis(), at.held_by_hysteresis());
  EXPECT_EQ(resumed.clamped(), at.clamped());
  // The continuation actually moved thresholds after the resume point.
  EXPECT_NE(at.dist_threshold(), loaded.dist_threshold());
}

// ------------------------------------------------ quarantine review loop --

TEST(FineTuneQueue, OverflowDropCountSurvivesCheckpointAndKeepsRejecting) {
  defense::FineTuneQueue q(3);
  for (int i = 0; i < 5; ++i)
    q.push(nn::Tensor({2}, static_cast<float>(i)), i % 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.dropped(), 2u);

  persist::ByteWriter w;
  q.save(w);
  persist::ByteReader r(w.buffer());
  defense::FineTuneQueue loaded(3);
  ASSERT_TRUE(loaded.load(r));
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.dropped(), 2u);
  // The restored queue is still full: overflow semantics carry over.
  EXPECT_FALSE(loaded.push(nn::Tensor({2}, 9.0f), 1));
  EXPECT_EQ(loaded.dropped(), 3u);
}

TEST(DefensePlane, QuarantineRingWrapsAroundUnderSustainedFlood) {
  DefenseConfig cfg = tight_defense();
  cfg.quarantine_capacity = 4;
  cfg.review_every = 1000;  // review mode: flag-time finetune push is off
  DefensePlane plane(cfg, "floodtest");
  plane.calibrate(cluster_rows(64, 0xf7));

  Rng rng(0xf8);
  for (std::uint64_t id = 1; id <= 20; ++id)
    ASSERT_TRUE(plane.screen(id, "", 0, far_row(rng), 1).flagged) << id;
  EXPECT_EQ(plane.flagged(), 20u);
  EXPECT_EQ(plane.evicted(), 16u);
  EXPECT_TRUE(plane.finetune().items().empty());
  // The ring holds exactly the newest capacity records, oldest first.
  ASSERT_EQ(plane.quarantine().size(), 4u);
  EXPECT_EQ(plane.quarantine().front().request_id, 17u);
  EXPECT_EQ(plane.quarantine().back().request_id, 20u);

  // A review pass sees only the survivors — evicted rows are gone, and
  // the counter makes that loss visible instead of silent.
  const std::vector<serve::ReviewOutcome> outcomes =
      plane.review([](const nn::Tensor&) { return 2; });
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes.front().request_id, 17u);
  EXPECT_EQ(plane.reviewed(), 4u);
  EXPECT_EQ(plane.released() + plane.confirmed(), 4u);
  EXPECT_EQ(plane.evicted(), 16u);
  EXPECT_TRUE(plane.quarantine().empty());
  EXPECT_EQ(plane.review_passes(), 1u);
}

TEST(DefensePlane, ReviewReleasesRecalibratedFalsePositivesAndConfirmsAttacks) {
  DefenseConfig cfg = tight_defense();
  cfg.use_ensemble = false;
  cfg.review_every = 1000;
  DefensePlane plane(cfg, "reviewtest");
  plane.calibrate(cluster_rows(64, 0xa1));

  // Against the thin early profile a mild drift row flags (z ≈ 4.5 per
  // feature, threshold 4)…
  Rng rng(0xa2);
  const nn::Tensor borderline = offset_row(rng, 0.225f);
  const DefenseVerdict vb = plane.screen(1, "", 0, borderline, 1);
  ASSERT_TRUE(vb.flagged);
  // …while a genuine attack-scale row flags far harder.
  const nn::Tensor attack = offset_row(rng, 5.0f);
  ASSERT_TRUE(plane.screen(2, "", 0, attack, 1).flagged);
  ASSERT_EQ(plane.quarantine().size(), 2u);

  // The fleet keeps calibrating on wider clean traffic; under the richer
  // profile the drift row is ordinary and the attack row is still absurd.
  plane.calibrate(wide_rows(192, 0xa3));

  const std::vector<serve::ReviewOutcome> outcomes =
      plane.review([](const nn::Tensor&) { return 3; });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].released);
  EXPECT_EQ(outcomes[0].request_id, 1u);
  EXPECT_EQ(outcomes[0].corrected_pred, 3);
  EXPECT_GE(outcomes[0].original_score, 1.0);
  EXPECT_LT(outcomes[0].review_score, cfg.release_margin);
  EXPECT_FALSE(outcomes[1].released);
  EXPECT_EQ(outcomes[1].corrected_pred, -1);
  EXPECT_GE(outcomes[1].review_score, cfg.release_margin);

  EXPECT_EQ(plane.released(), 1u);
  EXPECT_EQ(plane.confirmed(), 1u);
  // Only the confirmed record feeds hardening, under its flag-time
  // temporal-consistency label (the primary's prediction here: no flow).
  ASSERT_EQ(plane.finetune().size(), 1u);
  EXPECT_EQ(plane.finetune().items().front().label, 1);
}

TEST(DefensePlane, ReseedMarginGatesAdoptionAfterReferenceLoss) {
  DefenseConfig cfg = tight_defense();
  cfg.use_ensemble = false;
  cfg.max_stale = 1;
  cfg.reseed_margin = 0.5;
  DefensePlane plane(cfg, "reseedtest");
  plane.calibrate(cluster_rows(64, 0xb5));
  Rng walk_rng(0xb6);
  nn::Tensor row({4}, 0.5f);
  nn::Tensor walk({20, 4});
  for (int v = 0; v < 20; ++v) {
    walk.set_batch(v, row);
    for (std::size_t j = 0; j < 4; ++j)
      row[j] += walk_rng.uniform(-0.01f, 0.01f);
  }
  plane.calibrate_flow("flow/a", walk);  // LKG at version 19

  // A sustained flag run ages the reference past max_stale = 1 (flagged
  // rows never advance it), so the flow loses its reference.
  Rng rng(0xb7);
  ASSERT_TRUE(plane.screen(1, "flow/a", 21, far_row(rng), 1).flagged);
  ASSERT_TRUE(plane.screen(2, "flow/a", 22, far_row(rng), 1).flagged);
  ASSERT_FALSE(plane.norm_screen().has_reference("flow/a", 23, 4));

  // The burst's first unflagged row is suspicious (score in
  // [margin, 1)): it serves, but must NOT become the new reference.
  const nn::Tensor mid = offset_row(rng, 0.15f);
  const DefenseVerdict vm = plane.screen(3, "flow/a", 23, mid, 1);
  ASSERT_FALSE(vm.flagged);
  ASSERT_GE(vm.score, cfg.reseed_margin);
  EXPECT_FALSE(plane.norm_screen().has_reference("flow/a", 24, 4));

  // A clearly clean row (score < margin) re-seeds the flow.
  const nn::Tensor clean = cluster_row(rng);
  const DefenseVerdict vc = plane.screen(4, "flow/a", 24, clean, 1);
  ASSERT_FALSE(vc.flagged);
  ASSERT_LT(vc.score, cfg.reseed_margin);
  EXPECT_TRUE(plane.norm_screen().has_reference("flow/a", 25, 4));
}

TEST(HardenCandidate, ReplayMixLearnsTheQueueWithoutTouchingTheServed) {
  // Clean task: two tight clusters. The replay set is its own anchor.
  const int kReplay = 16;
  nn::Tensor replay_x({kReplay, 2});
  std::vector<int> replay_y;
  Rng rng(0xc1);
  for (int i = 0; i < kReplay; ++i) {
    const bool hi = i % 2 == 0;
    replay_x.at2(i, 0) = (hi ? 0.8f : 0.2f) + rng.normal(0.0f, 0.02f);
    replay_x.at2(i, 1) = (hi ? 0.8f : 0.2f) + rng.normal(0.0f, 0.02f);
    replay_y.push_back(hi ? 1 : 0);
  }
  // The quarantined points live elsewhere in input space.
  defense::FineTuneQueue q(16);
  for (int i = 0; i < 12; ++i) {
    nn::Tensor s({2});
    const bool hi = i % 2 == 0;
    s[0] = (hi ? 0.9f : 0.1f) + rng.normal(0.0f, 0.02f);
    s[1] = (hi ? 0.1f : 0.9f) + rng.normal(0.0f, 0.02f);
    q.push(std::move(s), hi ? 1 : 0);
  }

  nn::Model served = apps::make_kpm_dnn(2, 2, 31);
  served.set_inference_only(true);
  const std::vector<int> before = served.predict(replay_x);

  nn::TrainConfig tc;
  tc.max_epochs = 60;
  tc.learning_rate = 5e-2f;
  nn::TrainReport rep;
  nn::Model candidate =
      defense::harden_candidate(served, q, tc, &rep, &replay_x, &replay_y);
  EXPECT_GT(rep.epochs_run, 0);

  // The served model is untouched (hardening clones), and the candidate
  // masters both the replay anchors and the quarantined points.
  EXPECT_EQ(served.predict(replay_x), before);
  const defense::FineTuneQueue::Batch b = q.batch();
  EXPECT_GE(nn::accuracy(candidate.forward(replay_x), replay_y), 0.9);
  EXPECT_GE(nn::accuracy(candidate.forward(b.x), b.y), 0.9);

  // Replay labels must pair 1:1 with the replay rows.
  std::vector<int> short_y(replay_y.begin(), replay_y.end() - 1);
  EXPECT_THROW(
      defense::harden_candidate(served, q, tc, nullptr, &replay_x, &short_y),
      CheckError);
}

// ------------------------------------------------------ gated hot swap --

/// [m, 4] evaluation probe + labels from the served model itself, so the
/// current model's clean accuracy is exactly 1 and any disagreeing
/// candidate regresses.
struct SwapProbe {
  nn::Tensor x;
  std::vector<int> labels;
};

SwapProbe swap_probe(nn::Model served, std::uint64_t seed) {
  Rng rng(seed);
  SwapProbe p{nn::Tensor({32, 4}), {}};
  for (std::size_t i = 0; i < p.x.numel(); ++i)
    p.x[i] = rng.uniform(-1.0f, 1.0f);
  p.labels = served.predict(p.x);
  return p;
}

TEST(ServeSwap, GateRefusesRegressionsAndStampsEpochsOnAccept) {
  ServeConfig cfg = defended_engine_config("swapgate");
  cfg.swap.enable = true;
  ServeEngine eng(kpm_model(17), cfg);
  const SwapProbe p = swap_probe(kpm_model(17), 0xd7);
  // A differently-initialised candidate disagrees with the labels the
  // served model produced: the gate refuses and nothing is installed.
  const serve::SwapGateReport bad =
      eng.request_hot_swap(kpm_model(99), p.x, p.labels);
  EXPECT_TRUE(bad.attempted);
  EXPECT_FALSE(bad.accepted);
  EXPECT_NE(bad.reason.find("clean accuracy regressed"), std::string::npos)
      << bad.reason;
  EXPECT_EQ(eng.swap_epoch(), 0u);
  EXPECT_EQ(eng.swaps_rejected(), 1u);
  EXPECT_EQ(eng.defense()->model_epoch(), 0u);

  // A same-weights candidate is a zero delta: accepted, epoch advances,
  // and the defense plane stamps new quarantine records with it.
  const serve::SwapGateReport good =
      eng.request_hot_swap(kpm_model(17), p.x, p.labels);
  EXPECT_TRUE(good.accepted);
  EXPECT_EQ(good.epoch, 1u);
  EXPECT_DOUBLE_EQ(good.clean_delta, 0.0);
  EXPECT_EQ(eng.swap_epoch(), 1u);
  EXPECT_EQ(eng.swaps_accepted(), 1u);
  EXPECT_EQ(eng.defense()->model_epoch(), 1u);

  // Disabled gate: refused without attempting.
  ServeEngine off(kpm_model(17), defended_engine_config("swapoff"));
  const serve::SwapGateReport rep =
      off.request_hot_swap(kpm_model(17), p.x, p.labels);
  EXPECT_FALSE(rep.attempted);
  EXPECT_FALSE(rep.accepted);

  // A candidate with a different architecture identity can never swap in.
  EXPECT_THROW(eng.request_hot_swap(apps::make_kpm_dnn(4, 3, 17), p.x,
                                    p.labels),
               CheckError);
}

TEST(ServeSwap, AcceptedSwapLandsOnABatchBoundary) {
  ServeConfig cfg = defended_engine_config("swapboundary");
  cfg.swap.enable = true;
  cfg.swap.tol_clean = 1.0;  // accept any candidate: boundary is the point
  ServeEngine eng(kpm_model(17), cfg);

  // The two models must genuinely disagree somewhere for this test to
  // prove anything.
  Rng rng(0xd8);
  std::vector<nn::Tensor> inputs;
  for (int i = 0; i < 12; ++i) {
    nn::Tensor t({4});
    for (std::size_t j = 0; j < 4; ++j) t[j] = rng.uniform(-1.0f, 1.0f);
    inputs.push_back(std::move(t));
  }
  nn::Tensor all({12, 4});
  for (int i = 0; i < 12; ++i) all.set_batch(i, inputs[static_cast<std::size_t>(i)]);
  const std::vector<int> old_preds = kpm_model(17).predict(all);
  const std::vector<int> new_preds = kpm_model(99).predict(all);
  ASSERT_NE(old_preds, new_preds);

  // Four requests sit in a half-full batch when the swap request lands:
  // the engine quiesces first, so they complete under the model they were
  // admitted against — no batch ever straddles epochs.
  std::vector<int> served(12, -2);
  for (std::size_t i = 0; i < 4; ++i)
    eng.submit(nn::Tensor(inputs[i]), [&served, i](const ServeResult& r) {
      served[i] = r.prediction;
    });
  const SwapProbe p = swap_probe(kpm_model(17), 0xd9);
  const serve::SwapGateReport rep =
      eng.request_hot_swap(kpm_model(99), p.x, p.labels);
  ASSERT_TRUE(rep.accepted);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(served[i], old_preds[i]) << "pre-swap request " << i;

  // Everything after the boundary serves under the candidate.
  for (std::size_t i = 4; i < 12; ++i)
    eng.submit(nn::Tensor(inputs[i]), [&served, i](const ServeResult& r) {
      served[i] = r.prediction;
    });
  eng.drain();
  for (std::size_t i = 4; i < 12; ++i)
    EXPECT_EQ(served[i], new_preds[i]) << "post-swap request " << i;
}

TEST(ServeSwap, InjectedTransientRefusesAndTheFleetKeepsServing) {
  fault::FaultPlan plan;
  plan.seed = 11;
  fault::FaultSpec transient;
  transient.kind = fault::FaultKind::kTransient;
  transient.probability = 1.0;
  plan.sites[fault::sites::kServeSwap] = {transient};
  fault::FaultInjector fi(plan);

  ServeConfig cfg = defended_engine_config("swapfault");
  cfg.swap.enable = true;
  ServeEngine eng(kpm_model(17), cfg);
  eng.set_fault_injector(&fi);

  const SwapProbe p = swap_probe(kpm_model(17), 0xda);
  const serve::SwapGateReport rep =
      eng.request_hot_swap(kpm_model(17), p.x, p.labels);
  EXPECT_TRUE(rep.attempted);
  EXPECT_FALSE(rep.accepted);
  EXPECT_NE(rep.reason.find("injected fault"), std::string::npos);
  EXPECT_EQ(eng.swap_epoch(), 0u);

  // Rollback is implicit — nothing was installed — and the fleet serves.
  ServeResult out;
  eng.submit(nn::Tensor({4}, 0.25f), [&out](const ServeResult& r) { out = r; });
  eng.drain();
  EXPECT_EQ(out.status, ServeStatus::kOk);
  EXPECT_GE(out.prediction, 0);
}

TEST(ServeSwap, CrashKillPointResumesByteExactAgainstNeverCrashed) {
  const std::string dir = ::testing::TempDir() + "orev_swap_ckpt";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);

  ServeConfig cfg = defended_engine_config("swapcrash");
  cfg.swap.enable = true;
  cfg.swap.checkpoint_dir = dir;
  // The kill-point only fires on the accepted path (the crash simulates
  // dying *after* the durable commit), so the gate must pass.
  cfg.swap.tol_clean = 1.0;

  fault::FaultPlan plan;
  plan.seed = 13;
  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.probability = 1.0;
  plan.sites[fault::sites::kServeSwap] = {crash};
  fault::FaultInjector fi(plan);

  const SwapProbe p = swap_probe(kpm_model(17), 0xdb);
  const std::vector<nn::Tensor> after = mixed_inputs(8, 0xdc);

  // Victim: the swap durably commits (install + checkpoint), then the
  // process "dies" at the kill-point.
  ServeEngine victim(kpm_model(17), cfg);
  victim.defense()->calibrate(cluster_rows(64, 0xdd));
  victim.set_fault_injector(&fi);
  EXPECT_THROW(victim.request_hot_swap(kpm_model(99), p.x, p.labels),
               fault::FaultInjectedError);
  EXPECT_EQ(victim.swap_epoch(), 1u);  // committed before the crash

  // A fresh process resumes from the committed checkpoints…
  ServeEngine resumed(kpm_model(17), cfg);
  ASSERT_TRUE(resumed.load_status(dir + "/engine.ckpt").ok());
  ASSERT_TRUE(resumed.defense()->load_status(dir + "/defense.ckpt").ok());
  resumed.resume_hot_swap(kpm_model(99));
  EXPECT_EQ(resumed.swap_epoch(), 1u);

  // …and serves byte-identically to an engine that never crashed.
  ServeConfig clean_cfg = cfg;
  clean_cfg.swap.checkpoint_dir.clear();  // no checkpoint side effects
  ServeEngine reference(kpm_model(17), clean_cfg);
  reference.defense()->calibrate(cluster_rows(64, 0xdd));
  ASSERT_TRUE(reference.request_hot_swap(kpm_model(99), p.x, p.labels)
                  .accepted);

  std::vector<ServeResult> a(after.size()), b(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    resumed.submit(nn::Tensor(after[i]),
                   [&a, i](const ServeResult& r) { a[i] = r; });
    reference.submit(nn::Tensor(after[i]),
                     [&b, i](const ServeResult& r) { b[i] = r; });
  }
  resumed.drain();
  reference.drain();
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << i;
    EXPECT_EQ(a[i].prediction, b[i].prediction) << i;
    EXPECT_EQ(a[i].latency_us, b[i].latency_us) << i;
  }
}

TEST(ServeDefense, DecisionsAreByteIdenticalAcrossThreadCounts) {
  // Two defended streams, each served with a compiled sibling at 1–3
  // replicas and 1 and 4 threads. Every flush stages its rows and scores
  // the sibling in one call, whichever shard route predicts them, so the
  // decisions — served results, review outcomes and the fine-tune queue —
  // must be identical bit for bit across the six runs of a stream.
  //  - default: the default defended config over mixed far rows, every
  //    other row untagged (an adaptive track but no norm-screen state);
  //  - closed loop: adaptive thresholds and a review cadence that releases
  //    and confirms, every row tagged. Its virtual costs stay under one
  //    tick, so every run flushes the same 8-row batches at the same rows.
  ThreadGuard guard;
  struct Run {
    std::vector<ServeResult> results;
    std::vector<serve::ReviewOutcome> released;
    std::uint64_t passes = 0, reviewed = 0, confirmed = 0;
    std::string finetune;
  };
  for (const bool closed_loop : {false, true}) {
    SCOPED_TRACE(closed_loop ? "closed loop" : "default");
    std::vector<nn::Tensor> inputs;
    if (closed_loop) {
      Rng rng(0x1e8);
      for (int i = 0; i < 120; ++i)
        inputs.push_back(i % 3 == 1   ? offset_row(rng, 0.225f)
                         : i % 7 == 3 ? offset_row(rng, 2.0f)
                                      : cluster_row(rng));
    } else {
      inputs = mixed_inputs(48, 0x61);
    }
    std::vector<Run> runs;
    for (const int replicas : {1, 2, 3}) {
      for (const int threads : {1, 4}) {
        util::set_num_threads(threads);
        ServeConfig cfg = defended_engine_config("threads");
        cfg.replicas = replicas;
        if (closed_loop) {
          cfg.tick_us = 1000;
          cfg.flush_wait_us = 100000;
          cfg.defense.adaptive = fast_adaptive();
          cfg.defense.review_every = 40;
          cfg.defense.ens_threshold = 4.0;
        }
        ServeEngine eng(kpm_model(), cfg);
        eng.attach_defense_sibling(apps::make_one_layer({4}, 4, 5));
        ASSERT_TRUE(eng.defense()->sibling_compiled());
        eng.defense()->calibrate(cluster_rows(64, closed_loop ? 0x1ea : 0x62));
        Run run;
        run.results.resize(inputs.size());
        eng.set_release_handler([&run](const serve::ReviewOutcome& o) {
          run.released.push_back(o);
        });
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          serve::FlowTag flow;
          if (closed_loop) {
            // Operator recalibration mid-stream turns pending early flags
            // into reviewable false positives.
            if (i == 54) eng.defense()->calibrate(wide_rows(384, 0x1eb));
            flow = serve::FlowTag{"flow/" + std::to_string(i % 4), i / 4};
          } else if (i % 2 == 0) {
            flow = serve::FlowTag{"flow/a", i};
          }
          eng.submit(nn::Tensor(inputs[i]), std::move(flow),
                     obs::TraceContext{}, [&run, i](const ServeResult& r) {
                       run.results[i] = r;
                     });
        }
        eng.drain();
        eng.review_quarantine_now();
        const DefensePlane& plane = *eng.defense();
        run.passes = plane.review_passes();
        run.reviewed = plane.reviewed();
        run.confirmed = plane.confirmed();
        persist::ByteWriter w;
        plane.finetune().save(w);
        run.finetune = w.take();
        runs.push_back(std::move(run));
      }
    }

    const Run& ref = runs.front();
    int quarantined = 0;
    for (const ServeResult& r : ref.results)
      if (r.status == ServeStatus::kQuarantined) ++quarantined;
    EXPECT_GT(quarantined, 0);
    if (closed_loop) {
      // Every branch ran: flags, releases and confirmations, all batched.
      for (const ServeResult& r : ref.results)
        ASSERT_NE(r.status, ServeStatus::kDegradedSync);
      EXPECT_GT(ref.released.size(), 0u);
      EXPECT_GT(ref.confirmed, 0u);
    }
    for (std::size_t k = 1; k < runs.size(); ++k) {
      const Run& run = runs[k];
      const Run& twin = runs[k & ~std::size_t{1}];  // same replicas, 1 thread
      ASSERT_EQ(run.results.size(), ref.results.size());
      for (std::size_t i = 0; i < ref.results.size(); ++i) {
        EXPECT_EQ(run.results[i].status, ref.results[i].status)
            << "run " << k << " request " << i;
        EXPECT_EQ(run.results[i].prediction, ref.results[i].prediction)
            << "run " << k << " request " << i;
        // Bitwise, not approximate: the defense scores are accumulated in
        // a fixed order on the driving thread.
        EXPECT_EQ(std::memcmp(&run.results[i].defense_score,
                              &ref.results[i].defense_score, sizeof(double)),
                  0)
            << "run " << k << " request " << i;
        EXPECT_EQ(run.results[i].latency_us, twin.results[i].latency_us)
            << "run " << k << " request " << i;
        EXPECT_EQ(run.results[i].replica, twin.results[i].replica)
            << "run " << k << " request " << i;
      }
      ASSERT_EQ(run.released.size(), ref.released.size()) << "run " << k;
      for (std::size_t j = 0; j < ref.released.size(); ++j) {
        EXPECT_EQ(run.released[j].request_id, ref.released[j].request_id);
        EXPECT_EQ(run.released[j].corrected_pred,
                  ref.released[j].corrected_pred);
        EXPECT_EQ(std::memcmp(&run.released[j].review_score,
                              &ref.released[j].review_score, sizeof(double)),
                  0)
            << "run " << k << " release " << j;
      }
      EXPECT_EQ(run.passes, ref.passes) << "run " << k;
      EXPECT_EQ(run.reviewed, ref.reviewed) << "run " << k;
      EXPECT_EQ(run.confirmed, ref.confirmed) << "run " << k;
      EXPECT_EQ(run.finetune, ref.finetune) << "run " << k;
    }
    // The sharded route really ran: the 3-replica runs answered rows from
    // their third replica.
    bool third_replica = false;
    for (const ServeResult& r : runs.back().results)
      third_replica = third_replica || r.replica == 2;
    EXPECT_TRUE(third_replica);
  }
}

/// A Dense → ReLU → Residual(Dense) → Dense net over 4 features: outside
/// the plan compiler's supported set, so an engine serving it walks.
nn::Model residual_kpm_model() {
  auto s = std::make_unique<nn::Sequential>();
  s->emplace<nn::Dense>(4, 8);
  s->emplace<nn::ReLU>();
  s->emplace<nn::Residual>(std::make_unique<nn::Dense>(8, 8));
  s->emplace<nn::Dense>(8, 4);
  nn::Model m("ResidualKpm", std::move(s), {4}, 4);
  Rng rng(5);
  m.init(rng);
  return m;
}

TEST(ServeReview, ReleaseHandlerReplaysRecalibratedFalsePositives) {
  // Review re-predicts through replica 0's row path: its compiled plan
  // for the KPM DNN, the layer walk for the residual net (which does not
  // compile) — both on a 2-replica engine, both equal to predict_sync.
  for (const bool compiles : {true, false}) {
    ServeConfig cfg = defended_engine_config("enginereview");
    cfg.batch_max = 1;  // flush in submit: each row screens immediately
    cfg.defense.use_ensemble = false;
    cfg.defense.review_every = 1000;  // manual review below
    ServeEngine eng(compiles ? kpm_model(17) : residual_kpm_model(), cfg);
    ASSERT_EQ(eng.replicas(), 2);
    eng.defense()->calibrate(cluster_rows(64, 0xe7));

    std::vector<serve::ReviewOutcome> releases;
    eng.set_release_handler(
        [&releases](const serve::ReviewOutcome& o) { releases.push_back(o); });

    Rng rng(0xe8);
    const nn::Tensor row = offset_row(rng, 0.225f);
    ServeResult flagged_result;
    eng.submit(nn::Tensor(row),
               [&flagged_result](const ServeResult& r) { flagged_result = r; });
    eng.drain();
    ASSERT_EQ(flagged_result.status, ServeStatus::kQuarantined);

    // Recalibrating on wider clean traffic turns the early flag into a
    // reviewable false positive; the handler replays it with the serving
    // model's corrected prediction.
    eng.defense()->calibrate(wide_rows(192, 0xe9));
    eng.review_quarantine_now();
    ASSERT_EQ(releases.size(), 1u) << "compiles=" << compiles;
    EXPECT_TRUE(releases[0].released);
    EXPECT_EQ(releases[0].corrected_pred, eng.predict_sync(row))
        << "compiles=" << compiles;
    EXPECT_EQ(eng.defense()->released(), 1u);
    EXPECT_EQ(eng.defense()->review_passes(), 1u);
  }
}

TEST(ServeReview, CheckpointSamplesOfAnotherWidthAreRefused) {
  // The defense fingerprint does not cover the model's input width, so a
  // checkpoint written under a 4-feature model loads into an engine of
  // another width. Its quarantine samples must then fail the review with
  // CheckError instead of being read as rows of the wrong width.
  const std::string dir = ::testing::TempDir() + "orev_review_width";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/defense.ckpt";

  ServeConfig cfg = defended_engine_config("reviewwidth");
  cfg.defense.review_every = 1000;  // manual review below
  {
    ServeEngine writer(kpm_model(), cfg);
    writer.defense()->calibrate(cluster_rows(64, 0x7a1));
    for (const nn::Tensor& x : mixed_inputs(12, 0x7a2))
      writer.submit(nn::Tensor(x), [](const ServeResult&) {});
    writer.drain();
    ASSERT_FALSE(writer.defense()->quarantine().empty());
    ASSERT_TRUE(writer.defense()->save_status(path).ok());
  }
  for (const int features : {3, 5}) {
    for (const int replicas : {1, 2}) {
      cfg.replicas = replicas;
      ServeEngine reader(apps::make_kpm_dnn(features, 4, 17), cfg);
      ASSERT_TRUE(reader.defense()->load_status(path).ok());
      const std::size_t pending = reader.defense()->quarantine().size();
      ASSERT_GT(pending, 0u);
      const std::uint64_t reviewed = reader.defense()->reviewed();
      EXPECT_THROW(reader.review_quarantine_now(), CheckError)
          << "features=" << features << " replicas=" << replicas;
      // Nothing was reviewed: the records stay pending.
      EXPECT_EQ(reader.defense()->reviewed(), reviewed);
      EXPECT_EQ(reader.defense()->quarantine().size(), pending);
    }
  }
  std::filesystem::remove_all(dir, ec);
}

// ------------------------------------------- compiled sibling disbelief --

/// Screens seeded random rows through a plane that carries `sibling` with
/// only the ensemble detector on, and checks every ensemble score — at
/// screen and at review — against EnsembleDisagreement::score's layer walk
/// on an identical sibling, bit for bit. Predictions cover −1, each class
/// and out-of-range classes.
void expect_sibling_scores_match_walk(nn::Model sibling, bool compiles,
                                      std::uint64_t seed) {
  DefenseConfig cfg = tight_defense();
  cfg.use_distribution = false;
  cfg.use_norm_screen = false;
  cfg.review_every = 1000;  // manual review below
  cfg.quarantine_capacity = 1024;
  DefensePlane plane(cfg, "siblingwalk");
  defense::EnsembleDisagreement walk(sibling.clone());
  plane.attach_sibling(std::move(sibling));
  ASSERT_EQ(plane.sibling_compiled(), compiles);

  const int classes = walk.sibling().num_classes();
  std::vector<int> preds;
  for (int p = -1; p <= classes + 1; ++p) preds.push_back(p);
  Rng rng(seed);
  std::uint64_t id = 0;
  for (int i = 0; i < 48; ++i) {
    nn::Tensor x(walk.sibling().input_shape());
    // Every 4th row is scaled far out so the softmax saturates.
    const float scale = i % 4 == 3 ? 40.0f : 2.0f;
    for (std::size_t j = 0; j < x.numel(); ++j)
      x[j] = rng.uniform(-scale, scale);
    for (const int pred : preds) {
      const DefenseVerdict v = plane.screen(++id, "", 0, x, pred);
      ASSERT_EQ(v.ens_score, walk.score(x, pred))
          << "row " << i << " pred " << pred;
    }
  }

  // Review re-scores each quarantined record against the re-prediction.
  const std::vector<serve::QuarantineRecord> pending(
      plane.quarantine().begin(), plane.quarantine().end());
  ASSERT_FALSE(pending.empty());
  const int re_pred = classes / 2;
  const std::vector<serve::ReviewOutcome> outcomes =
      plane.review([re_pred](const nn::Tensor&) { return re_pred; });
  ASSERT_EQ(outcomes.size(), pending.size());
  for (std::size_t k = 0; k < outcomes.size(); ++k)
    ASSERT_EQ(outcomes[k].review_score,
              walk.score(pending[k].sample, re_pred) / cfg.ens_threshold)
        << "record " << k;
}

TEST(CompiledSibling, DistilledOneLayerSiblingMatchesTheWalk) {
  // defense::distill's student architecture: Flatten → Dense.
  expect_sibling_scores_match_walk(apps::make_one_layer({4}, 4, 31), true,
                                   0x5a1);
}

TEST(CompiledSibling, DenseReluMlpSiblingMatchesTheWalk) {
  expect_sibling_scores_match_walk(kpm_model(29), true, 0x5a2);
}

TEST(CompiledSibling, UncompilableSiblingFallsBackToTheWalk) {
  // Sigmoid has no compiled stage: the plane keeps the layer walk.
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Dense>(4, 8);
  seq->emplace<nn::Sigmoid>();
  seq->emplace<nn::Dense>(8, 4);
  nn::Model m("SigmoidSibling", std::move(seq), {4}, 4);
  Rng init(0x5a3);
  m.init(init);
  expect_sibling_scores_match_walk(std::move(m), false, 0x5a4);
}

/// 4-feature classifier whose classes differ by hairline weights: the
/// float walk picks the largest feature, while int8 weight rounding makes
/// every row identical, so the int8 tier ties and answers class 0.
nn::Model hairline_kpm_model() {
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Dense>(4, 4, /*bias=*/false);
  nn::Model m("HairlineKpm", std::move(seq), {4}, 4);
  nn::Tensor w({4, 4}, 1.0f);
  for (int j = 0; j < 4; ++j) w.at2(j, j) = 1.0001f;
  std::vector<nn::Tensor> ws;
  ws.push_back(w);
  m.set_weights(ws);
  return m;
}

TEST(ServeReview, CompiledRepredictionMatchesTheLayerWalkUnderInt8) {
  // A defended engine serving on the int8 tier, with a sibling, adaptive
  // thresholds and a review cadence. Review re-predicts on replica 0's
  // compiled float plan; its outcomes must equal those of a reference
  // plane fed the same screens and re-predicting through the layer walk.
  ServeConfig cfg = defended_engine_config("int8review");
  cfg.batch_max = 1;
  cfg.replicas = 1;
  cfg.quant.enable = true;
  // The gate must admit a tier that disagrees with float: that
  // disagreement is what would expose an int8 re-predictor.
  cfg.quant.tol_clean = 1.0;
  cfg.defense.adaptive = fast_adaptive();
  cfg.defense.review_every = 12;
  // Sibling disbelief enters every review score but, at ≤ 0.5 of this
  // flag line, never vetoes a release on its own.
  cfg.defense.ens_threshold = 2.0;

  // Clean rows, borderline drift rows (flag under the thin early profile,
  // clear after recalibration) and attack-scale rows, over four flows.
  Rng rng(0x1e8);
  std::vector<nn::Tensor> inputs;
  for (int i = 0; i < 120; ++i)
    inputs.push_back(i % 3 == 1   ? offset_row(rng, 0.225f)
                     : i % 7 == 3 ? offset_row(rng, 2.0f)
                                  : cluster_row(rng));
  const nn::Tensor clean = cluster_rows(64, 0x1e9);
  nn::Model walk = hairline_kpm_model();
  walk.set_inference_only(true);
  const std::vector<int> labels = walk.predict(clean);

  // Primary predictions as served: an undefended twin on the same gated
  // int8 tier (the tier build is deterministic).
  ServeConfig twin_cfg = cfg;
  twin_cfg.name = "int8review_twin";
  twin_cfg.defense.enable = false;
  ServeEngine twin(hairline_kpm_model(), twin_cfg);
  ASSERT_TRUE(twin.activate_int8_tier(clean, labels).activated);
  std::vector<int> served(inputs.size(), -1);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    twin.submit(nn::Tensor(inputs[i]), [&served, i](const ServeResult& r) {
      served[i] = r.prediction;
    });
  twin.drain();

  ServeEngine eng(hairline_kpm_model(), cfg);
  ASSERT_TRUE(eng.activate_int8_tier(clean, labels).activated);
  eng.attach_defense_sibling(apps::make_one_layer({4}, 4, 31));
  eng.defense()->calibrate(cluster_rows(64, 0x1ea));
  std::vector<serve::ReviewOutcome> released;
  eng.set_release_handler(
      [&released](const serve::ReviewOutcome& o) { released.push_back(o); });

  DefensePlane ref(cfg.defense, "int8review_ref");
  ref.attach_sibling(apps::make_one_layer({4}, 4, 31));
  ref.calibrate(cluster_rows(64, 0x1ea));
  const auto walk_repredict = [&walk](const nn::Tensor& x) {
    return walk.predict_one(x);
  };
  std::vector<serve::ReviewOutcome> expected;

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (i == 54) {
      // Operator recalibration mid-stream turns pending early flags into
      // reviewable false positives.
      eng.defense()->calibrate(wide_rows(384, 0x1eb));
      ref.calibrate(wide_rows(384, 0x1eb));
    }
    const std::string key = "flow/" + std::to_string(i % 4);
    const std::uint64_t version = i / 4;
    eng.submit(nn::Tensor(inputs[i]), serve::FlowTag{key, version},
               obs::TraceContext{}, [](const ServeResult&) {});
    // Past the virtual busy window: the row screens, then a due review
    // runs, before the next row arrives — the reference's order.
    eng.advance_us(1000000);
    ref.screen(i + 1, key, version, inputs[i], served[i]);
    if (ref.review_due()) {
      for (serve::ReviewOutcome& o : ref.review(walk_repredict))
        expected.push_back(std::move(o));
    }
  }
  eng.drain();

  // Both branches ran.
  EXPECT_GT(ref.released(), 0u);
  EXPECT_GT(ref.confirmed(), 0u);

  const serve::DefensePlane& live = *eng.defense();
  EXPECT_EQ(live.review_passes(), ref.review_passes());
  EXPECT_EQ(live.reviewed(), ref.reviewed());
  EXPECT_EQ(live.released(), ref.released());
  EXPECT_EQ(live.confirmed(), ref.confirmed());
  std::vector<serve::ReviewOutcome> expected_released;
  int int8_would_differ = 0;
  for (const serve::ReviewOutcome& o : expected) {
    if (!o.released) continue;
    expected_released.push_back(o);
    if (served[o.request_id - 1] != o.corrected_pred) ++int8_would_differ;
  }
  // The int8 tier answers these released rows differently from the float
  // walk, so an int8 re-predictor could not pass the comparison below.
  EXPECT_GT(int8_would_differ, 0);
  ASSERT_EQ(released.size(), expected_released.size());
  for (std::size_t k = 0; k < released.size(); ++k) {
    EXPECT_EQ(released[k].request_id, expected_released[k].request_id) << k;
    EXPECT_EQ(released[k].flow_key, expected_released[k].flow_key) << k;
    EXPECT_EQ(released[k].review_score, expected_released[k].review_score)
        << k;
    EXPECT_EQ(released[k].corrected_pred, expected_released[k].corrected_pred)
        << k;
  }
  // Confirmed records land in the fine-tuning queue in review order.
  const auto& got = live.finetune().items();
  const auto& want = ref.finetune().items();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].label, want[k].label) << k;
    EXPECT_EQ(std::memcmp(got[k].sample.raw(), want[k].sample.raw(),
                          want[k].sample.numel() * sizeof(float)),
              0)
        << k;
  }
  EXPECT_EQ(live.adaptive().dist_threshold(), ref.adaptive().dist_threshold());
  EXPECT_EQ(live.adaptive().ens_threshold(), ref.adaptive().ens_threshold());
}

// ------------------------------------------------ IC xApp quarantine e2e --

class DefenseFakeE2Node : public oran::E2Node {
 public:
  void handle_control(const oran::E2Control& c) override {
    controls.push_back(c);
  }
  std::string node_id() const override { return "ran-1"; }
  std::vector<oran::E2Control> controls;
};

/// RIC fixture whose xApp role may also write defense alerts — the
/// attestation namespace is RBAC-gated like any other SDL write.
class DefenseRicTest : public ::testing::Test {
 protected:
  DefenseRicTest()
      : op_("op", "sec"),
        svc_(&op_, &rbac_),
        ric_(&rbac_, &svc_, /*control_window_ms=*/1000.0) {
    rbac_.define_role("xapp-defense",
                      {oran::Permission{"telemetry/*", true, false},
                       oran::Permission{"decisions", true, true},
                       oran::Permission{"defense-alerts", true, true},
                       oran::Permission{"e2/control", false, true}});
    ric_.connect_e2(&node_);
  }

  std::string onboard(const std::string& name) {
    oran::AppDescriptor d;
    d.name = name;
    d.version = "1";
    d.vendor = "v";
    d.payload = "p";
    d.requested_role = "xapp-defense";
    return svc_.onboard(op_.package(d)).app_id;
  }

  oran::E2Indication kpm_indication(nn::Tensor payload, std::uint64_t tti) {
    oran::E2Indication ind;
    ind.ran_node_id = "ran-1";
    ind.tti = tti;
    ind.kind = oran::IndicationKind::kKpm;
    ind.payload = std::move(payload);
    return ind;
  }

  oran::Rbac rbac_;
  oran::Operator op_;
  oran::OnboardingService svc_;
  oran::NearRtRic ric_;
  DefenseFakeE2Node node_;
};

TEST_F(DefenseRicTest, QuarantineDegradesToFailsafeAndPublishesAttestation) {
  auto app = std::make_shared<apps::IcXApp>(
      kpm_model(), oran::IndicationKind::kKpm, /*fixed_mcs_index=*/13);
  const std::string app_id = onboard("ic");
  ASSERT_TRUE(ric_.register_xapp(app, app_id, 10));

  ServeConfig cfg = defended_engine_config("icquarantine");
  cfg.batch_max = 1;  // flush in submit → each delivery completes inline
  ServeEngine eng(kpm_model(), cfg);
  eng.defense()->calibrate(cluster_rows(64, 0x91));
  app->set_serve_engine(&eng);

  // Clean telemetry serves normally: controls are issued from real
  // predictions and nothing is quarantined.
  Rng rng(0x92);
  for (std::uint64_t tti = 1; tti <= 3; ++tti)
    ric_.deliver_indication(kpm_indication(cluster_row(rng), tti));
  eng.drain();
  EXPECT_EQ(app->serve_quarantined(), 0u);
  EXPECT_EQ(app->predictions_made(), 3u);
  ASSERT_EQ(node_.controls.size(), 3u);

  // A perturbed indication (the §3.1 injection, written into the SDL by
  // the platform like any telemetry) is quarantined: the xApp must take
  // the fail-safe adaptive MCS and publish an attestation alert naming
  // the flagged entry and its last SDL writer.
  ric_.deliver_indication(kpm_indication(far_row(rng), 4));
  eng.drain();
  EXPECT_EQ(app->serve_quarantined(), 1u);
  EXPECT_EQ(app->predictions_made(), 3u);  // no prediction acted on
  EXPECT_EQ(eng.slo().quarantined, 1u);
  ASSERT_EQ(node_.controls.size(), 4u);
  EXPECT_EQ(node_.controls.back().action,
            oran::ControlAction::kSetAdaptiveMcs);

  std::string decision;
  ASSERT_EQ(ric_.sdl().read_text(app_id, oran::kNsDecisions, "ic/ran-1",
                                 decision),
            oran::SdlStatus::kOk);
  EXPECT_EQ(decision, "failsafe");

  std::string alert;
  ASSERT_EQ(ric_.sdl().read_text(app_id, oran::kNsDefenseAlerts,
                                 app_id + "/ran-1", alert),
            oran::SdlStatus::kOk);
  EXPECT_NE(alert.find("telemetry/kpm/ran-1/current"), std::string::npos)
      << alert;
  // The platform wrote the (perturbed) telemetry, so the attestation
  // names it — under a co-hosted-attacker plan this is where the rogue
  // app's identity would surface.
  EXPECT_NE(alert.find("writer=ric-platform"), std::string::npos) << alert;
}

TEST_F(DefenseRicTest, ReviewReleaseReplaysThroughTheDecisionPath) {
  auto app = std::make_shared<apps::IcXApp>(
      kpm_model(), oran::IndicationKind::kKpm, /*fixed_mcs_index=*/13);
  const std::string app_id = onboard("ic");
  ASSERT_TRUE(ric_.register_xapp(app, app_id, 10));

  ServeConfig cfg = defended_engine_config("icrelease");
  cfg.batch_max = 1;
  cfg.defense.use_ensemble = false;
  cfg.defense.review_every = 1000;  // reviews run manually below
  ServeEngine eng(kpm_model(), cfg);
  eng.defense()->calibrate(cluster_rows(64, 0xf3));
  app->set_serve_engine(&eng);
  app->enable_release_channel(ric_);

  // Clean traffic, then one mild drift row the thin profile flags: the
  // xApp degrades to fail-safe and attests, as in the quarantine test.
  Rng rng(0xf4);
  for (std::uint64_t tti = 1; tti <= 3; ++tti)
    ric_.deliver_indication(kpm_indication(cluster_row(rng), tti));
  ric_.deliver_indication(kpm_indication(offset_row(rng, 0.225f), 4));
  eng.drain();
  ASSERT_EQ(app->serve_quarantined(), 1u);
  ASSERT_EQ(app->predictions_made(), 3u);
  ASSERT_EQ(node_.controls.size(), 4u);

  // Operator-side recalibration reveals the flag as a false positive; the
  // review releases it and the xApp replays it through the normal
  // decision path — prediction published, control issued, and a
  // correcting attestation superseding the quarantine alert.
  eng.defense()->calibrate(wide_rows(192, 0xf5));
  eng.review_quarantine_now();
  EXPECT_EQ(app->serve_released(), 1u);
  EXPECT_EQ(app->predictions_made(), 4u);
  EXPECT_EQ(node_.controls.size(), 5u);

  std::string decision;
  ASSERT_EQ(ric_.sdl().read_text(app_id, oran::kNsDecisions, "ic/ran-1",
                                 decision),
            oran::SdlStatus::kOk);
  EXPECT_NE(decision, "failsafe");

  std::string alert;
  ASSERT_EQ(ric_.sdl().read_text(app_id, oran::kNsDefenseAlerts,
                                 app_id + "/ran-1", alert),
            oran::SdlStatus::kOk);
  EXPECT_NE(alert.find("released"), std::string::npos) << alert;
  EXPECT_NE(alert.find("epoch=0"), std::string::npos) << alert;
}


// ------------------------------------------------- non-finite telemetry --

/// Which detectors a non-finite probe runs against.
enum class Detectors { kDistribution, kNormScreen, kEnsemble, kAll };

/// A calibrated plane with only the chosen detectors on, adaptive
/// thresholds on, and (for the ensemble) a sibling attached.
std::unique_ptr<DefensePlane> nonfinite_plane(Detectors which,
                                              std::uint64_t review_every) {
  DefenseConfig cfg = tight_defense();
  cfg.use_distribution =
      which == Detectors::kDistribution || which == Detectors::kAll;
  cfg.use_norm_screen =
      which == Detectors::kNormScreen || which == Detectors::kAll;
  cfg.use_ensemble = which == Detectors::kEnsemble || which == Detectors::kAll;
  cfg.adaptive = fast_adaptive();
  cfg.review_every = review_every;
  auto plane = std::make_unique<DefensePlane>(cfg, "nonfinite");
  if (cfg.use_ensemble) plane->attach_sibling(kpm_model(23));
  plane->calibrate(cluster_rows(64, 0x6a1));
  plane->calibrate_flow("nf/flow", cluster_rows(16, 0x6a2), 1);
  return plane;
}

TEST(DefensePlane, NonFiniteRowsAreFlaggedAndNeverBecomeReferenceState) {
  const float specials[3] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
  const Detectors detectors[4] = {Detectors::kDistribution,
                                  Detectors::kNormScreen, Detectors::kEnsemble,
                                  Detectors::kAll};
  for (const Detectors which : detectors) {
    for (const float special : specials) {
      for (std::size_t pos = 0; pos < 4; ++pos) {
        SCOPED_TRACE(::testing::Message()
                     << "detectors " << static_cast<int>(which) << " value "
                     << special << " position " << pos);
        std::unique_ptr<DefensePlane> plane = nonfinite_plane(which, 0);
        Rng rng(0x6a3 + pos);
        std::uint64_t id = 0, version = 17;
        // Clean rows screened with prediction 1: the flow's label and LKG.
        int accepted_clean = 0;
        for (int i = 0; i < 24; ++i)
          accepted_clean += plane->screen(++id, "nf/flow", version++,
                                          cluster_row(rng), 1)
                                    .flagged
                                ? 0
                                : 1;
        const nn::Tensor probe = cluster_row(rng);
        const double lkg_before =
            plane->norm_screen().review_score("nf/flow", probe.raw(), 4);
        const std::uint64_t accepted = plane->adaptive().accepted();
        const std::size_t finetune = plane->finetune().size();

        nn::Tensor bad = cluster_row(rng);
        bad[pos] = special;
        const DefenseVerdict v = plane->screen(++id, "nf/flow", version++, bad, 2);
        EXPECT_TRUE(v.flagged);
        EXPECT_EQ(v.score, std::numeric_limits<double>::infinity());
        EXPECT_EQ(plane->norm_screen().review_score("nf/flow", probe.raw(), 4),
                  lkg_before);
        EXPECT_EQ(plane->adaptive().accepted(), accepted);
        EXPECT_EQ(plane->finetune().size(), finetune);
        ASSERT_EQ(plane->quarantine().back().request_id, id);

        // The next flagged row's reference label is the last clean
        // prediction (1), never the non-finite row's (2).
        const DefenseVerdict far =
            plane->screen(++id, "nf/flow", version++, far_row(rng), 3);
        if (far.flagged && accepted_clean > 0) {
          EXPECT_EQ(plane->quarantine().back().ref_label, 1);
        }
      }
    }
  }
}

TEST(DefensePlane, ReviewNeverReleasesANonFiniteRow) {
  for (const float special : {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()}) {
    std::unique_ptr<DefensePlane> plane =
        nonfinite_plane(Detectors::kAll, 1000);
    Rng rng(0x6a4);
    nn::Tensor bad = cluster_row(rng);
    bad[1] = special;
    ASSERT_TRUE(plane->screen(1, "nf/flow", 17, bad, 0).flagged);
    // The most lenient review: every record re-predicted as the sibling's
    // favourite class and the profile widened.
    plane->calibrate(wide_rows(384, 0x6a5));
    const std::vector<serve::ReviewOutcome> out =
        plane->review([](const nn::Tensor&) { return 0; });
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].released);
    EXPECT_EQ(out[0].review_score, std::numeric_limits<double>::infinity());
    EXPECT_EQ(plane->finetune().size(), 0u);  // never fine-tune material
    EXPECT_EQ(plane->released(), 0u);
  }
}

// ----------------------------------------------------- batched scoring --

TEST(DefensePlane, BatchedEnsembleScoresMatchPerRowScoringBitForBit) {
  for (const bool compiles : {true, false}) {
    SCOPED_TRACE(compiles ? "compiled sibling" : "walk sibling");
    nn::Model sibling = kpm_model(41);
    if (!compiles) {
      auto seq = std::make_unique<nn::Sequential>();
      seq->emplace<nn::Dense>(4, 8);
      seq->emplace<nn::Sigmoid>();
      seq->emplace<nn::Dense>(8, 4);
      sibling = nn::Model("SigmoidSibling", std::move(seq), {4}, 4);
      Rng init(0x6b0);
      sibling.init(init);
    }
    DefenseConfig cfg = tight_defense();
    cfg.adaptive = fast_adaptive();
    DefensePlane batched(cfg, "batched"), per_row(cfg, "perrow");
    batched.attach_sibling(sibling.clone());
    per_row.attach_sibling(sibling.clone());
    ASSERT_EQ(batched.sibling_compiled(), compiles);
    for (DefensePlane* p : {&batched, &per_row})
      p->calibrate(cluster_rows(64, 0x6b1));

    const std::vector<nn::Tensor> rows = mixed_inputs(96, 0x6b2);
    const int m = 32;
    std::vector<float> staged(static_cast<std::size_t>(m) * 4);
    std::vector<int> preds(static_cast<std::size_t>(m));
    for (int b = 0; b < 3; ++b) {
      for (int i = 0; i < m; ++i) {
        const nn::Tensor& x = rows[static_cast<std::size_t>(b * m + i)];
        std::copy(x.raw(), x.raw() + 4, staged.data() + i * 4);
        preds[static_cast<std::size_t>(i)] = (b * m + i) % 5 - 1;  // -1..3
      }
      const double* ens =
          batched.batch_ensemble_scores(staged.data(), m, 4, preds.data());
      EXPECT_EQ(ens != nullptr, compiles);
      for (int i = 0; i < m; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(b * m + i + 1);
        const std::string key = "flow/" + std::to_string(i % 4);
        const nn::Tensor& x = rows[id - 1];
        const int pred = preds[static_cast<std::size_t>(i)];
        const DefenseVerdict a = batched.screen_flow(
            id, batched.flow_id(key), id / 4, x, pred,
            ens != nullptr ? ens + i : nullptr);
        const DefenseVerdict r = per_row.screen(id, key, id / 4, x, pred);
        ASSERT_EQ(a.ens_score, r.ens_score) << id;
        ASSERT_EQ(a.score, r.score) << id;
        ASSERT_EQ(a.flagged, r.flagged) << id;
      }
    }
    EXPECT_GT(per_row.flagged(), 0u);
  }
}

TEST(DefensePlane, BatchedReviewMatchesPerRecordReviewBitForBit) {
  DefenseConfig cfg = tight_defense();
  cfg.adaptive = fast_adaptive();
  cfg.review_every = 1000;
  DefensePlane batched(cfg, "rbatched"), per_record(cfg, "rperrec");
  for (DefensePlane* p : {&batched, &per_record}) {
    p->attach_sibling(kpm_model(43));
    p->calibrate(cluster_rows(64, 0x6c1));
  }
  nn::Model victim = kpm_model(44);
  victim.set_inference_only(true);
  const std::vector<nn::Tensor> rows = mixed_inputs(60, 0x6c2);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string key = "flow/" + std::to_string(i % 3);
    const int pred = victim.predict_one(rows[i]);
    batched.screen(i + 1, key, i / 3, rows[i], pred);
    per_record.screen(i + 1, key, i / 3, rows[i], pred);
  }
  ASSERT_GT(batched.quarantine().size(), 1u);
  for (DefensePlane* p : {&batched, &per_record})
    p->calibrate(wide_rows(384, 0x6c3));

  const std::vector<serve::ReviewOutcome> expected = per_record.review(
      [&victim](const nn::Tensor& x) { return victim.predict_one(x); });
  int calls = 0;
  const std::span<const serve::ReviewOutcome> got = batched.review_rows(
      4, [&victim, &calls](const float* x, int m, int* preds) {
        ++calls;
        for (int i = 0; i < m; ++i)
          preds[i] = victim.predict_one(
              nn::Tensor({4}, std::vector<float>(x + i * 4, x + i * 4 + 4)));
      });
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].request_id, expected[k].request_id) << k;
    EXPECT_EQ(got[k].flow_key, expected[k].flow_key) << k;
    EXPECT_EQ(got[k].review_score, expected[k].review_score) << k;
    EXPECT_EQ(got[k].released, expected[k].released) << k;
    EXPECT_EQ(got[k].corrected_pred, expected[k].corrected_pred) << k;
  }
  EXPECT_EQ(batched.finetune().size(), per_record.finetune().size());
  EXPECT_GT(per_record.released() + per_record.confirmed(), 0u);
}

TEST(ServeDefense, BatchedScreenMatchesPerRowPlaneUnderInt8) {
  // A defended engine flushing 8-row batches on the gated int8 tier
  // scores its sibling once per flush; each row's defense score must equal
  // a per-row plane screening the same rows with the served predictions.
  ServeConfig cfg = defended_engine_config("int8batch");
  cfg.replicas = 1;
  cfg.quant.enable = true;
  cfg.quant.tol_clean = 1.0;
  cfg.defense.adaptive = fast_adaptive();
  const nn::Tensor clean = cluster_rows(64, 0x6d1);
  nn::Model walk = hairline_kpm_model();
  walk.set_inference_only(true);
  const std::vector<int> labels = walk.predict(clean);
  const std::vector<nn::Tensor> inputs = mixed_inputs(96, 0x6d2);

  ServeConfig twin_cfg = cfg;
  twin_cfg.name = "int8batch_twin";
  twin_cfg.defense.enable = false;
  ServeEngine twin(hairline_kpm_model(), twin_cfg);
  ASSERT_TRUE(twin.activate_int8_tier(clean, labels).activated);
  std::vector<int> served(inputs.size(), -1);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    twin.submit(nn::Tensor(inputs[i]), [&served, i](const ServeResult& r) {
      served[i] = r.prediction;
    });
  twin.drain();

  ServeEngine eng(hairline_kpm_model(), cfg);
  ASSERT_TRUE(eng.activate_int8_tier(clean, labels).activated);
  eng.attach_defense_sibling(apps::make_one_layer({4}, 4, 31));
  ASSERT_TRUE(eng.defense()->sibling_compiled());
  eng.defense()->calibrate(cluster_rows(64, 0x6d3));
  std::vector<double> scores(inputs.size(), -1.0);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    eng.submit(nn::Tensor(inputs[i]),
               serve::FlowTag{"flow/" + std::to_string(i % 4), i / 4},
               obs::TraceContext{}, [&scores, i](const ServeResult& r) {
                 scores[i] = r.defense_score;
               });
  eng.drain();

  DefensePlane ref(cfg.defense, "int8batch_ref");
  ref.attach_sibling(apps::make_one_layer({4}, 4, 31));
  ref.calibrate(cluster_rows(64, 0x6d3));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const DefenseVerdict v = ref.screen(
        i + 1, "flow/" + std::to_string(i % 4), i / 4, inputs[i], served[i]);
    ASSERT_EQ(scores[i], v.score) << i;
  }
  EXPECT_GT(ref.flagged(), 0u);
}

// ----------------------------------------------- flow-id checkpoint bytes --

TEST(DefensePlane, FlowIdScreensWriteTheStringKeyedCheckpointBytes) {
  DefenseConfig cfg = tight_defense();
  cfg.adaptive = fast_adaptive();
  cfg.review_every = 16;
  DefensePlane by_key(cfg, "ckptbytes"), by_id(cfg, "ckptbytes");
  for (DefensePlane* p : {&by_key, &by_id}) {
    p->attach_sibling(kpm_model(47));
    p->calibrate(cluster_rows(64, 0x6e1));
    p->calibrate_flow("flow/1", cluster_rows(8, 0x6e2), 1);
  }
  const std::vector<nn::Tensor> rows = mixed_inputs(80, 0x6e3);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // Keys arrive out of order so ids and sorted key order differ.
    const std::string key = i % 5 == 0 ? "" : "flow/" + std::to_string(7 - i % 5);
    const int pred = static_cast<int>(i % 4);
    by_key.screen(i + 1, key, 9 + i / 5, rows[i], pred);
    by_id.screen_flow(i + 1, by_id.flow_id(key), 9 + i / 5, rows[i], pred);
    if (by_key.review_due()) {
      by_key.review([](const nn::Tensor&) { return 1; });
      by_id.review_rows(4, [](const float*, int m, int* preds) {
        std::fill(preds, preds + m, 1);
      });
    }
  }
  // Leave a pending record so the quarantine section is written too.
  Rng rng(0x6e4);
  const nn::Tensor far = far_row(rng);
  by_key.screen(1000, "flow/9", 1, far, 0);
  by_id.screen_flow(1000, by_id.flow_id("flow/9"), 1, far, 0);
  ASSERT_GT(by_key.reviewed(), 0u);
  ASSERT_GT(by_key.quarantine().size(), 0u);
  const std::string dir = ::testing::TempDir() + "orev_flowid_ckpt";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(by_key.save_status(dir + "/key.ckpt").ok());
  ASSERT_TRUE(by_id.save_status(dir + "/id.ckpt").ok());
  const auto bytes = [](const std::string& path) {
    std::string out;
    EXPECT_TRUE(persist::read_file(path, out).ok());
    return out;
  };
  EXPECT_EQ(bytes(dir + "/key.ckpt"), bytes(dir + "/id.ckpt"));

  // A loaded plane keeps its flow ids and writes the same bytes again.
  const std::uint32_t id7 = by_id.flow_id("flow/7");
  ASSERT_TRUE(by_id.load_status(dir + "/key.ckpt").ok());
  EXPECT_EQ(by_id.flow_id("flow/7"), id7);
  ASSERT_TRUE(by_id.save_status(dir + "/again.ckpt").ok());
  EXPECT_EQ(bytes(dir + "/key.ckpt"), bytes(dir + "/again.ckpt"));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace orev
