// RICTest emulator tests: Fig. 10 topology invariants, UE redistribution
// on capacity-cell shutdown (the Fig. 7 mechanism), PM report semantics,
// city-trace structure, the power-saving oracle, and the window/history
// permutation round trip the rApp attack depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "rictest/dataset.hpp"
#include "rictest/emulator.hpp"

namespace orev::rictest {
namespace {

// --------------------------------------------------------------- topology

TEST(Topology, SectorOfEveryCell) {
  EXPECT_EQ(sector_of(1), 0);
  EXPECT_EQ(sector_of(2), 1);
  EXPECT_EQ(sector_of(3), 2);
  EXPECT_EQ(sector_of(4), 0);
  EXPECT_EQ(sector_of(7), 0);
  EXPECT_EQ(sector_of(5), 1);
  EXPECT_EQ(sector_of(9), 2);
  EXPECT_THROW(sector_of(0), CheckError);
  EXPECT_THROW(sector_of(10), CheckError);
}

TEST(Topology, SectorCellsMatchFig10) {
  // Fig. 10: coverage 1 contains capacity {4, 7}, 2 → {5, 8}, 3 → {6, 9}.
  const Sector s0 = sector_cells(0);
  EXPECT_EQ(s0.coverage, 1);
  EXPECT_EQ(s0.capacity1, 4);
  EXPECT_EQ(s0.capacity2, 7);
  const Sector s2 = sector_cells(2);
  EXPECT_EQ(s2.coverage, 3);
  EXPECT_EQ(s2.capacity1, 6);
  EXPECT_EQ(s2.capacity2, 9);
}

TEST(Topology, SectorMembershipConsistent) {
  for (int s = 0; s < kNumSectors; ++s) {
    const Sector sc = sector_cells(s);
    EXPECT_EQ(sector_of(sc.coverage), s);
    EXPECT_EQ(sector_of(sc.capacity1), s);
    EXPECT_EQ(sector_of(sc.capacity2), s);
  }
}

// --------------------------------------------------------------- emulator

TEST(Emulator, AllCellsStartActive) {
  Emulator em(EmulatorConfig{});
  for (const int id : all_cell_ids()) EXPECT_TRUE(em.cell_active(id));
}

TEST(Emulator, PmReportCoversAllCells) {
  Emulator em(EmulatorConfig{});
  em.advance();
  const oran::PmReport pm = em.collect_pm();
  EXPECT_EQ(pm.cells.size(), 9u);
  for (const auto& [id, cell] : pm.cells) {
    EXPECT_GE(cell.prb_util_dl, 0.0);
    EXPECT_LE(cell.prb_util_dl, 100.0);
  }
}

TEST(Emulator, CoverageCellsCannotBeDeactivated) {
  Emulator em(EmulatorConfig{});
  EXPECT_FALSE(em.set_cell_state(1, false));
  EXPECT_TRUE(em.cell_active(1));
  EXPECT_TRUE(em.set_cell_state(4, false));
  EXPECT_FALSE(em.cell_active(4));
}

TEST(Emulator, UnknownCellRejected) {
  Emulator em(EmulatorConfig{});
  EXPECT_FALSE(em.set_cell_state(42, false));
}

TEST(Emulator, DeactivationShiftsUesToCoverage) {
  EmulatorConfig cfg;
  Emulator em(cfg);
  // Mid-day: bell-profile capacity cells are loaded.
  for (int i = 0; i < cfg.periods_per_day / 2; ++i) em.advance();
  const int cap_ues = em.attached_ues(4);
  const int cov_before = em.attached_ues(1);
  ASSERT_GT(cap_ues, 0);
  em.set_cell_state(4, false);
  EXPECT_EQ(em.attached_ues(1), cov_before + cap_ues);
  EXPECT_EQ(em.attached_ues(4), 0);
}

TEST(Emulator, ReactivationRestoresDistribution) {
  EmulatorConfig cfg;
  Emulator em(cfg);
  for (int i = 0; i < cfg.periods_per_day / 2; ++i) em.advance();
  const int cov_before = em.attached_ues(1);
  em.set_cell_state(4, false);
  em.set_cell_state(4, true);
  EXPECT_EQ(em.attached_ues(1), cov_before);
}

TEST(Emulator, PeakShutdownCollapsesThroughput) {
  // The Fig. 7 effect: killing both capacity cells of one sector at the
  // daily peak overloads the coverage cell and drops network throughput.
  EmulatorConfig cfg;
  Emulator em(cfg);
  for (int i = 0; i < cfg.periods_per_day / 2; ++i) em.advance();
  const double before = em.network_throughput_mbps();
  em.set_cell_state(4, false);
  em.set_cell_state(7, false);
  const double after = em.network_throughput_mbps();
  EXPECT_LT(after, before * 0.9);
  // The sector's coverage cell must now be saturated.
  const oran::PmReport pm = em.collect_pm();
  EXPECT_NEAR(pm.cells.at(1).prb_util_dl, 100.0, 1e-9);
}

TEST(Emulator, OffPeakShutdownIsCheap) {
  // At night the capacity cells are nearly empty — switching them off
  // barely moves throughput (which is why power saving works at all).
  EmulatorConfig cfg;
  Emulator em(cfg);
  em.advance();  // first period of the day, bell profile near zero
  const double before = em.network_throughput_mbps();
  em.set_cell_state(4, false);  // bell-profile cell, idle at day start
  const double after = em.network_throughput_mbps();
  EXPECT_GT(after, before * 0.9);
}

TEST(Emulator, UeCountsWithinConfiguredPeak) {
  EmulatorConfig cfg;
  Emulator em(cfg);
  for (int i = 0; i < 2 * cfg.periods_per_day; ++i) {
    em.advance();
    for (const int id : {4, 5, 6, 7, 8, 9}) {
      EXPECT_GE(em.attached_ues(id), 0);
      EXPECT_LE(em.attached_ues(id), cfg.capacity_ue_peak);
    }
  }
}

TEST(Emulator, InactiveCellServesNothingButReportsOfferedLoad) {
  EmulatorConfig cfg;
  Emulator em(cfg);
  for (int i = 0; i < cfg.periods_per_day / 2; ++i) em.advance();  // peak
  const double active_prb = em.collect_pm().cells.at(4).prb_util_dl;
  em.set_cell_state(4, false);
  const oran::PmReport pm = em.collect_pm();
  EXPECT_FALSE(pm.cells.at(4).active);
  EXPECT_EQ(pm.cells.at(4).dl_throughput_mbps, 0.0);
  EXPECT_EQ(pm.cells.at(4).conn_mean, 0.0);
  // The offered-load estimate stays visible so policies can re-activate.
  EXPECT_NEAR(pm.cells.at(4).prb_util_dl, active_prb, 1e-9);
}

// ------------------------------------------------------------- city trace

TEST(CityTrace, DimensionsMatchConfig) {
  CityTraceConfig cfg;
  cfg.days = 3;
  cfg.periods_per_day = 96;
  const auto trace = make_city_trace(cfg);
  EXPECT_EQ(trace.size(), 3u * 96u);
}

TEST(CityTrace, ValuesInPrbRange) {
  CityTraceConfig cfg;
  cfg.days = 2;
  for (const auto& row : make_city_trace(cfg)) {
    for (const double v : row) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 100.0);
    }
  }
}

TEST(CityTrace, CapacityCellsShowDiurnalSwing) {
  CityTraceConfig cfg;
  cfg.days = 7;
  const auto trace = make_city_trace(cfg);
  // Bell-profile capacity cell 4 (index 3): midday mean >> 3am mean.
  double night = 0.0, noon = 0.0;
  int count = 0;
  for (int d = 0; d < 7; ++d) {
    night += trace[static_cast<std::size_t>(d * 96 + 12)][3];
    noon += trace[static_cast<std::size_t>(d * 96 + 48)][3];
    ++count;
  }
  EXPECT_GT(noon / count, night / count + 15.0);
}

TEST(CityTrace, WeekendLighterThanWeekday) {
  CityTraceConfig cfg;
  cfg.days = 28;
  cfg.noise_sigma = 1.0;  // keep noise from masking the weekly pattern
  const auto trace = make_city_trace(cfg);
  double weekday = 0.0, weekend = 0.0;
  int wd = 0, we = 0;
  for (int d = 0; d < 28; ++d) {
    const double noon = trace[static_cast<std::size_t>(d * 96 + 48)][3];
    if (d % 7 < 5) {
      weekday += noon;
      ++wd;
    } else {
      weekend += noon;
      ++we;
    }
  }
  EXPECT_GT(weekday / wd, weekend / we);
}

// ----------------------------------------------------------------- oracle

nn::Tensor window_with_capacity_levels(double k1, double k2) {
  nn::Tensor w({1, 12, kNumCells});
  for (int t = 0; t < 12; ++t) {
    w[static_cast<std::size_t>(t) * kNumCells + 0] = 0.4f;  // coverage
    w[static_cast<std::size_t>(t) * kNumCells + 1] =
        static_cast<float>(k1 / 100.0);
    w[static_cast<std::size_t>(t) * kNumCells + 2] =
        static_cast<float>(k2 / 100.0);
  }
  return w;
}

struct OracleCase {
  double k1;
  double k2;
  PsAction expected;
  // gtest names each case by printing the param's bytes; this explicit,
  // zeroed tail stands where padding would be, so every id is fixed bytes.
  std::int32_t tail = 0;
};
static_assert(sizeof(OracleCase) ==
                  2 * sizeof(double) + 2 * sizeof(std::int32_t),
              "OracleCase must have no padding bytes");

class OracleRules : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OracleRules, MapsLoadsToAction) {
  const OracleCase c = GetParam();
  const nn::Tensor w = window_with_capacity_levels(c.k1, c.k2);
  EXPECT_EQ(oracle_action(w, 55.0, 30.0), c.expected)
      << "k1=" << c.k1 << " k2=" << c.k2;
}

INSTANTIATE_TEST_SUITE_P(
    AllSixActions, OracleRules,
    ::testing::Values(
        OracleCase{80.0, 80.0, PsAction::kActivateBoth},
        OracleCase{80.0, 40.0, PsAction::kActivateCap1},
        OracleCase{40.0, 80.0, PsAction::kActivateCap2},
        OracleCase{10.0, 10.0, PsAction::kDeactivateBoth},
        OracleCase{10.0, 40.0, PsAction::kDeactivateCap1},
        OracleCase{40.0, 10.0, PsAction::kDeactivateCap2},
        // Mid-range tie-break: the lighter cell powers down.
        OracleCase{35.0, 50.0, PsAction::kDeactivateCap1},
        OracleCase{50.0, 35.0, PsAction::kDeactivateCap2}));

TEST(Oracle, UsesOnlyRecentSteps) {
  // Early-window values must not affect the decision (mean of last 3).
  nn::Tensor w = window_with_capacity_levels(10.0, 10.0);
  for (int t = 0; t < 9; ++t) {
    w[static_cast<std::size_t>(t) * kNumCells + 1] = 0.99f;
    w[static_cast<std::size_t>(t) * kNumCells + 2] = 0.99f;
  }
  EXPECT_EQ(oracle_action(w, 55.0, 30.0), PsAction::kDeactivateBoth);
}

TEST(Oracle, RejectsWrongShape) {
  EXPECT_THROW(oracle_action(nn::Tensor({1, 12, 5}), 55.0, 30.0),
               CheckError);
}

// ------------------------------------------------ windows & perturbations

TEST(WindowFeatures, ServingColumnsFirst) {
  CityTraceConfig cfg;
  cfg.days = 1;
  const auto trace = make_city_trace(cfg);
  const int t = 20;
  const nn::Tensor w = window_features(trace, t, 12, /*sector=*/1);
  // Sector 1 serves coverage 2 (idx 1), capacity 5 (idx 4), 8 (idx 7).
  const auto& last = trace[static_cast<std::size_t>(t)];
  EXPECT_NEAR(w[11 * kNumCells + 0], last[1] / 100.0, 1e-6);
  EXPECT_NEAR(w[11 * kNumCells + 1], last[4] / 100.0, 1e-6);
  EXPECT_NEAR(w[11 * kNumCells + 2], last[7] / 100.0, 1e-6);
}

TEST(WindowFeatures, BoundsChecked) {
  CityTraceConfig cfg;
  cfg.days = 1;
  const auto trace = make_city_trace(cfg);
  EXPECT_THROW(window_features(trace, 5, 12, 0), CheckError);
  EXPECT_THROW(window_features(trace, static_cast<int>(trace.size()), 12, 0),
               CheckError);
}

TEST(PowerSavingDataset, CoversAllClasses) {
  CityTraceConfig cfg;
  cfg.days = 10;
  const data::Dataset d = make_power_saving_dataset(cfg, 12, 4);
  d.check();
  EXPECT_EQ(d.num_classes, kPsActionCount);
  const auto counts = d.class_counts();
  for (int c = 0; c < kPsActionCount; ++c) {
    EXPECT_GT(counts.count(c), 0u) << "missing action class " << c;
  }
}

TEST(PowerSavingDataset, LabelsAgreeWithOracle) {
  CityTraceConfig cfg;
  cfg.days = 2;
  const data::Dataset d = make_power_saving_dataset(cfg, 12, 16);
  for (int i = 0; i < std::min(d.size(), 20); ++i) {
    const nn::Tensor w = d.sample(i);
    EXPECT_EQ(static_cast<int>(oracle_action(w, cfg.busy_threshold,
                                             cfg.idle_threshold)),
              d.y[static_cast<std::size_t>(i)]);
  }
}

TEST(SectorWindow, HistoryPermutationRoundTrip) {
  // sector_window_from_history must be the inverse of
  // apply_perturbation_to_history's column mapping.
  nn::Tensor history({12, kNumCells});
  Rng rng(5);
  for (std::size_t i = 0; i < history.numel(); ++i)
    history[i] = rng.uniform(10.0f, 90.0f);

  const nn::Tensor before = sector_window_from_history(history, 2);
  nn::Tensor delta({1, 12, kNumCells});
  delta[0] = 0.1f;  // +10 PRB points on the serving coverage, first step
  nn::Tensor perturbed = history;
  apply_perturbation_to_history(perturbed, delta, 2);
  const nn::Tensor after = sector_window_from_history(perturbed, 2);
  EXPECT_NEAR(after[0] - before[0], 0.1f, 1e-5f);
  // All other positions unchanged.
  for (std::size_t i = 1; i < after.numel(); ++i)
    EXPECT_NEAR(after[i], before[i], 1e-6f);
}

TEST(SectorWindow, PerturbationClampedToPrbRange) {
  nn::Tensor history({12, kNumCells}, 95.0f);
  nn::Tensor delta({1, 12, kNumCells}, 0.5f);  // +50 points everywhere
  apply_perturbation_to_history(history, delta, 0);
  for (std::size_t i = 0; i < history.numel(); ++i)
    EXPECT_LE(history[i], 100.0f);
}

TEST(PsActionNames, AllDistinct) {
  std::set<std::string> names;
  for (int a = 0; a < kPsActionCount; ++a)
    names.insert(ps_action_name(static_cast<PsAction>(a)));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kPsActionCount));
}

}  // namespace
}  // namespace orev::rictest
