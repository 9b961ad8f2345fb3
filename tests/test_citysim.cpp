// City-scale emulation plane (DESIGN.md §16): deterministic sharded
// simulator, binary KPM codec, CRC-32C, checkpointing, striped SDL
// equivalence, and the NearRtRic delivery entry points (copy, move and
// binary frame) over their one shared delivery core.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "citysim/citysim.hpp"
#include "oran/e2_codec.hpp"
#include "oran/near_rt_ric.hpp"
#include "oran/onboarding.hpp"
#include "oran/sdl.hpp"
#include "util/fault/fault.hpp"
#include "util/obs/obs.hpp"
#include "util/persist/persist.hpp"
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

// A small city that still exercises every mechanism: multiple shards,
// frequent handovers, several epochs of reports.
citysim::CityConfig small_city() {
  citysim::CityConfig cfg;
  cfg.cells = 40;
  cfg.ues = 500;
  cfg.shards = 8;
  cfg.seed = 0x5eed;
  cfg.epoch_us = 100000;
  cfg.report_period_us = 100000;
  cfg.mean_dwell_us = 150000;  // several moves per UE across the run
  return cfg;
}

// ------------------------------------------------------------- CRC-32C

TEST(Crc32c, KnownAnswerAndChaining) {
  // iSCSI/RFC 3720 check value — also pins hw/sw dispatch agreement,
  // since whichever implementation runs must produce this constant.
  EXPECT_EQ(persist::crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(persist::crc32c(std::string_view{}), 0u);
  const std::string a = "city-scale ";
  const std::string b = "emulation plane";
  EXPECT_EQ(persist::crc32c(b, persist::crc32c(a)),
            persist::crc32c(a + b));
  // Odd lengths hit the byte-tail path of both implementations.
  for (std::size_t n = 1; n <= 17; ++n) {
    const std::string s(n, static_cast<char>(0xa5));
    EXPECT_NE(persist::crc32c(s), 0u) << "length " << n;
  }
}

// ------------------------------------------------------- binary KPM codec

TEST(KpmCodec, RoundTripPreservesEveryField) {
  oran::KpmFrameArena arena;
  std::vector<float> feats{1.5f, -2.25f, 0.0f, 100.0f, 0.125f};
  const std::string_view frame =
      arena.encode(4242, 77, oran::IndicationKind::kKpm,
                   std::span<const float>(feats));
  EXPECT_EQ(frame.size(), oran::kpm_frame_size(feats.size()));

  oran::KpmFrameView v;
  ASSERT_EQ(oran::decode_kpm_frame(frame, v), oran::KpmDecodeStatus::kOk);
  EXPECT_EQ(v.cell_id, 4242u);
  EXPECT_EQ(v.tti, 77u);
  EXPECT_EQ(v.kind, oran::IndicationKind::kKpm);
  ASSERT_EQ(v.feature_count, feats.size());
  for (std::size_t i = 0; i < feats.size(); ++i)
    EXPECT_EQ(v.feature(i), feats[i]) << "feature " << i;
}

TEST(KpmCodec, EveryTruncationIsRejected) {
  oran::KpmFrameArena arena;
  std::vector<float> feats(8, 0.5f);
  const std::string good(arena.encode(1, 2, oran::IndicationKind::kKpm,
                                      std::span<const float>(feats)));
  oran::KpmFrameView v;
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_NE(oran::decode_kpm_frame(good.substr(0, n), v),
              oran::KpmDecodeStatus::kOk)
        << "prefix of " << n << " bytes decoded";
  }
}

TEST(KpmCodec, EverySingleBitFlipFailsTheCrc) {
  oran::KpmFrameArena arena;
  std::vector<float> feats(6);
  for (std::size_t i = 0; i < feats.size(); ++i)
    feats[i] = static_cast<float>(i) * 0.25f;
  const std::string good(arena.encode(9, 3, oran::IndicationKind::kKpm,
                                      std::span<const float>(feats)));
  oran::KpmFrameView v;
  ASSERT_EQ(oran::decode_kpm_frame(good, v), oran::KpmDecodeStatus::kOk);
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = good;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(oran::decode_kpm_frame(flipped, v),
                oran::KpmDecodeStatus::kOk)
          << "flip at byte " << byte << " bit " << bit << " decoded";
    }
  }
}

TEST(KpmCodec, DeclaredFeatureCountIsBoundsChecked) {
  oran::KpmFrameArena arena;
  std::vector<float> feats(4, 1.0f);
  std::string frame(arena.encode(1, 1, oran::IndicationKind::kKpm,
                                 std::span<const float>(feats)));
  // Inflate the declared count past the actual frame size (offset 6,
  // u16 LE) — the decoder must reject before touching feature bytes.
  const std::uint16_t huge = 0x4000;
  std::memcpy(frame.data() + 6, &huge, sizeof(huge));
  oran::KpmFrameView v;
  EXPECT_EQ(oran::decode_kpm_frame(frame, v),
            oran::KpmDecodeStatus::kTruncated);
}

// --------------------------------------------------- simulator determinism

TEST(CitySim, DigestsAreThreadCountInvariant) {
  ThreadGuard guard;
  const citysim::CityConfig cfg = small_city();
  std::string event_ref;
  std::string state_ref;
  for (const int threads : {1, 2, 4}) {
    util::set_num_threads(threads);
    citysim::CitySim sim(cfg);
    sim.run_epochs(6);
    if (event_ref.empty()) {
      event_ref = sim.event_digest();
      state_ref = sim.state_digest();
      EXPECT_FALSE(event_ref.empty());
    } else {
      EXPECT_EQ(sim.event_digest(), event_ref) << threads << " threads";
      EXPECT_EQ(sim.state_digest(), state_ref) << threads << " threads";
    }
  }
}

TEST(CitySim, GoldenDigestLocksDuplicateTimestampTieBreak) {
  ThreadGuard guard;
  citysim::CityConfig cfg = small_city();
  cfg.handover_prob = 1.0;  // every executed move relocates its UE
  for (const int threads : {1, 4}) {
    util::set_num_threads(threads);
    citysim::CitySim sim(cfg);
    // Pin a burst of UEs — spanning several shards — to one identical
    // virtual time. Pop order of the tie is (time, shard, seq), so the
    // digest below changes if the tie-break ever changes.
    for (std::uint32_t ue = 0; ue < 64; ++ue) sim.pin_ue_move(ue, 50000);
    sim.run_epochs(3);
    EXPECT_EQ(sim.event_digest(),
              "ecb4538abbe206f211316ea835ed843d3f15c98f38b8fdbedc3dd2267c"
              "106838")
        << "at " << threads << " threads";
  }
}

TEST(CitySim, EpochHorizonEventRunsInTheNextEpoch) {
  ThreadGuard guard;
  util::set_num_threads(1);
  citysim::CityConfig cfg = small_city();
  cfg.handover_prob = 1.0;
  cfg.mean_dwell_us = 10 * cfg.epoch_us;  // background mobility quiet
  citysim::CitySim sim(cfg);
  const std::uint32_t ue = 3;
  const std::uint32_t before = sim.ue_cell(ue);
  // Exactly on the first horizon: the phase runs events strictly before
  // the horizon, so the move must wait for epoch 2.
  sim.pin_ue_move(ue, cfg.epoch_us);
  sim.run_epochs(1);
  EXPECT_EQ(sim.ue_cell(ue), before) << "horizon event ran a phase early";
  sim.run_epochs(1);
  EXPECT_NE(sim.ue_cell(ue), before) << "horizon event never ran";
}

TEST(CitySim, CrossShardHandoverLandsAtTheBarrier) {
  ThreadGuard guard;
  util::set_num_threads(1);
  citysim::CityConfig cfg = small_city();
  cfg.handover_prob = 1.0;
  cfg.mean_dwell_us = 10 * cfg.epoch_us;
  citysim::CitySim sim(cfg);
  const std::uint32_t ue = 3;
  const std::uint32_t src = sim.ue_cell(ue);
  sim.pin_ue_move(ue, cfg.epoch_us / 2);
  sim.run_epochs(1);
  const std::uint32_t dst = sim.ue_cell(ue);
  ASSERT_NE(dst, src);
  // Ownership already moved (counts stay conserved) even if the handover
  // crossed shards and travelled through the barrier message buffer.
  std::uint64_t attached = 0;
  for (std::uint32_t c = 0; c < cfg.cells; ++c)
    attached += sim.cell_ue_count(c);
  EXPECT_EQ(attached, cfg.ues);
  // Background UEs (first moves are dwell-staggered) hand over too; the
  // pinned one guarantees the counter is live.
  const citysim::CityStats s = sim.stats();
  EXPECT_GE(s.handovers_intra + s.handovers_cross, 1u);
}

TEST(CitySim, ZeroUeCellsStillReport) {
  ThreadGuard guard;
  util::set_num_threads(2);
  citysim::CityConfig cfg = small_city();
  cfg.ues = 5;  // 40 cells, 5 UEs: most cells are empty
  citysim::CitySim sim(cfg);
  std::uint32_t empty_cells = 0;
  for (std::uint32_t c = 0; c < cfg.cells; ++c)
    if (sim.cell_ue_count(c) == 0) ++empty_cells;
  ASSERT_GT(empty_cells, 0u);
  sim.run_epochs(3);
  const citysim::CityStats s = sim.stats();
  // Every cell reports every epoch, populated or not. The first report is
  // scheduled exactly on the epoch-1 horizon (strictly-before semantics),
  // so it executes in epoch 2: 3 epochs yield 2 reports per cell.
  EXPECT_EQ(s.reports, std::uint64_t{2} * cfg.cells);
  EXPECT_EQ(s.frames_delivered, s.reports);
  EXPECT_EQ(sim.availability(), 1.0);
}

// ------------------------------------------------------------ checkpointing

TEST(CitySim, CheckpointResumeMatchesUninterruptedRun) {
  ThreadGuard guard;
  util::set_num_threads(2);
  const citysim::CityConfig cfg = small_city();
  const std::string path = ::testing::TempDir() + "citysim_ckpt.bin";

  citysim::CitySim uninterrupted(cfg);
  uninterrupted.run_epochs(5);

  citysim::CitySim first(cfg);
  first.run_epochs(2);
  ASSERT_TRUE(first.save(path).ok()) << "checkpoint save failed";

  citysim::CitySim resumed(cfg);
  ASSERT_TRUE(resumed.load(path).ok()) << "checkpoint load failed";
  EXPECT_EQ(resumed.epoch(), 2u);
  EXPECT_EQ(resumed.state_digest(), first.state_digest());
  resumed.run_epochs(3);
  EXPECT_EQ(resumed.state_digest(), uninterrupted.state_digest());
}

TEST(CitySim, CheckpointRefusesAForeignConfig) {
  ThreadGuard guard;
  util::set_num_threads(1);
  const std::string path = ::testing::TempDir() + "citysim_ckpt_fp.bin";
  citysim::CitySim sim(small_city());
  sim.run_epochs(1);
  ASSERT_TRUE(sim.save(path).ok());
  citysim::CityConfig other = small_city();
  other.cells += 1;
  citysim::CitySim reject(other);
  const persist::Status st = reject.load(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code, persist::StatusCode::kMismatch);
}

// ----------------------------------------------------- striped SDL semantics

TEST(SdlStriping, StripeCountIsSemanticallyInvisible) {
  oran::Rbac rbac;
  rbac.define_role("writer",
                   {oran::Permission{"*", /*read=*/true, /*write=*/true}});
  rbac.assign_role("app", "writer");
  oran::Sdl one(&rbac, 1);
  oran::Sdl many(&rbac, oran::Sdl::kDefaultStripes);
  const nn::Shape shape{4};
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 40; ++k) {
      std::vector<float> payload(4, static_cast<float>(round * 100 + k));
      const std::string key = "cell-" + std::to_string(k);
      for (oran::Sdl* sdl : {&one, &many}) {
        ASSERT_EQ(sdl->write_tensor("app", "telemetry/kpm", key,
                                    nn::Tensor(shape, payload)),
                  oran::SdlStatus::kOk);
      }
    }
  }
  for (int k = 0; k < 40; ++k) {
    const std::string key = "cell-" + std::to_string(k);
    nn::Tensor a;
    nn::Tensor b;
    ASSERT_EQ(one.read_tensor("app", "telemetry/kpm", key, a),
              oran::SdlStatus::kOk);
    ASSERT_EQ(many.read_tensor("app", "telemetry/kpm", key, b),
              oran::SdlStatus::kOk);
    ASSERT_EQ(a.numel(), b.numel());
    for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(one.version("telemetry/kpm", key),
              many.version("telemetry/kpm", key));
    EXPECT_EQ(one.version("telemetry/kpm", key).value_or(0), 3u);
  }
  EXPECT_EQ(one.read_tensor("app", "telemetry/kpm", "cell-999",
                            *std::make_unique<nn::Tensor>()),
            oran::SdlStatus::kNotFound);
}

// ------------------------------------------------- RIC delivery paths

struct RicFixture {
  oran::Rbac rbac;
  oran::Operator op{"op", "sec"};
  oran::OnboardingService svc{&op, &rbac};
  oran::NearRtRic ric{&rbac, &svc};
};

TEST(RicDelivery, MovePathStoresThePayloadAndCountsBytes) {
  RicFixture fx;
  obs::Counter& bytes = obs::counter("oran.e2.indication_bytes");
  const std::uint64_t before = bytes.value();

  oran::E2Indication ind;
  ind.ran_node_id = "cell-7";
  ind.tti = 1;
  ind.kind = oran::IndicationKind::kKpm;
  ind.payload = nn::Tensor({4}, {1.0f, 2.0f, 3.0f, 4.0f});
  ASSERT_TRUE(fx.ric.deliver_indication(std::move(ind)));
  EXPECT_EQ(bytes.value() - before, 4 * sizeof(float));

  nn::Tensor stored;
  ASSERT_EQ(fx.ric.sdl().read_tensor(oran::kRicPlatformId, oran::kNsKpm,
                                     "cell-7/current", stored),
            oran::SdlStatus::kOk);
  ASSERT_EQ(stored.numel(), 4u);
  EXPECT_EQ(stored[2], 3.0f);
}

TEST(RicDelivery, BinaryFramePathMatchesTheTensorPath) {
  RicFixture fx;
  std::vector<float> feats{0.5f, 1.5f, 2.5f};
  oran::KpmFrameArena arena;
  const std::string_view frame =
      arena.encode(11, 9, oran::IndicationKind::kKpm,
                   std::span<const float>(feats));
  ASSERT_TRUE(fx.ric.deliver_kpm_frame(frame));
  EXPECT_EQ(fx.ric.frames_rejected(), 0u);

  nn::Tensor stored;
  ASSERT_EQ(fx.ric.sdl().read_tensor(oran::kRicPlatformId, oran::kNsKpm,
                                     "cell-11/current", stored),
            oran::SdlStatus::kOk);
  ASSERT_EQ(stored.numel(), feats.size());
  for (std::size_t i = 0; i < feats.size(); ++i)
    EXPECT_EQ(stored[i], feats[i]);

  // Repeated frames for the same cell reuse the in-place write path;
  // the entry version must keep advancing.
  feats[0] = 9.0f;
  ASSERT_TRUE(fx.ric.deliver_kpm_frame(
      arena.encode(11, 10, oran::IndicationKind::kKpm,
                   std::span<const float>(feats))));
  ASSERT_EQ(fx.ric.sdl().read_tensor(oran::kRicPlatformId, oran::kNsKpm,
                                     "cell-11/current", stored),
            oran::SdlStatus::kOk);
  EXPECT_EQ(stored[0], 9.0f);
  EXPECT_GE(fx.ric.sdl().version(oran::kNsKpm, "cell-11/current").value_or(0),
            2u);
}

TEST(RicDelivery, MalformedFramesAreCountedNotDispatched) {
  RicFixture fx;
  std::vector<float> feats(8, 0.25f);
  oran::KpmFrameArena arena;
  const std::string good(arena.encode(2, 1, oran::IndicationKind::kKpm,
                                      std::span<const float>(feats)));
  EXPECT_FALSE(fx.ric.deliver_kpm_frame(good.substr(0, good.size() - 1)));
  std::string flipped = good;
  flipped[oran::kKpmFrameHeaderBytes] ^= 0x01;
  EXPECT_FALSE(fx.ric.deliver_kpm_frame(flipped));
  EXPECT_EQ(fx.ric.frames_rejected(), 2u);
}

/// Records every dispatch it sees, plus the telemetry the platform wrote
/// for it, so two RICs' dispatch sequences can be compared entry by entry.
class TelemetryRecorder : public oran::XApp {
 public:
  void on_indication(const oran::E2Indication& ind,
                     oran::NearRtRic& ric) override {
    nn::Tensor t;
    const oran::SdlStatus st = ric.read_telemetry(
        app_id(), oran::kNsKpm, ind.ran_node_id + "/current", t);
    std::string entry = ind.ran_node_id + " tti=" + std::to_string(ind.tti) +
                        " st=" + std::to_string(static_cast<int>(st));
    for (std::size_t i = 0; i < t.numel(); ++i)
      entry += " " + std::to_string(t[i]);
    seen.push_back(std::move(entry));
  }
  std::vector<std::string> seen;
};

/// What one delivery stream left behind: return values, SDL tensors and
/// versions after every delivery, per-app dispatch sequences and stats,
/// and the oran.e2.* counter deltas.
struct DeliveryTrace {
  std::vector<bool> returned;
  std::vector<std::string> sdl;
  std::vector<std::string> dispatch_hi, dispatch_lo;
  std::vector<std::uint64_t> stats;
  std::map<std::string, std::uint64_t> counters;
};

enum class EntryPoint { kCopy, kMove, kFrame };

DeliveryTrace drive_entry_point(EntryPoint entry) {
  const char* kCounters[] = {
      "oran.e2.indications",           "oran.e2.indications_dropped",
      "oran.e2.indications_duplicated", "oran.e2.indications_corrupted",
      "oran.e2.sdl_write_failures",    "oran.e2.indication_bytes",
      "oran.e2.kpm_frames"};
  std::map<std::string, std::uint64_t> before;
  for (const char* c : kCounters) before[c] = obs::counter(c).value();

  RicFixture fx;
  fx.rbac.define_role("kpm-reader",
                      {oran::Permission{"telemetry/*", true, false}});
  auto onboard = [&](const std::string& name) {
    oran::AppDescriptor d;
    d.name = name;
    d.version = "1";
    d.vendor = "v";
    d.payload = "p";
    d.requested_role = "kpm-reader";
    return fx.svc.onboard(fx.op.package(d)).app_id;
  };
  auto hi = std::make_shared<TelemetryRecorder>();
  auto lo = std::make_shared<TelemetryRecorder>();
  const std::string hi_id = onboard("hi");
  const std::string lo_id = onboard("lo");
  EXPECT_TRUE(fx.ric.register_xapp(hi, hi_id, 1));
  EXPECT_TRUE(fx.ric.register_xapp(lo, lo_id, 2));

  // Drop, duplicate, delay (past the control window) and corrupt on the
  // transport; transient SDL write outages, some outlasting the retries.
  fault::FaultPlan plan;
  plan.seed = 0xe2e2;
  auto spec = [](fault::FaultKind k, double p) {
    fault::FaultSpec f;
    f.kind = k;
    f.probability = p;
    f.delay_ms = 1500.0;
    return f;
  };
  plan.sites[fault::sites::kE2Indication] = {
      spec(fault::FaultKind::kDrop, 0.1), spec(fault::FaultKind::kDuplicate, 0.15),
      spec(fault::FaultKind::kDelay, 0.1), spec(fault::FaultKind::kCorrupt, 0.15)};
  plan.sites[fault::sites::kSdlWrite] = {
      spec(fault::FaultKind::kTransient, 0.35)};
  fault::FaultInjector inj(plan);
  fx.ric.set_fault_injector(&inj);

  DeliveryTrace t;
  Rng rng(0xfeed);
  oran::KpmFrameArena arena;
  for (std::uint64_t tti = 1; tti <= 150; ++tti) {
    const std::uint32_t cell = static_cast<std::uint32_t>(tti % 3);
    std::vector<float> feats(5);
    for (float& f : feats) f = rng.uniform(-1.0f, 1.0f);
    oran::E2Indication ind;
    ind.ran_node_id = "cell-" + std::to_string(cell);
    ind.tti = tti;
    ind.kind = oran::IndicationKind::kKpm;
    ind.payload = nn::Tensor({5}, feats);
    bool ok = false;
    switch (entry) {
      case EntryPoint::kCopy: ok = fx.ric.deliver_indication(ind); break;
      case EntryPoint::kMove:
        ok = fx.ric.deliver_indication(std::move(ind));
        break;
      case EntryPoint::kFrame:
        ok = fx.ric.deliver_kpm_frame(arena.encode(
            cell, tti, oran::IndicationKind::kKpm,
            std::span<const float>(feats)));
        break;
    }
    t.returned.push_back(ok);
    const std::string key = "cell-" + std::to_string(cell) + "/current";
    nn::Tensor stored;
    std::string row = std::to_string(static_cast<int>(fx.ric.sdl().read_tensor(
        oran::kRicPlatformId, oran::kNsKpm, key, stored)));
    row += " v=" + std::to_string(
                       fx.ric.sdl().version(oran::kNsKpm, key).value_or(0));
    for (std::size_t i = 0; i < stored.numel(); ++i) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &stored[i], sizeof bits);
      row += " " + std::to_string(bits);
    }
    t.sdl.push_back(std::move(row));
  }
  t.dispatch_hi = hi->seen;
  t.dispatch_lo = lo->seen;
  for (const std::string& id : {hi_id, lo_id}) {
    const oran::XAppDispatchStats& st = fx.ric.stats_of(id);
    t.stats.insert(t.stats.end(), {st.dispatches, st.deadline_misses,
                                   st.faults, st.quarantined_skips});
  }
  t.stats.insert(t.stats.end(),
                 {fx.ric.indications_delivered(), fx.ric.indications_dropped(),
                  fx.ric.sdl_write_failures()});
  for (const char* c : kCounters)
    t.counters[c] = obs::counter(c).value() - before[c];
  return t;
}

TEST(RicDelivery, EntryPointsAgreeUnderAFaultPlan) {
  const DeliveryTrace copy = drive_entry_point(EntryPoint::kCopy);
  const DeliveryTrace move = drive_entry_point(EntryPoint::kMove);
  const DeliveryTrace frame = drive_entry_point(EntryPoint::kFrame);

  // The plan must actually exercise every fault and both outcomes.
  EXPECT_GT(copy.counters.at("oran.e2.indications_dropped"), 0u);
  EXPECT_GT(copy.counters.at("oran.e2.indications_duplicated"), 0u);
  EXPECT_GT(copy.counters.at("oran.e2.indications_corrupted"), 0u);
  EXPECT_GT(copy.counters.at("oran.e2.sdl_write_failures"), 0u);
  EXPECT_GT(copy.stats[1], 0u) << "no delayed dispatch missed the window";

  for (const DeliveryTrace* other : {&move, &frame}) {
    const char* name = other == &move ? "move" : "frame";
    EXPECT_EQ(other->returned, copy.returned) << name;
    EXPECT_EQ(other->sdl, copy.sdl) << name;
    EXPECT_EQ(other->dispatch_hi, copy.dispatch_hi) << name;
    EXPECT_EQ(other->dispatch_lo, copy.dispatch_lo) << name;
    EXPECT_EQ(other->stats, copy.stats) << name;
    for (const char* c :
         {"oran.e2.indications", "oran.e2.indications_dropped",
          "oran.e2.indications_duplicated", "oran.e2.indications_corrupted",
          "oran.e2.sdl_write_failures"})
      EXPECT_EQ(other->counters.at(c), copy.counters.at(c)) << name << " " << c;
  }
  // Tensor paths count payload bytes; the frame path counts wire bytes
  // (header + payload) and one kpm_frames tick per delivered copy.
  const std::uint64_t copies = copy.counters.at("oran.e2.indications");
  EXPECT_EQ(copy.counters.at("oran.e2.indication_bytes"),
            copies * 5 * sizeof(float));
  EXPECT_EQ(move.counters.at("oran.e2.indication_bytes"),
            copies * 5 * sizeof(float));
  EXPECT_EQ(frame.counters.at("oran.e2.indication_bytes"),
            copies * (oran::kKpmFrameHeaderBytes + 5 * sizeof(float) +
                      oran::kKpmFrameTrailerBytes));
  EXPECT_EQ(copy.counters.at("oran.e2.kpm_frames"), 0u);
  EXPECT_EQ(move.counters.at("oran.e2.kpm_frames"), 0u);
  EXPECT_EQ(frame.counters.at("oran.e2.kpm_frames"), copies);
}

}  // namespace
}  // namespace orev
