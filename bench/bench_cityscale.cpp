// City-scale emulation benchmark (DESIGN.md §16): drives the sharded
// CitySim scheduler at ≥2000 cells / ≥100k UEs and reports
//
//   UEs/sec          — UE-epochs advanced per wall-second, and
//   indications/sec  — KPM frames emitted per wall-second,
//
// at each thread count in {1, 4}, asserting that the merged per-shard
// event digest is byte-identical across thread counts and across repeated
// passes — the determinism witness the CI smoke diffs. Digest lines print
// as `[digest] threads=T pass=P <hex>` so two runs can be compared with a
// grep + diff, independent of the (wall-clock-bearing) JSON report.
//
// Two further phases quantify the PR's data-plane claims:
//
//   codec — N KPM indications through a NearRtRic, round-robin over the
//   configured cell count, via three delivery paths: the historical
//   copy-in tensor path, the move-payload path (this PR), and the binary
//   e2_codec path (arena encode + deliver_kpm_frame +
//   write_tensor_inplace), counting heap allocations with an overridden
//   global operator new. The binary path must beat both tensor paths on
//   allocations AND throughput, and must reject a truncated /
//   bit-flipped / bad-magic probe frame.
//
//   sdl — the same parallel writer load against a 1-stripe and a
//   default-stripe Sdl, reporting stripe contentions and wall time (the
//   oran.sdl.lock_wait_ns sketch fills as a side effect; view it via
//   --metrics-out or bench_perf_report).
//
// `--report-out FILE` writes the JSON committed as
// BENCH_CITYSCALE_<date>.json. The 1M-UE configuration is exercised by
// `--ues 1000000 --epochs 2 --passes 1`.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "citysim/citysim.hpp"
#include "oran/e2_codec.hpp"
#include "oran/near_rt_ric.hpp"
#include "oran/onboarding.hpp"
#include "util/check.hpp"

// ------------------------------------------------------- allocation probe
//
// Counts every heap allocation in the process so the codec phase can
// report allocations per indication. Relaxed atomics: the codec loops are
// single-threaded; the counter only needs to not tear under the scale
// phase's worker threads.

static std::atomic<std::uint64_t> g_allocs{0};

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

namespace {

using namespace orev;
using namespace orev::bench;

// ------------------------------------------------------------ scale phase

/// Sink that CRC-verifies every delivered frame through the real decoder,
/// so the scale numbers include full decode cost on the consumer side.
class DecodeSink : public citysim::FrameSink {
 public:
  void on_frame(std::uint32_t /*shard*/, std::string_view frame) override {
    oran::KpmFrameView v;
    if (oran::decode_kpm_frame(frame, v) != oran::KpmDecodeStatus::kOk) {
      ++bad;
      return;
    }
    ++frames;
    bytes += frame.size();
    checksum += v.cell_id + v.tti;
  }
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t bad = 0;
  std::uint64_t checksum = 0;  // keeps the decode honest
};

struct ScaleRun {
  int threads = 0;
  int pass = 0;
  double wall_seconds = 0.0;
  double ue_epochs_per_sec = 0.0;
  double indications_per_sec = 0.0;
  citysim::CityStats stats;
  std::string event_digest;
  std::string state_digest;
};

ScaleRun run_scale(const citysim::CityConfig& cfg, int threads, int pass,
                   std::uint64_t epochs) {
  util::set_num_threads(threads);
  citysim::CitySim sim(cfg);
  DecodeSink sink;
  sim.set_sink(&sink);
  WallTimer t;
  sim.run_epochs(epochs);
  ScaleRun out;
  out.wall_seconds = t.seconds();
  out.threads = threads;
  out.pass = pass;
  out.stats = sim.stats();
  out.event_digest = sim.event_digest();
  out.state_digest = sim.state_digest();
  out.ue_epochs_per_sec = static_cast<double>(cfg.ues) *
                          static_cast<double>(epochs) / out.wall_seconds;
  out.indications_per_sec =
      static_cast<double>(out.stats.reports) / out.wall_seconds;
  OREV_CHECK(sink.bad == 0, "scale sink saw undecodable frames");
  OREV_CHECK(sink.frames == out.stats.frames_delivered,
             "sink frame count must match simulator accounting");
  std::printf(
      "[scale] threads=%d pass=%d wall=%.3fs  UEs/sec=%.3e  ind/sec=%.3e  "
      "events=%llu cross_handovers=%llu\n",
      threads, pass, out.wall_seconds, out.ue_epochs_per_sec,
      out.indications_per_sec,
      static_cast<unsigned long long>(out.stats.events),
      static_cast<unsigned long long>(out.stats.handovers_cross));
  std::printf("[digest] threads=%d pass=%d %s\n", threads, pass,
              out.event_digest.c_str());
  return out;
}

// ------------------------------------------------------------ codec phase

struct CodecSide {
  double wall_seconds = 0.0;
  double inds_per_sec = 0.0;
  double allocs_per_ind = 0.0;
};

struct RicFixture {
  oran::Rbac rbac;
  oran::Operator op{"op", "sec"};
  oran::OnboardingService svc{&op, &rbac};
  oran::NearRtRic ric{&rbac, &svc};
};

void fill_features(std::uint64_t i, std::span<float> f) {
  for (std::size_t j = 0; j < f.size(); ++j) {
    f[j] = static_cast<float>((i * 31 + j * 7) % 97) * 0.01f;
  }
}

enum class CodecMode { kCopy, kMove, kBinary };

/// One delivery loop at city shape: frames round-robin over `cells`
/// distinct cells, so per-message key/tensor churn is what it is in the
/// simulator, not what a single hot cell's allocator reuse makes it.
/// kCopy is the const& tensor entry point (payload copied into the SDL),
/// kMove the rvalue entry point (payload moved into the SDL), kBinary the
/// arena-encoded e2_codec frame entry point. All three run NearRtRic's one
/// delivery core; they differ only in how the payload reaches the SDL.
CodecSide run_codec(CodecMode mode, std::uint64_t inds,
                    std::uint16_t features, std::uint32_t cells) {
  RicFixture fx;
  std::vector<float> feats(features);
  const nn::Shape shape{static_cast<int>(features)};
  oran::KpmFrameArena arena;
  auto one = [&](std::uint64_t i) {
    const std::uint32_t cell = static_cast<std::uint32_t>(i % cells);
    fill_features(i, feats);
    if (mode == CodecMode::kBinary) {
      const std::string_view frame =
          arena.encode(cell, i, oran::IndicationKind::kKpm,
                       std::span<const float>(feats));
      OREV_CHECK(fx.ric.deliver_kpm_frame(frame),
                 "binary delivery must succeed without faults");
      return;
    }
    oran::E2Indication ind;
    ind.ran_node_id = "cell-" + std::to_string(cell);
    ind.tti = i;
    ind.kind = oran::IndicationKind::kKpm;
    ind.payload = nn::Tensor(shape, feats);
    const bool ok = mode == CodecMode::kMove
                        ? fx.ric.deliver_indication(std::move(ind))
                        : fx.ric.deliver_indication(ind);
    OREV_CHECK(ok, "tensor delivery must succeed without faults");
  };
  for (std::uint64_t i = 0; i < 1000; ++i) one(i);  // warm SDL map + arena
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  WallTimer t;
  for (std::uint64_t i = 0; i < inds; ++i) one(i);
  CodecSide out;
  out.wall_seconds = t.seconds();
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  out.inds_per_sec = static_cast<double>(inds) / out.wall_seconds;
  out.allocs_per_ind =
      static_cast<double>(a1 - a0) / static_cast<double>(inds);
  return out;
}

/// Malformed-frame probe: truncation, a payload bit flip, and a bad magic
/// must all be rejected (counted, never dispatched).
std::uint64_t run_codec_rejects() {
  RicFixture fx;
  std::vector<float> feats(8);
  fill_features(3, feats);
  oran::KpmFrameArena arena;
  const std::string good(arena.encode(1, 1, oran::IndicationKind::kKpm,
                                      std::span<const float>(feats)));
  OREV_CHECK(fx.ric.deliver_kpm_frame(good), "probe baseline must deliver");

  std::string truncated = good.substr(0, good.size() - 3);
  OREV_CHECK(!fx.ric.deliver_kpm_frame(truncated),
             "truncated frame must be rejected");
  std::string flipped = good;
  flipped[oran::kKpmFrameHeaderBytes + 2] ^= 0x40;  // payload bit flip
  OREV_CHECK(!fx.ric.deliver_kpm_frame(flipped),
             "bit-flipped frame must fail CRC");
  std::string bad_magic = good;
  bad_magic[0] ^= 0xff;
  OREV_CHECK(!fx.ric.deliver_kpm_frame(bad_magic),
             "bad magic must be rejected");
  return fx.ric.frames_rejected();
}

// -------------------------------------------------------------- SDL phase

struct SdlRun {
  std::size_t stripes = 0;
  double wall_seconds = 0.0;
  double writes_per_sec = 0.0;
  std::uint64_t contentions = 0;
};

SdlRun run_sdl_contention(std::size_t stripes, int threads, int workers,
                          std::uint64_t writes_per_worker) {
  util::set_num_threads(threads);
  oran::Rbac rbac;
  rbac.define_role("bench-writer",
                   {oran::Permission{"*", /*read=*/true, /*write=*/true}});
  rbac.assign_role("bench", "bench-writer");
  oran::Sdl sdl(&rbac, stripes);

  // Payloads big enough (4 KB) that the copy under the stripe lock is the
  // longest pipeline stage — the regime striping exists for. Tiny payloads
  // serialize on the (global) audit ring instead and no stripe ever
  // contends.
  constexpr int kPayloadFloats = 1024;
  const nn::Shape shape{kPayloadFloats};
  std::vector<std::string> keys;
  std::vector<std::vector<float>> bufs;
  for (int w = 0; w < workers; ++w) {
    keys.push_back("cell-" + std::to_string(w));
    bufs.emplace_back(kPayloadFloats, static_cast<float>(w));
    // Pre-create the entries so the timed loop is pure in-place traffic.
    OREV_CHECK(sdl.write_tensor_inplace("bench", "telemetry/kpm", keys.back(),
                                        shape, std::span<const float>(
                                            bufs.back())) ==
                   oran::SdlStatus::kOk,
               "seed write must succeed");
  }

  WallTimer t;
  util::parallel_for(0, workers, 1, [&](std::int64_t w) {
    for (std::uint64_t i = 0; i < writes_per_worker; ++i) {
      bufs[w][0] = static_cast<float>(i);
      OREV_CHECK(sdl.write_tensor_inplace(
                     "bench", "telemetry/kpm", keys[w], shape,
                     std::span<const float>(bufs[w])) == oran::SdlStatus::kOk,
                 "bench write must succeed");
    }
  });
  SdlRun out;
  out.wall_seconds = t.seconds();
  out.stripes = stripes;
  out.contentions = sdl.total_contentions();
  out.writes_per_sec = static_cast<double>(workers) *
                       static_cast<double>(writes_per_worker) /
                       out.wall_seconds;
  std::printf("[sdl] stripes=%zu wall=%.3fs writes/sec=%.3e contentions=%llu\n",
              stripes, out.wall_seconds, out.writes_per_sec,
              static_cast<unsigned long long>(out.contentions));
  return out;
}

// ------------------------------------------------------------ JSON report

void write_report(const std::string& path, const citysim::CityConfig& cfg,
                  std::uint64_t epochs, int passes,
                  const std::vector<ScaleRun>& scale, bool byte_identical,
                  std::uint64_t codec_inds, const CodecSide& copy,
                  const CodecSide& move, const CodecSide& binary,
                  std::uint64_t rejects, const SdlRun& sdl_single,
                  const SdlRun& sdl_striped, bool pass) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::printf("[report] FAILED to open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"orev-cityscale-bench-v1\",\n");
  std::fprintf(f,
               "  \"config\": {\"cells\": %u, \"ues\": %u, \"shards\": %u, "
               "\"epochs\": %llu, \"passes\": %d, \"features\": %u, "
               "\"seed\": %llu},\n",
               cfg.cells, cfg.ues, cfg.shards,
               static_cast<unsigned long long>(epochs), passes, cfg.features,
               static_cast<unsigned long long>(cfg.seed));
  std::fprintf(f, "  \"scale\": [\n");
  for (std::size_t i = 0; i < scale.size(); ++i) {
    const ScaleRun& r = scale[i];
    std::fprintf(
        f,
        "    {\"threads\": %d, \"pass\": %d, \"wall_seconds\": %.6f, "
        "\"ue_epochs_per_sec\": %.1f, \"indications_per_sec\": %.1f, "
        "\"events\": %llu, \"reports\": %llu, \"handovers_cross\": %llu, "
        "\"event_digest\": \"%s\"}%s\n",
        r.threads, r.pass, r.wall_seconds, r.ue_epochs_per_sec,
        r.indications_per_sec, static_cast<unsigned long long>(r.stats.events),
        static_cast<unsigned long long>(r.stats.reports),
        static_cast<unsigned long long>(r.stats.handovers_cross),
        r.event_digest.c_str(), i + 1 < scale.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"determinism\": {\"byte_identical\": %s, "
               "\"event_digest\": \"%s\", \"state_digest\": \"%s\"},\n",
               byte_identical ? "true" : "false",
               scale.empty() ? "" : scale.front().event_digest.c_str(),
               scale.empty() ? "" : scale.front().state_digest.c_str());
  std::fprintf(
      f,
      "  \"codec\": {\"indications\": %llu,\n"
      "    \"copy\": {\"wall_seconds\": %.6f, \"inds_per_sec\": %.1f, "
      "\"allocs_per_ind\": %.3f},\n"
      "    \"move\": {\"wall_seconds\": %.6f, \"inds_per_sec\": %.1f, "
      "\"allocs_per_ind\": %.3f},\n"
      "    \"binary\": {\"wall_seconds\": %.6f, \"inds_per_sec\": %.1f, "
      "\"allocs_per_ind\": %.3f},\n"
      "    \"alloc_win\": %s, \"throughput_vs_copy\": %.3f, "
      "\"throughput_vs_move\": %.3f, \"frames_rejected\": %llu},\n",
      static_cast<unsigned long long>(codec_inds), copy.wall_seconds,
      copy.inds_per_sec, copy.allocs_per_ind, move.wall_seconds,
      move.inds_per_sec, move.allocs_per_ind, binary.wall_seconds,
      binary.inds_per_sec, binary.allocs_per_ind,
      binary.allocs_per_ind < move.allocs_per_ind ? "true" : "false",
      binary.inds_per_sec / copy.inds_per_sec,
      binary.inds_per_sec / move.inds_per_sec,
      static_cast<unsigned long long>(rejects));
  std::fprintf(
      f,
      "  \"sdl\": {\n"
      "    \"single_stripe\": {\"stripes\": %zu, \"wall_seconds\": %.6f, "
      "\"writes_per_sec\": %.1f, \"contentions\": %llu},\n"
      "    \"striped\": {\"stripes\": %zu, \"wall_seconds\": %.6f, "
      "\"writes_per_sec\": %.1f, \"contentions\": %llu}},\n",
      sdl_single.stripes, sdl_single.wall_seconds, sdl_single.writes_per_sec,
      static_cast<unsigned long long>(sdl_single.contentions),
      sdl_striped.stripes, sdl_striped.wall_seconds,
      sdl_striped.writes_per_sec,
      static_cast<unsigned long long>(sdl_striped.contentions));
  std::fprintf(f, "  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(f);
  std::printf("[report] wrote %s\n", path.c_str());
}

std::uint64_t flag_u64(int& argc, char** argv, const char* name,
                       std::uint64_t fallback) {
  const std::size_t len = std::strlen(name);
  std::uint64_t value = fallback;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::strcmp(argv[r], name) == 0 && r + 1 < argc) {
      value = std::strtoull(argv[++r], nullptr, 0);
    } else if (std::strncmp(argv[r], name, len) == 0 &&
               argv[r][len] == '=') {
      value = std::strtoull(argv[r] + len + 1, nullptr, 0);
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  return value;
}

std::string flag_str(int& argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  std::string value;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::strcmp(argv[r], name) == 0 && r + 1 < argc) {
      value = argv[++r];
    } else if (std::strncmp(argv[r], name, len) == 0 &&
               argv[r][len] == '=') {
      value = argv[r] + len + 1;
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  ObsGuard obs_guard(argc, argv);
  const int base_threads = parse_threads_flag(argc, argv);

  citysim::CityConfig cfg;
  cfg.cells = static_cast<std::uint32_t>(
      flag_u64(argc, argv, "--cells", cfg.cells));
  cfg.ues =
      static_cast<std::uint32_t>(flag_u64(argc, argv, "--ues", cfg.ues));
  cfg.shards = static_cast<std::uint32_t>(
      flag_u64(argc, argv, "--shards", cfg.shards));
  cfg.seed = flag_u64(argc, argv, "--seed", cfg.seed);
  const std::uint64_t epochs = flag_u64(argc, argv, "--epochs", 10);
  const int passes =
      static_cast<int>(flag_u64(argc, argv, "--passes", 2));
  const std::uint64_t codec_inds =
      flag_u64(argc, argv, "--codec-inds", 20000);
  const std::uint64_t sdl_writes =
      flag_u64(argc, argv, "--sdl-writes", 20000);
  const std::string report_out = flag_str(argc, argv, "--report-out");

  std::printf("=== City-scale emulation: %u cells, %u UEs, %u shards, "
              "%llu epochs, %d pass(es) ===\n",
              cfg.cells, cfg.ues, cfg.shards,
              static_cast<unsigned long long>(epochs), passes);

  // ----- scale + determinism ------------------------------------------------
  std::vector<ScaleRun> scale;
  for (int p = 0; p < passes; ++p) {
    for (const int threads : {1, 4}) {
      scale.push_back(run_scale(cfg, threads, p, epochs));
    }
  }
  bool byte_identical = true;
  for (const ScaleRun& r : scale) {
    byte_identical = byte_identical &&
                     r.event_digest == scale.front().event_digest &&
                     r.state_digest == scale.front().state_digest;
  }
  std::printf("[determinism] digests byte-identical across %zu runs: %s\n",
              scale.size(), byte_identical ? "yes" : "NO");

  // ----- codec comparison ---------------------------------------------------
  // The codec claim is a city-scale claim: at a handful of hot cells the
  // tensor path's allocator reuse flatters it. Rotate over at least the
  // 2000-cell acceptance floor even when the scale phase runs reduced.
  util::set_num_threads(base_threads > 0 ? base_threads : 1);
  const std::uint32_t codec_cells = std::max<std::uint32_t>(cfg.cells, 2000);
  // Best-of-3, modes interleaved: each side's number is its best run, so a
  // scheduler hiccup in one rep can't decide the comparison.
  CodecSide copy;
  CodecSide move;
  CodecSide binary;
  for (int rep = 0; rep < 3; ++rep) {
    auto best = [](CodecSide& acc, const CodecSide& r) {
      if (acc.inds_per_sec == 0.0 || r.inds_per_sec > acc.inds_per_sec)
        acc = r;
    };
    best(copy, run_codec(CodecMode::kCopy, codec_inds, cfg.features,
                         codec_cells));
    best(move, run_codec(CodecMode::kMove, codec_inds, cfg.features,
                         codec_cells));
    best(binary, run_codec(CodecMode::kBinary, codec_inds, cfg.features,
                           codec_cells));
  }
  const std::uint64_t rejects = run_codec_rejects();
  const bool alloc_win = binary.allocs_per_ind < move.allocs_per_ind &&
                         binary.allocs_per_ind < copy.allocs_per_ind;
  const bool tput_win = binary.inds_per_sec > copy.inds_per_sec &&
                        binary.inds_per_sec > move.inds_per_sec;
  std::printf("[codec] copy:   %.3e ind/sec, %.2f allocs/ind\n",
              copy.inds_per_sec, copy.allocs_per_ind);
  std::printf("[codec] move:   %.3e ind/sec, %.2f allocs/ind\n",
              move.inds_per_sec, move.allocs_per_ind);
  std::printf("[codec] binary: %.3e ind/sec, %.2f allocs/ind  "
              "(alloc win %s, x%.2f vs copy, x%.2f vs move, "
              "rejected probes %llu/3)\n",
              binary.inds_per_sec, binary.allocs_per_ind,
              alloc_win ? "yes" : "NO",
              binary.inds_per_sec / copy.inds_per_sec,
              binary.inds_per_sec / move.inds_per_sec,
              static_cast<unsigned long long>(rejects));

  // ----- SDL stripe contention ---------------------------------------------
  const SdlRun sdl_single =
      run_sdl_contention(/*stripes=*/1, /*threads=*/4, /*workers=*/8,
                         sdl_writes);
  const SdlRun sdl_striped =
      run_sdl_contention(oran::Sdl::kDefaultStripes, /*threads=*/4,
                         /*workers=*/8, sdl_writes);
  util::set_num_threads(base_threads > 0 ? base_threads : 1);

  // ----- verdict ------------------------------------------------------------
  const bool pass = byte_identical && alloc_win && tput_win && rejects == 3;
  print_rule();
  std::printf("cityscale bench: %s\n", pass ? "PASS" : "FAIL");
  if (!report_out.empty()) {
    write_report(report_out, cfg, epochs, passes, scale, byte_identical,
                 codec_inds, copy, move, binary, rejects, sdl_single,
                 sdl_striped, pass);
  }
  return pass ? 0 : 1;
}
