// Perf report: times representative workloads into registry quantile
// sketches and prints their p50/p95/p99/p999, so a single run with
// `--metrics-out BENCH_<date>.json` captures the repo's latency
// trajectory in one comparable file:
//
//   perf.matmul64_ms      — 64×64 matmul, the NN substrate primitive;
//   perf.e2_roundtrip_ms  — E2 indication → SDL write → xApp dispatch →
//                           E2 control back to the RAN node, the Near-RT
//                           control loop the paper's timing budget
//                           (§5.3.3) is measured against;
//   perf.attack_sample_ms — one FGSM perturbation of one spectrogram via
//                           the surrogate, the per-sample cost of the
//                           input-specific attack (Fig. 3);
//   perf.serve_batch_ms   — one full micro-batch (32 KPM requests) through
//                           the serving engine: admission, batching, the
//                           compiled batched forward, and completions
//                           (DESIGN.md §11);
//   perf.defense_screen_ms — the same micro-batch through a *defended*
//                           engine (inline screen + review cadence +
//                           hot-swap gate live, DESIGN.md §14–15), with a
//                           defense-counter row (quarantined / released /
//                           swap accepted / rolled back / quant_rejected)
//                           so the perf trajectory tracks defense health.
//
// The report also sweeps attack_batch() once, so the instrumentation
// sketches populated by the pipelines themselves (attack.batch.*,
// oran.*, serve.*) appear in the same JSON. Every sketch carries the
// DDSketch relative-error bound (DESIGN.md §13), so quantiles have no
// bucket-edge bias. Regression gates live in each bench's own pass
// criteria; the committed `BENCH_*.json` files are history, not inputs.
#include <cstdio>
#include <span>
#include <string>

#include "apps/model_zoo.hpp"
#include "attack/pgm.hpp"
#include "bench_common.hpp"
#include "nn/layers.hpp"
#include "oran/near_rt_ric.hpp"
#include "oran/onboarding.hpp"
#include "oran/sdl.hpp"
#include "serve/serve.hpp"
#include "util/check.hpp"

namespace {

using namespace orev;
using namespace orev::bench;

// ------------------------------------------------------------ E2 fixture

class ControlEchoXApp : public oran::XApp {
 public:
  void on_indication(const oran::E2Indication& /*ind*/,
                     oran::NearRtRic& ric) override {
    ric.send_control(app_id(), oran::E2Control{});
  }
};

class SinkE2Node : public oran::E2Node {
 public:
  void handle_control(const oran::E2Control& /*c*/) override { ++controls; }
  std::string node_id() const override { return "ran-1"; }
  std::uint64_t controls = 0;
};

void run_matmul(int reps) {
  obs::SketchMetric& lat_ms = obs::sketch(
      "perf.matmul64_ms", 0.01, "64x64 single-threaded matmul latency");
  Rng rng(7);
  const nn::Tensor a = nn::Tensor::randn({64, 64}, rng);
  const nn::Tensor b = nn::Tensor::randn({64, 64}, rng);
  volatile float sink = 0.0f;  // keep the kernel honest
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    sink = nn::matmul(a, b)[0];
    lat_ms.observe(t.seconds() * 1e3);
  }
  (void)sink;
}

void run_e2_roundtrip(int reps) {
  obs::SketchMetric& lat_ms = obs::sketch(
      "perf.e2_roundtrip_ms", 0.01,
      "E2 indication -> SDL -> xApp dispatch -> E2 control round trip");

  oran::Rbac rbac;
  rbac.define_role("xapp-full",
                   {oran::Permission{"telemetry/*", true, true},
                    oran::Permission{"decisions/*", true, true},
                    oran::Permission{"decisions", true, true},
                    oran::Permission{"e2/control", false, true}});
  oran::Operator op("op", "sec");
  oran::OnboardingService svc(&op, &rbac);
  oran::AppDescriptor d;
  d.name = "echo";
  d.version = "1";
  d.vendor = "bench";
  d.payload = "p";
  d.requested_role = "xapp-full";
  const std::string app_id = svc.onboard(op.package(d)).app_id;

  oran::NearRtRic ric(&rbac, &svc);
  SinkE2Node node;
  ric.connect_e2(&node);
  ric.register_xapp(std::make_shared<ControlEchoXApp>(), app_id, 0);

  oran::E2Indication ind;
  ind.ran_node_id = "ran-1";
  ind.kind = oran::IndicationKind::kKpm;
  ind.payload = nn::Tensor({16}, 0.5f);
  for (int i = 0; i < reps; ++i) {
    ind.tti = static_cast<std::uint64_t>(i);
    WallTimer t;
    ric.deliver_indication(ind);
    lat_ms.observe(t.seconds() * 1e3);
  }
  std::printf("[e2] %llu controls received over %d indications\n",
              static_cast<unsigned long long>(node.controls), reps);
}

void run_attack(int samples) {
  obs::SketchMetric& lat_ms = obs::sketch(
      "perf.attack_sample_ms", 0.01,
      "one FGSM perturbation of one spectrogram on the surrogate");

  const data::Dataset corpus = bench_spectrogram_corpus(/*per_class=*/12);
  nn::Model surrogate =
      apps::make_base_cnn(corpus.sample_shape(), corpus.num_classes, 5);
  attack::Fgsm fgsm(0.1f);

  // Per-sample serial loop: what perf.attack_sample_ms reports.
  for (int i = 0; i < samples; ++i) {
    const nn::Tensor x = corpus.x.slice_batch(i % corpus.x.dim(0));
    WallTimer t;
    const int label = surrogate.predict_one(x);
    volatile float sink = fgsm.perturb(surrogate, x, label)[0];
    (void)sink;
    lat_ms.observe(t.seconds() * 1e3);
  }

  // One batched sweep so the pipeline's own attack.batch.* sketches are
  // populated in the same report.
  attack::attack_batch(fgsm, surrogate, corpus.x, /*target_class=*/-1);
}

void run_serve(int batches) {
  obs::SketchMetric& lat_ms = obs::sketch(
      "perf.serve_batch_ms", 0.01,
      "one full 32-request micro-batch through the serving engine");

  serve::ServeConfig cfg;
  cfg.name = "perf";
  cfg.batch_max = 32;
  serve::ServeEngine eng(apps::make_kpm_dnn(4, 4, 17), cfg);
  Rng rng(0xf1ee7);
  for (int b = 0; b < batches; ++b) {
    std::vector<nn::Tensor> reqs;
    reqs.reserve(32);
    for (int i = 0; i < 32; ++i) {
      nn::Tensor t({4});
      for (std::size_t j = 0; j < 4; ++j) t[j] = rng.uniform(-1.0f, 1.0f);
      reqs.push_back(std::move(t));
    }
    // The 32nd submit fills the batch and flushes it, so one timer scope
    // covers admission + batching + the batched forward + completions.
    WallTimer t;
    for (nn::Tensor& r : reqs) eng.submit(std::move(r), nullptr);
    lat_ms.observe(t.seconds() * 1e3);
  }
  eng.drain();
}

void run_defense(int batches) {
  obs::SketchMetric& lat_ms = obs::sketch(
      "perf.defense_screen_ms", 0.01,
      "one screened 32-request micro-batch through the defended engine");

  serve::ServeConfig cfg;
  cfg.name = "perfdef";
  cfg.batch_max = 32;
  cfg.defense.enable = true;
  cfg.defense.review_every = 64;
  cfg.swap.enable = true;
  serve::ServeEngine eng(apps::make_kpm_dnn(4, 4, 17), cfg);

  // Calibrate on the distribution the batches draw from, so only the
  // injected anomalies quarantine and the screen itself stays on the
  // clean fast path — the cost this phase is measuring.
  Rng rng(0xdef5e);
  nn::Tensor warm({256, 4});
  for (std::size_t i = 0; i < warm.numel(); ++i)
    warm[i] = rng.uniform(-1.0f, 1.0f);
  eng.defense()->calibrate(warm);

  int row = 0;
  for (int b = 0; b < batches; ++b) {
    std::vector<nn::Tensor> reqs;
    reqs.reserve(32);
    for (int i = 0; i < 32; ++i, ++row) {
      nn::Tensor t({4});
      for (std::size_t j = 0; j < 4; ++j) t[j] = rng.uniform(-1.0f, 1.0f);
      // A rare anomalous row (far outside the calibrated profile) keeps
      // the quarantine ring non-empty so the review cadence runs passes.
      if (row % 191 == 0)
        for (std::size_t j = 0; j < 4; ++j) t[j] = 40.0f;
      reqs.push_back(std::move(t));
    }
    WallTimer t;
    for (nn::Tensor& r : reqs) eng.submit(std::move(r), nullptr);
    lat_ms.observe(t.seconds() * 1e3);
  }
  eng.drain();

  // One refused and one accepted hot-swap, so the swap counters the report
  // tracks are live. The gate evaluates against labels from the served
  // model itself: a differently-initialised candidate regresses clean
  // accuracy (refused, implicit rollback), a same-weights clone is a zero
  // delta (accepted, epoch advances).
  nn::Tensor probe({32, 4});
  for (std::size_t i = 0; i < probe.numel(); ++i)
    probe[i] = rng.uniform(-1.0f, 1.0f);
  const std::vector<int> labels =
      apps::make_kpm_dnn(4, 4, 17).predict(probe);
  eng.request_hot_swap(apps::make_kpm_dnn(4, 4, 99), probe, labels);
  eng.request_hot_swap(apps::make_kpm_dnn(4, 4, 17), probe, labels);

  const serve::DefensePlane& dp = *eng.defense();
  std::printf(
      "[defense] screened=%llu quarantined=%llu released=%llu "
      "confirmed=%llu review_passes=%llu swap_accepted=%llu "
      "swap_rejected=%llu quant_rejected=%llu\n",
      static_cast<unsigned long long>(dp.screened()),
      static_cast<unsigned long long>(dp.flagged()),
      static_cast<unsigned long long>(dp.released()),
      static_cast<unsigned long long>(dp.confirmed()),
      static_cast<unsigned long long>(dp.review_passes()),
      static_cast<unsigned long long>(eng.swaps_accepted()),
      static_cast<unsigned long long>(eng.swaps_rejected()),
      static_cast<unsigned long long>(
          obs::counter("serve.perfdef.quant_rejected").value()));
}

void run_sdl_stripes(int writes_per_worker) {
  // Striped-SDL contention probe (DESIGN.md §16): 8 writers on 4 threads
  // hammering 4 KB in-place tensor writes, once against a single-stripe
  // store (forced collisions — fills oran.sdl.lock_wait_ns, which records
  // only *contended* stripe acquisitions) and once against the default
  // striping (the healthy shape), so stripe health appears in the same
  // report the latency trajectory does.
  oran::Rbac rbac;
  rbac.define_role("perf-writer",
                   {oran::Permission{"*", /*read=*/true, /*write=*/true}});
  rbac.assign_role("perf", "perf-writer");
  constexpr int kPayloadFloats = 16384;
  constexpr int kWorkers = 8;
  const nn::Shape shape{kPayloadFloats};
  util::set_num_threads(4);
  for (const std::size_t stripes : {std::size_t{1},
                                    oran::Sdl::kDefaultStripes}) {
    oran::Sdl sdl(&rbac, stripes);
    std::vector<std::string> keys;
    std::vector<std::vector<float>> bufs;
    for (int w = 0; w < kWorkers; ++w) {
      keys.push_back("cell-" + std::to_string(w));
      bufs.emplace_back(kPayloadFloats, static_cast<float>(w));
      OREV_CHECK(sdl.write_tensor_inplace(
                     "perf", "telemetry/kpm", keys.back(), shape,
                     std::span<const float>(bufs.back())) ==
                     oran::SdlStatus::kOk,
                 "seed write must succeed");
    }
    util::parallel_for(0, kWorkers, 1, [&](std::int64_t w) {
      for (int i = 0; i < writes_per_worker; ++i) {
        bufs[static_cast<std::size_t>(w)][0] = static_cast<float>(i);
        OREV_CHECK(
            sdl.write_tensor_inplace(
                "perf", "telemetry/kpm", keys[static_cast<std::size_t>(w)],
                shape,
                std::span<const float>(bufs[static_cast<std::size_t>(w)])) ==
                oran::SdlStatus::kOk,
            "stripe write must succeed");
      }
    });
    std::printf("[sdl] stripes=%zu contended=%llu over %d writes\n", stripes,
                static_cast<unsigned long long>(sdl.total_contentions()),
                kWorkers * writes_per_worker);
  }
  util::set_num_threads(1);
}

void print_sketch(const char* name, const char* unit = "ms") {
  const obs::QuantileSketch s = obs::sketch(name).merged();
  std::printf("%-26s n=%6llu  p50=%9.4f  p95=%9.4f  p99=%9.4f  "
              "p999=%9.4f %s\n",
              name, static_cast<unsigned long long>(s.count()),
              s.quantile(0.50), s.quantile(0.95), s.quantile(0.99),
              s.quantile(0.999), unit);
}

}  // namespace

int main(int argc, char** argv) {
  ObsGuard obs_guard(argc, argv);
  parse_threads_flag(argc, argv);

  std::printf("=== Perf report: matmul / E2 round-trip / attack sample / "
              "serve batch / defended batch ===\n");

  run_matmul(/*reps=*/300);
  run_e2_roundtrip(/*reps=*/500);
  run_attack(/*samples=*/64);
  run_serve(/*batches=*/300);
  run_defense(/*batches=*/300);
  run_sdl_stripes(/*writes_per_worker=*/2000);

  print_rule();
  print_sketch("perf.matmul64_ms");
  print_sketch("perf.e2_roundtrip_ms");
  print_sketch("perf.attack_sample_ms");
  print_sketch("attack.batch.sample_ms");
  print_sketch("perf.serve_batch_ms");
  print_sketch("perf.defense_screen_ms");
  print_sketch("oran.sdl.lock_wait_ns", "ns");
  print_sketch("serve.perf.latency_us", "us");  // virtual submit-to-completion
  print_rule();
  std::printf("run with --metrics-out BENCH_<date>.json to save the report\n");
  return 0;
}
