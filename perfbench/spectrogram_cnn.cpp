// spectrogram_cnn — 1 thread. Spectrogram indications pre-generated by
// ran::make_spectrogram at the bench suite's default 24×24 shape go
// through the tensor move-path E2 (deliver_indication(E2Indication&&)) into
// an IC xApp running a trained BaseCNN on the float compiled conv plan,
// defense plane off.
//
// Why this workload: conv kernels dominate and the message plane is a
// small share, so a kernel gain shows here; the prediction for such a gain
// on fleet_attack_kpm is no change.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "layers.hpp"
#include "serve/compiled_cnn.hpp"
#include "serve/quant.hpp"
#include "spectro.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using orev::nn::Model;
using orev::nn::Tensor;
using orev::serve::ServeEngine;

constexpr std::uint64_t kDigestIndications = 2048;
constexpr int kWarmupIndications = 256;

struct CnnPipeline {
  explicit CnnPipeline(Model v) : victim(std::move(v)) {}

  Model victim;
  SpectroPool pool;
  RicFixture fx;
  BenchE2Node node;
  std::shared_ptr<orev::apps::IcXApp> app;
  std::unique_ptr<ServeEngine> engine;
  std::uint64_t k = 0;
  std::uint64_t dropped = 0;

  void step() {
    orev::oran::E2Indication ind = spectro_indication(
        kSpectroNodes[k % std::size(kSpectroNodes)], k,
        pool.x[k % pool.x.size()]);
    ++k;
    if (!deliver(node,
                 [&] { return fx.ric.deliver_indication(std::move(ind)); }))
      ++dropped;
  }
};

std::unique_ptr<CnnPipeline> build_cnn(const Options& o) {
  orev::util::set_num_threads(1);
  auto p = std::make_unique<CnnPipeline>(train_spectrogram_victim(o.tiny));
  p->pool = make_spectro_pool(derive_seed(o.seed, 0x5c), o.tiny ? 128 : 1024);
  p->app = std::make_shared<orev::apps::IcXApp>(
      p->victim.clone(), orev::oran::IndicationKind::kSpectrogram, 13);
  p->fx.add(p->app, "ic", "ic-xapp", 10);
  p->fx.ric.connect_e2(&p->node);
  p->node.watch(p->app.get());
  p->engine = std::make_unique<ServeEngine>(p->victim.clone(),
                                            spectro_serve_config("cnn"));
  p->app->set_serve_engine(p->engine.get());
  for (int i = 0; i < kWarmupIndications; ++i) p->step();
  p->engine->drain();
  p->node.reset();
  p->k = 0;
  return p;
}

/// The compiled conv plan's logits must be byte-identical to the layer
/// walk's on a sample batch.
void check_plan_matches_walk(CnnPipeline& p, Report& r) {
  Model walk = p.victim.clone();
  walk.set_inference_only(true);
  const Tensor batch = p.pool.batch(0, 64);
  const Tensor want = walk.forward(batch);
  Model plan_model = p.victim.clone();
  plan_model.set_inference_only(true);
  orev::serve::CompiledCnn::CompileResult c =
      orev::serve::CompiledCnn::compile(plan_model);
  bool same = c.plan != nullptr;
  if (same) {
    const Tensor got = c.plan->logits(batch);
    same = got.numel() == want.numel() &&
           std::memcmp(got.raw(), want.raw(),
                       want.numel() * sizeof(float)) == 0;
  }
  r.check(same, "compiled conv plan logits byte-identical to the layer walk "
                "on 64 spectrograms");
}

/// serve.int8_*: the int8 tier through its accuracy gate, then its plan's
/// cost per row at batch_max.
void measure_int8(CnnPipeline& p, const std::vector<Row>& rows, Report& r) {
  orev::serve::ServeConfig cfg = spectro_serve_config("cnn_int8");
  cfg.quant.enable = true;
  ServeEngine eng(p.victim.clone(), cfg);
  const int m = static_cast<int>(std::min<std::size_t>(256, p.pool.x.size()));
  const orev::serve::QuantGateReport gate =
      eng.activate_int8_tier(p.pool.batch(0, static_cast<std::size_t>(m)),
                             std::vector<int>(p.pool.y.begin(),
                                              p.pool.y.begin() + m));
  r.set("serve.int8_activated", gate.activated ? 1.0 : 0.0);
  std::printf("[serve] int8 gate: %s (%s)\n",
              gate.activated ? "activated" : "refused", gate.reason.c_str());

  Model plan_model = p.victim.clone();
  plan_model.set_inference_only(true);
  orev::serve::CompiledCnn::CompileResult c =
      orev::serve::CompiledCnn::compile(plan_model);
  if (c.plan == nullptr) return;
  const int bm = cfg.batch_max;
  const std::vector<float> flat = stage_rows(rows, bm);
  std::unique_ptr<orev::serve::CompiledInt8> int8 =
      orev::serve::CompiledInt8::build(*c.plan, flat.data(), bm);
  if (int8 == nullptr) return;
  const double us =
      median_call_us([&] { int8->predict_rows(flat.data(), bm); }, 0.2);
  r.set("serve.int8_us_per_row", us / bm);
}

}  // namespace

void run_spectrogram_cnn(const Options& o, Report& r) {
  std::unique_ptr<CnnPipeline> p =
      timed_setup(o, r, [&] { return build_cnn(o); });
  CnnPipeline& pl = *p;
  pl.node.set_digest_prefix(kDigestIndications);
  const auto step = [&pl] { pl.step(); };
  const double slice_s = 0.25;

  if (!o.trace) {
    const LoopResult loop =
        run_loop(pl.node, o.seconds, slice_s, step, "spectrogram_cnn");
    pl.engine->drain();
    report_loop(loop, r);
    r.set("peak_rss_mb", peak_rss_mb());
  } else {
    Tracer tracer(300000);
    run_traced_halves(o, tracer, slice_s, pl.node, step,
                      [&pl] { pl.engine->drain(); }, pl.fx.ric, *pl.app, r);

    std::vector<Row> rows;
    for (std::size_t i = 0; i < pl.pool.x.size(); ++i)
      rows.push_back(Row{std::vector<float>(pl.pool.x[i].data().begin(),
                                            pl.pool.x[i].data().end()),
                         {}, 0});
    ServeSubject subject;
    subject.model = &pl.victim;
    subject.config = spectro_serve_config("cnn");
    subject.rows = &rows;
    measure_serve(subject, *pl.engine, r);
    measure_int8(pl, rows, r);
    write_trace(o, tracer, r);
  }

  check_one_control_per_indication(pl.node, r);
  r.check(pl.dropped == 0, "no indication lost in transport");
  check_plan_matches_walk(pl, r);
  const orev::serve::SloSnapshot slo = pl.engine->slo();
  r.attempted += pl.node.delivered();
  r.failed += pl.dropped + pl.fx.ric.controls_dropped() + slo.rejected +
              (pl.node.delivered() - pl.node.answered());
  std::printf("[digest] spectrogram_cnn decisions=%s (first %llu timed "
              "indications)\n",
              pl.node.decision_digest().c_str(),
              static_cast<unsigned long long>(kDigestIndications));
}

}  // namespace perfbench
