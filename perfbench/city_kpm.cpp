// city_kpm — 1 thread in the timed loop. A 2000-cell, 100k-UE, 64-shard
// city emits 16-feature binary KPM frames: citysim → KpmFrameArena frames →
// NearRtRic::deliver_kpm_frame → IC xApp → ServeEngine (compiled MLP of
// make_kpm_dnn(16, 2), batch_max 32, distribution and norm screens
// calibrated on the warm-up epochs) → E2 control.
//
// Why this workload: citysim executes about 6 events per report, so the
// simulator does most of the work. Its shard phase is the pipeline's
// parallel section: every run checks that 4 threads give the same
// decisions and events as the timed loop, and the traced run times the
// shard phase and the serve replica sharding at 1 and 4 threads
// (citysim.t1_over_t4, serve.t1_over_t4). The loop itself runs on one
// thread: at 4 threads, where the phase waits for its slowest thread,
// ind_per_s moved by up to 37% between identical runs on the shared 4-vCPU
// host this was tuned on.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/model_zoo.hpp"
#include "citysim/citysim.hpp"
#include "layers.hpp"
#include "oran/e2_codec.hpp"
#include "serve/engine.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using orev::citysim::CityConfig;
using orev::citysim::CitySim;
using orev::nn::Model;
using orev::nn::Tensor;
using orev::serve::ServeConfig;
using orev::serve::ServeEngine;

constexpr int kThreads = 1;
/// Thread count of the determinism reference and the parallel timings.
constexpr int kParallelThreads = 4;
constexpr std::uint16_t kFeatures = 16;
constexpr int kWarmupEpochs = 3;
/// Untimed epochs through the served pipeline after calibration, so the
/// timed loop starts once every cell's SDL entries, alert keys and
/// norm-screen references exist.
constexpr int kSettleEpochs = 10;
/// Timed epochs covered by the decision digest and the 1-vs-4-thread check.
constexpr int kDigestEpochs = 2;
constexpr std::uint64_t kModelSeed = 0xc17e;

CityConfig city_config(const Options& o) {
  CityConfig c;
  c.cells = o.tiny ? 200 : 2000;
  c.ues = o.tiny ? 10000 : 100000;
  c.shards = 64;
  c.features = kFeatures;
  c.seed = derive_seed(o.seed, 0xc1);
  return c;
}

ServeConfig city_serve_config() {
  ServeConfig c;
  c.name = "city";
  c.batch_max = 32;
  // One replica, as the loop runs on one thread; the replica sharding is
  // timed per layer (serve.t1_over_t4, a replay of the city's rows at 1 and
  // 4 replicas).
  c.replicas = 1;
  c.defense.enable = true;
  c.defense.use_ensemble = false;  // no distilled sibling in the city
  return c;
}

std::string flow_key(std::uint32_t cell) {
  return std::string(orev::oran::kNsKpm) + "/cell-" + std::to_string(cell) +
         "/current";
}

/// Delivers every frame the simulator emits into the RIC, stamping it on
/// the E2 node first. During warm-up it also keeps the decoded features
/// for calibration; after the timed loops it can capture raw frames for
/// the layer replays.
class DeliverSink : public orev::citysim::FrameSink {
 public:
  void on_frame(std::uint32_t, std::string_view frame) override {
    if (!deliver(*node, [&] { return ric->deliver_kpm_frame(frame); }))
      ++rejected;
    if (warmup || capture) keep(frame);
  }

  void keep(std::string_view frame) {
    orev::oran::KpmFrameView v;
    if (orev::oran::decode_kpm_frame(frame, v) !=
        orev::oran::KpmDecodeStatus::kOk)
      return;
    std::vector<float> x(v.feature_count);
    v.copy_features(x);
    if (capture) {
      frames.emplace_back(frame);
      // One SDL write per report: the flow version is the TTI + 1.
      rows.push_back(Row{x, flow_key(v.cell_id), v.tti + 1});
      return;
    }
    warm_all.insert(warm_all.end(), x.begin(), x.end());
    std::vector<float>& cell = warm_cell[v.cell_id];
    cell.insert(cell.end(), x.begin(), x.end());
  }

  orev::oran::NearRtRic* ric = nullptr;
  BenchE2Node* node = nullptr;
  bool warmup = false;
  bool capture = false;
  std::uint64_t rejected = 0;
  std::vector<float> warm_all;
  std::vector<std::vector<float>> warm_cell;
  std::vector<std::string> frames;
  std::vector<Row> rows;
};

struct CityPipeline {
  CityConfig cfg;
  std::unique_ptr<CitySim> sim;
  RicFixture fx;
  BenchE2Node node;
  DeliverSink sink;
  Model victim = orev::apps::make_kpm_dnn(kFeatures, 2, kModelSeed);
  std::shared_ptr<orev::apps::IcXApp> app;
  std::unique_ptr<ServeEngine> engine;

  /// Calibration of a defense plane on the warm-up epochs: the
  /// distribution profile on every row, the norm screen per cell (each
  /// cell's warm-up reports carry SDL versions 1..kWarmupEpochs).
  void calibrate(orev::serve::DefensePlane& d) const {
    const int n = static_cast<int>(sink.warm_all.size() / kFeatures);
    d.calibrate(Tensor({n, kFeatures}, sink.warm_all));
    for (std::uint32_t c = 0; c < cfg.cells; ++c) {
      const std::vector<float>& rows = sink.warm_cell[c];
      const int m = static_cast<int>(rows.size() / kFeatures);
      if (m > 0) d.calibrate_flow(flow_key(c), Tensor({m, kFeatures}, rows), 1);
    }
  }
};

/// Set-up: simulator construction, RIC + IC xApp, the untimed warm-up
/// epochs (answered on the xApp's synchronous path), then the defended
/// engine calibrated on them.
std::unique_ptr<CityPipeline> build_city(const Options& o, int threads) {
  orev::util::set_num_threads(threads);
  auto p = std::make_unique<CityPipeline>();
  p->cfg = city_config(o);
  p->sim = std::make_unique<CitySim>(p->cfg);
  p->app = std::make_shared<orev::apps::IcXApp>(
      p->victim.clone(), orev::oran::IndicationKind::kKpm, 13);
  p->fx.add(p->app, "ic", "ic-xapp", 10);
  p->fx.ric.connect_e2(&p->node);
  p->node.watch(p->app.get());
  p->sink.ric = &p->fx.ric;
  p->sink.node = &p->node;
  p->sink.warm_cell.resize(p->cfg.cells);
  p->sim->set_sink(&p->sink);

  p->sink.warmup = true;
  p->sim->run_epochs(kWarmupEpochs);
  p->sink.warmup = false;
  p->node.reset();

  p->engine = std::make_unique<ServeEngine>(p->victim.clone(),
                                            city_serve_config());
  p->calibrate(*p->engine->defense());
  p->app->set_serve_engine(p->engine.get());
  p->sim->run_epochs(kSettleEpochs);
  p->engine->drain();
  p->node.reset();
  return p;
}

struct DigestPrefix {
  std::string decisions;
  std::string events;
};

/// Runs one timed epoch; after kDigestEpochs of them, pins the decision
/// digest prefix and the simulator's event digest.
void city_epoch(CityPipeline& p, std::uint64_t& epochs, DigestPrefix& d) {
  {
    ScopedSpan span("citysim.epoch", epochs);
    p.sim->run_epochs(1);
  }
  // The platform heartbeat at the epoch barrier: the engine's clock only
  // moves on submits, so without it a partial micro-batch would wait a
  // whole simulated epoch for the next burst of reports. Advancing by the
  // batch window lets it flush, as its timer would in real time.
  p.engine->advance_us(p.engine->config().flush_wait_us);
  if (++epochs == kDigestEpochs) {
    p.node.set_digest_prefix(p.node.delivered());
    d.events = p.sim->event_digest();
  }
}

/// The decision and event digests of the first kDigestEpochs timed epochs
/// of a fresh pipeline at `threads` threads.
DigestPrefix reference_digest(const Options& o, int threads) {
  std::unique_ptr<CityPipeline> p = build_city(o, threads);
  DigestPrefix d;
  std::uint64_t epochs = 0;
  while (epochs < kDigestEpochs) city_epoch(*p, epochs, d);
  p->engine->drain();
  d.decisions = p->node.decision_digest();
  return d;
}

/// citysim self time at 1 thread over 4: the same city without a sink.
double citysim_t1_over_t4(const Options& o) {
  double secs[2] = {0.0, 0.0};
  const int threads[2] = {1, kParallelThreads};
  for (int i = 0; i < 2; ++i) {
    orev::util::set_num_threads(threads[i]);
    CitySim sim(city_config(o));
    sim.run_epochs(1);
    const std::uint64_t t0 = now_ns();
    sim.run_epochs(4);
    secs[i] = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  orev::util::set_num_threads(kThreads);
  std::printf("[citysim] 4 epochs without sink: %.4f s at 1 thread, %.4f s "
              "at %d threads\n",
              secs[0], secs[1], kParallelThreads);
  return secs[0] / secs[1];
}

}  // namespace

void run_city_kpm(const Options& o, Report& r) {
  std::unique_ptr<CityPipeline> p =
      timed_setup(o, r, [&] { return build_city(o, kThreads); });
  CityPipeline& pl = *p;
  std::uint64_t epochs = 0;
  DigestPrefix digest;
  const auto step = [&] { city_epoch(pl, epochs, digest); };
  const double slice_s = o.tiny ? 0.25 : 0.5;

  if (!o.trace) {
    const LoopResult loop =
        run_loop(pl.node, o.seconds, slice_s, step, "city_kpm");
    pl.engine->drain();
    report_loop(loop, r);
    r.set("peak_rss_mb", peak_rss_mb());
  } else {
    Tracer tracer(300000);
    run_traced_halves(o, tracer, slice_s, pl.node, step,
                      [&pl] { pl.engine->drain(); }, pl.fx.ric, *pl.app, r);
    std::vector<double> self_ms = tracer.self_us("citysim.epoch");
    for (double& v : self_ms) v *= 1e-3;
    r.set("citysim.self_ms_per_epoch", median(self_ms));

    // Inputs for the layer replays: two more (untimed) epochs of frames.
    pl.sink.capture = true;
    pl.sim->run_epochs(2);
    pl.sink.capture = false;
    pl.engine->drain();
    ServeSubject subject;
    subject.model = &pl.victim;
    subject.config = city_serve_config();
    subject.calibrate = [&pl](orev::serve::DefensePlane& d) {
      pl.calibrate(d);
    };
    subject.rows = &pl.sink.rows;
    measure_serve(subject, *pl.engine, r);
    measure_defense(subject, pl.engine->defense(), r);
    measure_decode(pl.sink.frames, r);
    r.set("citysim.t1_over_t4", citysim_t1_over_t4(o));
    write_trace(o, tracer, r);
  }

  const orev::citysim::CityStats st = pl.sim->stats();
  r.set("citysim.events", static_cast<double>(st.events));
  r.set("citysim.reports", static_cast<double>(st.reports));
  std::printf("[citysim] %llu epochs timed; %llu events for %llu reports "
              "(%.2f events per report)\n",
              static_cast<unsigned long long>(epochs),
              static_cast<unsigned long long>(st.events),
              static_cast<unsigned long long>(st.reports),
              static_cast<double>(st.events) / static_cast<double>(st.reports));

  check_one_control_per_indication(pl.node, r);
  r.check(pl.sink.rejected == 0 && pl.fx.ric.frames_rejected() == 0,
          "no rejected frames on the clean city stream");
  const orev::serve::SloSnapshot slo = pl.engine->slo();
  std::printf("[answers] prediction=%llu quarantine=%llu failsafe=%llu "
              "release=%llu; serve rejected=%llu\n",
              static_cast<unsigned long long>(
                  pl.node.count(Answer::kPrediction)),
              static_cast<unsigned long long>(
                  pl.node.count(Answer::kQuarantine)),
              static_cast<unsigned long long>(pl.node.count(Answer::kFailsafe)),
              static_cast<unsigned long long>(pl.node.count(Answer::kRelease)),
              static_cast<unsigned long long>(slo.rejected));
  r.attempted += pl.node.delivered();
  r.failed += pl.sink.rejected + pl.fx.ric.controls_dropped() + slo.rejected +
              (pl.node.delivered() - pl.node.answered());

  if (epochs >= kDigestEpochs) {
    digest.decisions = pl.node.decision_digest();
    std::printf("[digest] city_kpm decisions=%s events=%s (first %d timed "
                "epochs, %d threads)\n",
                digest.decisions.c_str(), digest.events.c_str(), kDigestEpochs,
                kThreads);
    if (!o.trace) {
      const DigestPrefix ref = reference_digest(o, kParallelThreads);
      orev::util::set_num_threads(kThreads);
      r.check(ref.decisions == digest.decisions && ref.events == digest.events,
              "city_kpm decision and event digests identical at 1 and 4 "
              "threads");
    }
  } else {
    r.check(false, "city_kpm ran at least the digest epochs");
  }
}

}  // namespace perfbench
