// fleet_attack_kpm — 1 thread. An attack::make_labeled_traffic fleet
// stream (4-feature KPM random walks over many flows, about 30% PGM/UAP
// slots) is encoded as binary frames and delivered through the RIC to an
// IC xApp on a trained make_kpm_dnn(4, 4), served behind the closed-loop
// defense plane: adaptive thresholds, a distilled sibling, review_every
// and the release channel.
//
// Why this workload: there is no simulator and the model is tiny, so RIC
// dispatch, SDL writes beside reads, xApp glue, the queue and batcher and
// the quarantine/review/alert path do nearly all the work. It is the
// defended, attacked use of the layers city_kpm uses only on the accept
// path.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/model_zoo.hpp"
#include "attack/adv_traffic.hpp"
#include "attack/pgm.hpp"
#include "data/dataset.hpp"
#include "defense/defenses.hpp"
#include "layers.hpp"
#include "nn/trainer.hpp"
#include "oran/e2_codec.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using orev::attack::TrafficLabel;
using orev::nn::Model;
using orev::nn::Tensor;
using orev::serve::ServeConfig;
using orev::serve::ServeEngine;

constexpr int kFeatures = 4;
constexpr int kClasses = 4;
constexpr int kWarmupRounds = 10;
constexpr std::uint64_t kModelSeed = 17;
/// Indications covered by the printed decision digest.
constexpr std::uint64_t kDigestIndications = 4096;

/// Synthetic KPM task over the traffic's [0, 1]^4 range: the class is the
/// argmax feature (bench_defense's victim task).
orev::data::Dataset argmax_dataset(int n, std::uint64_t seed) {
  const orev::Rng base(seed);
  orev::data::Dataset d;
  d.num_classes = kClasses;
  d.x = Tensor({n, kFeatures});
  d.y.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    orev::Rng rng = base.split(static_cast<std::uint64_t>(i));
    int best = 0;
    for (int j = 0; j < kFeatures; ++j) {
      d.x.at2(i, j) = rng.uniform(0.0f, 1.0f);
      if (d.x.at2(i, j) > d.x.at2(i, best)) best = j;
    }
    d.y[static_cast<std::size_t>(i)] = best;
  }
  return d;
}

/// The victim and its distilled sibling: part of the system, trained from
/// fixed seeds (the workload seed only drives the traffic).
struct Models {
  Model victim = orev::apps::make_kpm_dnn(kFeatures, kClasses, kModelSeed);
  Model sibling = orev::apps::make_one_layer({kFeatures}, kClasses, 1);
};

Models train_models() {
  Models m;
  const orev::data::Dataset all = argmax_dataset(512, 0xd57a);
  orev::Rng split_rng(0x5137);
  const orev::data::Split split =
      orev::data::stratified_split(all, 0.8, split_rng);
  orev::nn::TrainConfig tc;
  tc.max_epochs = 16;
  tc.learning_rate = 5e-3f;
  tc.early_stop_patience = 5;
  orev::nn::Trainer(tc).fit(m.victim, split.train.x, split.train.y,
                            split.test.x, split.test.y);
  orev::defense::DistillConfig dc;
  dc.train.max_epochs = 12;
  dc.train.learning_rate = 5e-3f;
  dc.train.early_stop_patience = 4;
  m.sibling = orev::defense::distill(
      m.victim,
      [](std::uint64_t seed) {
        return orev::apps::make_one_layer({kFeatures}, kClasses, seed);
      },
      split.train, split.test, dc);
  return m;
}

/// bench_defense's closed-loop engine shape on one replica, hot-swap off,
/// at the other workloads' batch_max of 32 (at 16 the control latencies
/// split into two clusters with the median in the gap between them).
ServeConfig fleet_serve_config(bool defended) {
  ServeConfig c;
  c.name = defended ? "fleet" : "fleet_plain";
  c.batch_max = 32;
  c.deadline_us = 1000000;
  c.flush_wait_us = 2000;
  c.replicas = 1;
  c.defense.enable = defended;
  c.defense.burst_window = 32;
  c.defense.burst_threshold = 0.2;
  c.defense.quarantine_capacity = 64;
  c.defense.finetune_capacity = 128;
  c.defense.adaptive.enable = true;
  c.defense.adaptive.warmup = 16;
  c.defense.adaptive.update_every = 8;
  c.defense.adaptive.floor_frac = 0.85;
  c.defense.adaptive.ceiling_frac = 1.1;
  c.defense.stale_decay = true;
  c.defense.review_every = 24;
  c.defense.release_margin = 0.9;
  return c;
}

std::string flow_key(int flow) {
  return std::string(orev::oran::kNsKpm) + "/cell-" + std::to_string(flow) +
         "/current";
}

/// The labeled stream, encoded once as binary KPM frames (cell id = flow).
struct Stream {
  int flows = 0;
  int rounds = 0;
  std::string bytes;
  // Frame i is bytes[offsets[i], offsets[i + 1]).
  std::vector<std::size_t> offsets;
  std::vector<TrafficLabel> labels;
  std::vector<Row> warm;             // warm-up rows in arrival order
  std::size_t warm_count = 0;

  std::string_view frame(std::size_t i) const {
    return std::string_view(bytes).substr(offsets[i],
                                          offsets[i + 1] - offsets[i]);
  }
  std::size_t scored() const { return labels.size() - warm_count; }
  /// Stream position of the k-th timed delivery. The scored window is
  /// replayed forward, then backward, then forward again, so every flow's
  /// walk stays continuous (a turn repeats one row) and the attack slots
  /// keep their share.
  std::size_t position(std::uint64_t k) const {
    const std::size_t m = scored();
    const std::size_t j = static_cast<std::size_t>(k % m);
    if ((k / m) % 2 == 0) return warm_count + j;
    const std::size_t round = static_cast<std::size_t>(rounds) - 1 -
                              j / static_cast<std::size_t>(flows);
    return warm_count + round * static_cast<std::size_t>(flows) +
           j % static_cast<std::size_t>(flows);
  }
};

Stream make_stream(const Options& o, Model& victim) {
  orev::attack::AdvTrafficConfig tc;
  tc.flows = o.tiny ? 8 : 64;
  tc.warmup_rounds = kWarmupRounds;
  tc.rounds = o.tiny ? 24 : 192;
  tc.attack_fraction = 0.3;
  // At eps 0.1 the UAP sits on the defense's detection edge: depending on
  // the seed it either is caught or slips through and poisons the flows'
  // norm-screen references, and the run lands in one of two regimes
  // (about 4% or 20% of clean rows quarantined). 0.2 keeps every seed in
  // one regime, so the figures measure the pipeline, not that coin flip.
  tc.eps = 0.2f;
  tc.seed = derive_seed(o.seed, 0xf1);
  orev::attack::Fgsm inner(tc.eps);
  const orev::attack::LabeledTraffic traffic =
      orev::attack::make_labeled_traffic(victim, inner, tc);
  std::printf("[traffic] %zu requests, %d adversarial, uap fooling %.3f\n",
              traffic.requests.size(), traffic.adversarial,
              traffic.uap_fooling);

  Stream s;
  s.flows = traffic.flows;
  s.rounds = tc.rounds;
  s.warm_count =
      static_cast<std::size_t>(traffic.flows * traffic.warmup_rounds);
  orev::oran::KpmFrameArena arena;
  std::vector<float> x(kFeatures);
  for (std::size_t i = 0; i < traffic.requests.size(); ++i) {
    const orev::attack::LabeledRequest& req = traffic.requests[i];
    const int flow =
        static_cast<int>(i % static_cast<std::size_t>(traffic.flows));
    for (std::size_t j = 0; j < x.size(); ++j) x[j] = req.input[j];
    s.offsets.push_back(s.bytes.size());
    s.bytes.append(arena.encode(static_cast<std::uint32_t>(flow), req.version,
                                orev::oran::IndicationKind::kKpm, x));
    s.labels.push_back(req.label);
    // Warm-up deliveries write SDL versions 1..kWarmupRounds per flow.
    if (i < s.warm_count)
      s.warm.push_back(Row{x, flow_key(flow), req.version + 1});
  }
  s.offsets.push_back(s.bytes.size());
  return s;
}

struct FleetPipeline {
  Models models;
  Stream stream;
  RicFixture fx;
  BenchE2Node node;
  std::shared_ptr<orev::apps::IcXApp> app;
  std::unique_ptr<ServeEngine> engine;
  std::uint64_t rejected = 0;
  std::uint64_t k = 0;  // timed deliveries so far

  // Answer accounting by ground-truth label.
  std::uint64_t adv = 0, adv_answered_by_model = 0;
  std::uint64_t clean = 0, clean_quarantined = 0;
  struct Flagged {
    std::uint64_t request_id = 0;
    TrafficLabel label = TrafficLabel::kClean;
  };
  std::vector<Flagged> flagged = std::vector<Flagged>(1u << 16);
  std::uint64_t released_adv = 0, released_clean = 0;

  /// Calibrates a defense plane on the warm-up rounds: the distribution
  /// profile on every row, the norm screen on each flow's walk.
  void calibrate(orev::serve::DefensePlane& d) const {
    const int n = static_cast<int>(stream.warm.size());
    std::vector<float> all;
    for (const Row& row : stream.warm)
      all.insert(all.end(), row.x.begin(), row.x.end());
    d.calibrate(Tensor({n, kFeatures}, all));
    for (int f = 0; f < stream.flows; ++f) {
      std::vector<float> rows;
      for (std::size_t i = static_cast<std::size_t>(f); i < stream.warm.size();
           i += static_cast<std::size_t>(stream.flows))
        rows.insert(rows.end(), stream.warm[i].x.begin(),
                    stream.warm[i].x.end());
      const int m = static_cast<int>(rows.size() / kFeatures);
      d.calibrate_flow(flow_key(f), Tensor({m, kFeatures}, rows), 1);
    }
  }

  void deliver_frame(std::string_view frame) {
    if (!deliver(node, [&] { return fx.ric.deliver_kpm_frame(frame); }))
      ++rejected;
  }

  void step() { deliver_frame(stream.frame(stream.position(k++))); }

  void on_answer(std::uint64_t idx, Answer kind) {
    if (kind == Answer::kRelease) {
      attribute_release();
      return;
    }
    const TrafficLabel label = stream.labels[stream.position(idx)];
    const bool is_adv = label != TrafficLabel::kClean;
    (is_adv ? adv : clean) += 1;
    if (kind == Answer::kPrediction && is_adv) ++adv_answered_by_model;
    if (kind == Answer::kQuarantine) {
      if (!is_adv) ++clean_quarantined;
      const auto& ring = engine->defense()->quarantine();
      if (!ring.empty()) {
        const std::uint64_t id = ring.back().request_id;
        flagged[id % flagged.size()] = Flagged{id, label};
      }
    }
  }

  /// A release replay carries no indication: the correcting attestation
  /// the xApp wrote just before it names the released request.
  void attribute_release() {
    const auto& log = fx.ric.sdl().audit_log();
    if (log.empty()) return;
    const std::string& key = log.back().key;  // "ic/<node>" decision write
    const std::string node_id = key.substr(key.find('/') + 1);
    const std::string app_id = fx.app_id_of("ic");
    std::string alert;
    if (fx.ric.sdl().read_text(app_id, orev::oran::kNsDefenseAlerts,
                               app_id + "/" + node_id, alert) !=
        orev::oran::SdlStatus::kOk)
      return;
    const std::size_t at = alert.find("request=");
    if (at == std::string::npos) return;
    const std::uint64_t id = std::strtoull(alert.c_str() + at + 8, nullptr, 10);
    const Flagged& f = flagged[id % flagged.size()];
    if (f.request_id != id) return;
    (f.label == TrafficLabel::kClean ? released_clean : released_adv) += 1;
  }
};

std::unique_ptr<FleetPipeline> build_fleet(const Options& o, bool defended) {
  orev::util::set_num_threads(1);
  auto p = std::make_unique<FleetPipeline>();
  p->models = train_models();
  p->stream = make_stream(o, p->models.victim);
  p->app = std::make_shared<orev::apps::IcXApp>(
      p->models.victim.clone(), orev::oran::IndicationKind::kKpm, 13);
  p->fx.add(p->app, "ic", "ic-xapp", 10);
  p->fx.ric.connect_e2(&p->node);
  p->node.watch(p->app.get());

  // Untimed warm-up rounds on the xApp's synchronous path: they advance
  // each flow's SDL version to match the calibration below.
  for (std::size_t i = 0; i < p->stream.warm_count; ++i)
    p->deliver_frame(p->stream.frame(i));
  p->node.reset();

  p->engine = std::make_unique<ServeEngine>(p->models.victim.clone(),
                                            fleet_serve_config(defended));
  if (defended) {
    p->engine->attach_defense_sibling(p->models.sibling.clone());
    p->calibrate(*p->engine->defense());
  }
  p->app->set_serve_engine(p->engine.get());
  if (defended) p->app->enable_release_channel(p->fx.ric);
  FleetPipeline* raw = p.get();
  p->node.on_answer = [raw](std::uint64_t idx, Answer kind,
                            const orev::oran::E2Control&) {
    raw->on_answer(idx, kind);
  };
  return p;
}

/// The committed "2% defense p99 overhead" restated in wall time: the same
/// stream through the same loop with the plane on and off.
void print_defense_overhead(const Options& o) {
  double p99[2] = {0.0, 0.0};
  for (int on = 0; on < 2; ++on) {
    std::unique_ptr<FleetPipeline> p = build_fleet(o, on == 1);
    FleetPipeline& pl = *p;
    const LoopResult loop = run_loop(
        pl.node, o.tiny ? 0.3 : 1.0, o.tiny ? 0.3 : 1.0, [&pl] { pl.step(); },
        on ? "fleet defense on" : "fleet defense off");
    pl.engine->drain();
    p99[on] = loop.p99_us;
  }
  std::printf("[cost-model] defense p99 overhead in wall time: ctrl_p99_us "
              "%.2f with the plane vs %.2f without (%+.1f%%; committed "
              "virtual figure: +2%%)\n",
              p99[1], p99[0], 100.0 * (p99[1] / p99[0] - 1.0));
}

}  // namespace

void run_fleet_attack_kpm(const Options& o, Report& r) {
  std::unique_ptr<FleetPipeline> p =
      timed_setup(o, r, [&] { return build_fleet(o, true); });
  FleetPipeline& pl = *p;
  pl.node.set_digest_prefix(kDigestIndications);
  const auto step = [&pl] { pl.step(); };
  const double slice_s = 0.25;

  if (!o.trace) {
    const LoopResult loop =
        run_loop(pl.node, o.seconds, slice_s, step, "fleet_attack_kpm");
    pl.engine->drain();
    report_loop(loop, r);
    r.set("peak_rss_mb", peak_rss_mb());
  } else {
    Tracer tracer(300000);
    run_traced_halves(o, tracer, slice_s, pl.node, step,
                      [&pl] {
                        pl.engine->drain();
                        pl.engine->review_quarantine_now();
                      },
                      pl.fx.ric, *pl.app, r);

    // Replay inputs: one pass over the scored window, versions continuing
    // each flow's walk after the warm-up.
    std::vector<Row> rows;
    std::vector<std::string> frames;
    for (std::size_t i = pl.stream.warm_count; i < pl.stream.labels.size();
         ++i) {
      const std::string_view f = pl.stream.frame(i);
      orev::oran::KpmFrameView v;
      if (orev::oran::decode_kpm_frame(f, v) !=
          orev::oran::KpmDecodeStatus::kOk)
        continue;
      std::vector<float> x(kFeatures);
      v.copy_features(x);
      rows.push_back(Row{x, flow_key(static_cast<int>(v.cell_id)), v.tti + 1});
      frames.emplace_back(f);
    }
    ServeSubject subject;
    subject.model = &pl.models.victim;
    subject.config = fleet_serve_config(true);
    subject.calibrate = [&pl](orev::serve::DefensePlane& d) {
      pl.calibrate(d);
    };
    subject.sibling = &pl.models.sibling;
    subject.rows = &rows;
    measure_serve(subject, *pl.engine, r);
    measure_defense(subject, pl.engine->defense(), r);
    measure_decode(frames, r);
    print_defense_overhead(o);
    write_trace(o, tracer, r);
  }

  const auto share = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  const double pass_rate =
      share(pl.adv_answered_by_model + pl.released_adv, pl.adv);
  const double clean_q =
      share(pl.clean_quarantined - pl.released_clean, pl.clean);
  if (o.trace) {
    r.set("defense.attack_pass_rate", pass_rate);
    r.set("defense.clean_quarantine_rate", clean_q);
  }
  std::printf("[defense] adversarial %llu: %llu answered by the model + "
              "%llu released -> attack_pass_rate %.4f; clean %llu: %llu "
              "quarantined, %llu released -> clean_quarantine_rate %.4f\n",
              static_cast<unsigned long long>(pl.adv),
              static_cast<unsigned long long>(pl.adv_answered_by_model),
              static_cast<unsigned long long>(pl.released_adv), pass_rate,
              static_cast<unsigned long long>(pl.clean),
              static_cast<unsigned long long>(pl.clean_quarantined),
              static_cast<unsigned long long>(pl.released_clean), clean_q);

  check_one_control_per_indication(pl.node, r);
  r.check(pl.node.releases() == pl.app->serve_released(),
          "one extra control per release replay");
  r.check(pl.rejected == 0 && pl.fx.ric.frames_rejected() == 0,
          "no rejected frames on the fleet stream");
  const orev::serve::SloSnapshot slo = pl.engine->slo();
  r.attempted += pl.node.delivered();
  r.failed += pl.rejected + pl.fx.ric.controls_dropped() + slo.rejected +
              (pl.node.delivered() - pl.node.answered());
  std::printf("[digest] fleet_attack_kpm decisions=%s (first %llu timed "
              "indications)\n",
              pl.node.decision_digest().c_str(),
              static_cast<unsigned long long>(kDigestIndications));
}

}  // namespace perfbench
