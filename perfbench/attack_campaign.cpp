// attack_campaign — 1 thread. The paper's black-box pipeline against the
// served spectrogram victim:
//   1. probe the victim through its ServeEngine (collect_clone_dataset);
//   2. clone one surrogate candidate (clone_model);
//   3. generate a UAP on the surrogate (generate_uap);
//   4. attack the running loop: a rogue xApp dispatched before the IC xApp
//      rewrites each telemetry entry, alternating the UAP and per-sample
//      PGD on the surrogate;
//   5. measure the attack success rate on the victim from its E2 controls.
//
// Why this workload: it is the only one that trains and backpropagates;
// without it the nn and attack layers go unmeasured. Its ind_per_s divides
// the attacked indications answered by the whole campaign's wall time
// (probing, cloning and the UAP included), so a faster nn or attack layer
// shows there; ctrl latency includes the rogue's per-sample generation
// time, the paper's g against the 0.5 s report window (§5.3.3).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "apps/malicious_xapp.hpp"
#include "apps/model_zoo.hpp"
#include "attack/clone.hpp"
#include "attack/pgm.hpp"
#include "attack/uap.hpp"
#include "layers.hpp"
#include "ran/datasets.hpp"
#include "spectro.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using orev::nn::Model;
using orev::nn::Tensor;
using orev::serve::ServeEngine;

constexpr float kEps = 0.3f;
/// Attacked indications covered by the printed decision digest.
constexpr std::uint64_t kDigestIndications = 256;

struct CampaignPipeline {
  explicit CampaignPipeline(Model v) : victim(std::move(v)) {}

  Model victim;
  SpectroPool probes;  // the attacker's observation window
  SpectroPool targets;  // telemetry attacked in the loop
  std::vector<int> clean_pred;  // the victim's answer to each clean target
  RicFixture fx;
  BenchE2Node node;
  std::shared_ptr<orev::apps::IcXApp> app;
  std::shared_ptr<orev::apps::MaliciousXApp> rogue;
  std::unique_ptr<ServeEngine> engine;
};

std::unique_ptr<CampaignPipeline> build_campaign(const Options& o) {
  orev::util::set_num_threads(1);
  auto p = std::make_unique<CampaignPipeline>(train_spectrogram_victim(o.tiny));
  p->probes = make_spectro_pool(derive_seed(o.seed, 0xa1), o.tiny ? 64 : 256);
  p->targets = make_spectro_pool(derive_seed(o.seed, 0xa2), o.tiny ? 64 : 256);
  Model walk = p->victim.clone();
  p->clean_pred = walk.predict(p->targets.batch(0, p->targets.x.size()));
  p->app = std::make_shared<orev::apps::IcXApp>(
      p->victim.clone(), orev::oran::IndicationKind::kSpectrogram, 13);
  p->rogue = std::make_shared<orev::apps::MaliciousXApp>(
      orev::oran::IndicationKind::kSpectrogram);
  p->fx.add(p->rogue, "rogue", "rogue-xapp", 1, "apps.rogue_on_indication");
  p->fx.add(p->app, "ic", "ic-xapp", 10);
  p->fx.ric.connect_e2(&p->node);
  p->node.watch(p->app.get());
  p->engine = std::make_unique<ServeEngine>(p->victim.clone(),
                                            spectro_serve_config("victim"));
  p->app->set_serve_engine(p->engine.get());
  return p;
}

struct CampaignResult {
  double offline_s = 0.0;  // probe + clone + UAP
  double query_s = 0.0, clone_s = 0.0, uap_s = 0.0;
  std::uint64_t queries = 0, retries = 0;
  double clone_accuracy = 0.0;
  int epochs_run = 0;
  double train_samples_per_s = 0.0;
  int uap_passes = 0;
  bool labels_match = false;
  LoopResult loop;
  std::vector<double> perturb_ms;
  std::uint64_t attacked = 0, flipped = 0;
  std::optional<Model> surrogate;
};

/// One campaign: the offline phase, then the attacked loop for whatever
/// is left of `seconds`.
CampaignResult run_campaign(CampaignPipeline& p, const Options& o,
                            double seconds, const char* label) {
  CampaignResult c;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t until = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  const Tensor probe_x = p.probes.batch(0, p.probes.x.size());

  // 1. Probing: every probe is one admission into the victim's engine.
  const std::uint64_t rejected0 = p.engine->slo().rejected;
  orev::data::Dataset d_clone;
  {
    ScopedSpan span("attack.query", 0);
    const std::uint64_t q0 = now_ns();
    d_clone = orev::attack::collect_clone_dataset(*p.engine, probe_x);
    c.query_s = static_cast<double>(now_ns() - q0) * 1e-9;
  }
  c.queries = static_cast<std::uint64_t>(p.probes.x.size());
  c.retries = p.engine->slo().rejected - rejected0;
  Model direct = p.victim.clone();
  c.labels_match = d_clone.y == direct.predict(probe_x);

  // 2. Cloning one candidate (the victim's own family, BaseCNN).
  orev::attack::CloneConfig cc;
  // A fixed amount of work whatever the seed: no early stop.
  cc.train.max_epochs = o.tiny ? 2 : 5;
  cc.train.learning_rate = 2e-3f;
  cc.train.early_stop_patience = cc.train.max_epochs;
  cc.train.lr_patience = cc.train.max_epochs;
  const orev::nn::Shape shape = p.victim.input_shape();
  const std::vector<orev::attack::Candidate> candidates = {
      {"Base", [shape](std::uint64_t seed) {
         return orev::apps::make_base_cnn(shape, 2, seed);
       }}};
  {
    ScopedSpan span("attack.clone", 0);
    const std::uint64_t c0 = now_ns();
    orev::attack::CloneReport rep =
        orev::attack::clone_model(d_clone, candidates, cc);
    c.clone_s = static_cast<double>(now_ns() - c0) * 1e-9;
    c.clone_accuracy = rep.cloning_accuracy;
    c.epochs_run = rep.scores.front().epochs_run;
    const double train_rows = cc.train_fraction * d_clone.size();
    c.train_samples_per_s =
        train_rows * c.epochs_run /
        std::max(rep.scores.front().train_seconds, 1e-9);
    c.surrogate = std::move(rep.model);
  }

  // 3. The universal perturbation, from the surrogate's view of the probes.
  orev::attack::UapResult uap;
  {
    ScopedSpan span("attack.uap", 0);
    const std::uint64_t u0 = now_ns();
    orev::attack::Fgsm inner(kEps);
    orev::attack::UapConfig uc;
    uc.eps = kEps;
    uc.max_passes = o.tiny ? 1 : 2;
    uc.target_fooling = 1.0;  // every pass runs, whatever the seed
    uap = orev::attack::generate_uap(*c.surrogate, probe_x, inner, uc);
    c.uap_s = static_cast<double>(now_ns() - u0) * 1e-9;
    c.uap_passes = uap.passes;
  }
  c.offline_s = static_cast<double>(now_ns() - t0) * 1e-9;

  // 4. The attacked loop: even indications carry the UAP, odd ones a
  //    per-sample PGD perturbation generated synchronously by the rogue.
  orev::attack::Pgd pgd(kEps, 5);
  Model& surrogate = *c.surrogate;
  const orev::apps::MaliciousXApp::Generator generate =
      [&pgd, &surrogate, &c](const Tensor& x) {
        ScopedSpan span("attack.perturb", g_request);
        const std::uint64_t g0 = now_ns();
        Tensor adv = pgd.perturb(surrogate, x, surrogate.predict_one(x));
        c.perturb_ms.push_back(static_cast<double>(now_ns() - g0) * 1e-6);
        return adv;
      };
  p.node.on_answer = [&p, &c](std::uint64_t idx, Answer,
                              const orev::oran::E2Control& ctrl) {
    const int clean = p.clean_pred[idx % p.clean_pred.size()];
    const bool clean_adaptive = clean == orev::ran::kLabelInterference;
    const bool adaptive =
        ctrl.action == orev::oran::ControlAction::kSetAdaptiveMcs;
    ++c.attacked;
    if (adaptive != clean_adaptive) ++c.flipped;
  };
  std::uint64_t k = p.node.delivered();
  const auto step = [&] {
    if (k % 2 == 0) {
      p.rogue->arm_uap(uap.perturbation);
    } else {
      p.rogue->arm_input_specific(generate, 0.0);
    }
    orev::oran::E2Indication ind = spectro_indication(
        kSpectroNodes[k % std::size(kSpectroNodes)], k,
        p.targets.x[k % p.targets.x.size()]);
    ++k;
    deliver(p.node,
            [&] { return p.fx.ric.deliver_indication(std::move(ind)); });
  };
  const double left =
      static_cast<double>(until - std::min(until, now_ns())) * 1e-9;
  c.loop = run_loop(p.node, std::max(left, 0.05), std::max(left, 0.05), step,
                    label);
  p.engine->drain();
  p.node.on_answer = nullptr;
  return c;
}

void print_campaign(const CampaignResult& c) {
  std::printf("[attack] offline %.3f s: query %.3f s (%llu probes, %llu "
              "retries), clone %.3f s (acc %.4f, %d epochs, %.1f samples/s), "
              "uap %.3f s (%d passes)\n",
              c.offline_s, c.query_s,
              static_cast<unsigned long long>(c.queries),
              static_cast<unsigned long long>(c.retries), c.clone_s,
              c.clone_accuracy, c.epochs_run, c.train_samples_per_s, c.uap_s,
              c.uap_passes);
  std::printf("[attack] in the loop: %llu attacked indications, %llu controls "
              "flipped (asr %.4f), %zu per-sample perturbations\n",
              static_cast<unsigned long long>(c.attacked),
              static_cast<unsigned long long>(c.flipped),
              c.attacked ? static_cast<double>(c.flipped) / c.attacked : 0.0,
              c.perturb_ms.size());
}

}  // namespace

void run_attack_campaign(const Options& o, Report& r) {
  std::unique_ptr<CampaignPipeline> p =
      timed_setup(o, r, [&] { return build_campaign(o); });
  CampaignPipeline& pl = *p;
  pl.node.set_digest_prefix(kDigestIndications);

  if (!o.trace) {
    const CampaignResult c = run_campaign(pl, o, o.seconds, "attack_campaign");
    print_campaign(c);
    // Attacked indications answered per wall second of the whole campaign.
    r.set("ind_per_s",
          static_cast<double>(c.loop.answered) /
              (c.offline_s + c.loop.seconds));
    r.set("ctrl_p50_us", c.loop.p50_us);
    r.check(c.loop.p90_us > 0.0,
            "ctrl_p90_us has at least ten samples beyond it");
    r.set("ctrl_p90_us", c.loop.p90_us);
    r.set("peak_rss_mb", peak_rss_mb());
    r.check(c.labels_match,
            "clone labels through the engine equal direct victim labels");
    r.attempted += c.queries;
    r.failed += c.retries;
  } else {
    // Each half is a whole campaign of the untraced run's length: the
    // offline phase alone takes a few seconds.
    const CampaignResult plain =
        run_campaign(pl, o, o.seconds, "attack_campaign untraced");
    print_campaign(plain);
    r.set("oran.loop_allocs_per_ind",
          static_cast<double>(plain.loop.allocs) /
              static_cast<double>(
                  std::max<std::uint64_t>(plain.loop.delivered, 1)));
    Tracer tracer(300000);
    start_tracing(tracer);
    CampaignResult c = run_campaign(pl, o, o.seconds, "attack_campaign traced");
    const SdlOps ops = stop_tracing();
    print_campaign(c);
    report_trace_overhead(plain.offline_s, c.offline_s, false, r);
    r.check(plain.labels_match && c.labels_match,
            "clone labels through the engine equal direct victim labels");
    measure_ric(tracer, pl.fx.ric, *pl.app, c.loop.delivered, ops, r);

    r.set("attack.campaign_s", c.offline_s);
    r.set("attack.query_s", c.query_s);
    r.set("attack.victim_queries", static_cast<double>(c.queries));
    r.set("attack.probe_retries", static_cast<double>(c.retries));
    r.set("attack.clone_s", c.clone_s);
    r.set("attack.clone_accuracy", c.clone_accuracy);
    r.set("attack.uap_s", c.uap_s);
    r.set("attack.uap_passes", c.uap_passes);
    std::vector<double> g = c.perturb_ms;
    if (!g.empty()) {
      const std::size_t n = g.size();
      r.set("attack.perturb_p50_ms", percentile(g, 50.0));
      r.set("attack.perturb_p99_ms",
            resolvable(n, 99.0) ? percentile(g, 99.0) : 0.0);
    }
    r.set("attack.victim_asr",
          c.attacked ? static_cast<double>(c.flipped) / c.attacked : 0.0);
    r.set("nn.train_samples_per_s", c.train_samples_per_s);
    r.set("nn.epochs_run", c.epochs_run);

    // nn.grad_ms_per_sample: input_loss_gradient on the surrogate, replayed
    // over the attacked telemetry.
    std::vector<double> grad_ms;
    for (std::size_t i = 0; i < pl.targets.x.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      orev::attack::input_loss_gradient(*c.surrogate, pl.targets.x[i],
                                        pl.targets.y[i]);
      grad_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    r.set("nn.grad_ms_per_sample", median(grad_ms));

    std::vector<Row> rows;
    for (const Tensor& x : pl.probes.x)
      rows.push_back(
          Row{std::vector<float>(x.data().begin(), x.data().end()), {}, 0});
    ServeSubject subject;
    subject.model = &pl.victim;
    subject.config = spectro_serve_config("victim");
    subject.rows = &rows;
    measure_serve(subject, *pl.engine, r);
    write_trace(o, tracer, r);
  }
  check_one_control_per_indication(pl.node, r);
  r.attempted += pl.node.delivered();
  r.failed += pl.fx.ric.controls_dropped() +
              (pl.node.delivered() - pl.node.answered());
  std::printf("[digest] attack_campaign decisions=%s (first %llu attacked "
              "indications)\n",
              pl.node.decision_digest().c_str(),
              static_cast<unsigned long long>(kDigestIndications));
}

}  // namespace perfbench
