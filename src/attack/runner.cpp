#include "attack/runner.hpp"

#include <chrono>

#include "util/obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace orev::attack {

BatchAttackResult attack_batch(Pgm& pgm, nn::Model& surrogate,
                               const nn::Tensor& x, int target_class) {
  OREV_CHECK(x.rank() >= 2 && x.dim(0) > 0, "attack_batch needs a batch");
  const int n = x.dim(0);
  static obs::Counter& samples = obs::counter(
      "attack.batch.samples", "samples perturbed by input-specific PGMs");
  static obs::SketchMetric& sample_ms = obs::sketch(
      "attack.batch.sample_ms", 0.01,
      "per-sample perturbation latency (the near-RT window evidence)");
  OREV_TRACE_SPAN_CAT("attack.batch", "attack");

  BatchAttackResult out;
  out.adversarial = nn::Tensor(x.shape());
  std::vector<double> per_sample_ms(static_cast<std::size_t>(n), 0.0);

  // Per-sample fan-out over the pool. Every participating task works on
  // its own surrogate/PGM replica, and the PGM is re-seeded per sample
  // from a counter stream, so the adversarial batch is bit-identical for
  // any thread count or schedule (only the timings vary).
  struct Ctx {
    nn::Model model;
    PgmPtr pgm;
  };
  util::parallel_for_ctx(
      0, n, 1, [&] { return Ctx{surrogate.clone(), pgm.clone()}; },
      [&](Ctx& ctx, std::int64_t i) {
        const nn::Tensor sample = x.slice_batch(static_cast<int>(i));
        const auto t0 = std::chrono::steady_clock::now();
        ctx.pgm->reseed(static_cast<std::uint64_t>(i));
        nn::Tensor adv;
        if (target_class >= 0) {
          adv = ctx.pgm->perturb_targeted(ctx.model, sample, target_class);
        } else {
          const int label = ctx.model.predict_one(sample);
          adv = ctx.pgm->perturb(ctx.model, sample, label);
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        samples.inc();
        sample_ms.observe(ms);
        per_sample_ms[static_cast<std::size_t>(i)] = ms;
        out.adversarial.set_batch(static_cast<int>(i), adv);
      });

  double total_ms = 0.0;
  for (const double ms : per_sample_ms) {
    total_ms += ms;
    out.max_ms_per_sample = std::max(out.max_ms_per_sample, ms);
  }
  out.mean_ms_per_sample = total_ms / n;
  return out;
}

PgmPtr default_uap_inner(float /*eps*/) {
  return std::make_unique<DeepFool>(30, 0.1f);
}

std::vector<SweepPoint> epsilon_sweep(
    nn::Model& victim, nn::Model& surrogate, const nn::Tensor& x_attack,
    const std::vector<int>& y_true, const std::vector<float>& eps_values,
    const UapConfig& uap_base, int target_class,
    const nn::Tensor& x_uap_seed, const InnerPgmFactory& inner_factory) {
  std::vector<SweepPoint> out;
  out.reserve(eps_values.size());
  const nn::Tensor& uap_seed = x_uap_seed.empty() ? x_attack : x_uap_seed;

  for (const float eps : eps_values) {
    SweepPoint point;
    point.eps = eps;

    // Input-specific attack at this ε.
    Fgsm fgsm(eps);
    const BatchAttackResult batch =
        attack_batch(fgsm, surrogate, x_attack, target_class);
    point.input_specific = evaluate_attack(victim, x_attack,
                                           batch.adversarial, y_true,
                                           target_class);

    // UAP built with the same inner PGM at this ε.
    UapConfig ucfg = uap_base;
    ucfg.eps = eps;
    const PgmPtr inner = inner_factory(eps);
    const UapResult uap =
        target_class >= 0
            ? generate_targeted_uap(surrogate, uap_seed, *inner,
                                    target_class, ucfg)
            : generate_uap(surrogate, uap_seed, *inner, ucfg);
    const nn::Tensor x_uap = apply_uap(x_attack, uap.perturbation);
    point.uap =
        evaluate_attack(victim, x_attack, x_uap, y_true, target_class);

    out.push_back(point);
  }
  return out;
}

}  // namespace orev::attack
