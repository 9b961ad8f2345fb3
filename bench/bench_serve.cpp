// Serving-engine benchmark (DESIGN.md §11): a closed-loop fleet workload
// (N cells × M UEs × R rounds of KPM vectors) driven through the batched
// ServeEngine and through the unbatched per-sample reference path.
//
// The bench proves the two serving claims:
//   * byte-identity — the served prediction stream's SHA-256 digest equals
//     the unbatched path's digest, at 1 *and* 4 threads;
//   * throughput — batched serving sustains at least --min-speedup× the
//     single-sample request rate (the committed report uses 5× at
//     batch-max 32).
// It also runs an attack-contention phase: the cloning loop's probes are
// admitted into the same engine that serves the fleet, and their labels
// must still match direct victim queries exactly.
//
// CNN fleet phase (DESIGN.md §12): the same workload shape over the
// spectrogram BaseCNN, served through the compiled conv-chain plan.
// Byte-identity is asserted against the layer walk at 1 and 4 threads and
// the compiled plan must beat the walk by --min-cnn-speedup× (the
// committed report uses 3×). An int8 phase then enables the quantized
// tier: FGSM- and UAP-perturbed evaluation rows feed the accuracy gate,
// and — only if the gate admits the tier — its throughput and accuracy
// deltas are measured. --self-check asserts the gate's bookkeeping: the
// int8 timing ran iff the gate activated, and a refused gate incremented
// serve.<name>.quant_rejected.
//
// Output: a JSON report (schema "orev-serve-bench-v2") with the workload
// config, per-phase wall-clock throughput, virtual-latency percentiles
// and batch occupancy — written to --report-out and summarised on stdout.
// --digests-out writes the phase digests one per line for CI diffing.
//
// Observability overhead phase (DESIGN.md §13): the KPM fleet reruns in
// five off/on pairs of causal span recording, the order alternating pair
// by pair; the median per-pair delta is the cost of the telemetry plane
// and --max-obs-overhead-pct gates it (0 = report only). Every run must
// reproduce the reference digest — tracing is observational by contract.
//
// Defense overhead phase (DESIGN.md §14): the KPM fleet reruns with the
// inline defense plane enabled but its thresholds parked at infinity —
// every row pays the full screen, nothing quarantines, the digest must
// equal the reference — and --max-defense-overhead-pct gates the
// deterministic p99 virtual-latency delta (0 = report only).
//
// Flags: --cells N  --ues M  --rounds R  --batch-max B  --deadline-us D
//        --replicas K  --queue-capacity Q  --passes P  --min-speedup S
//        --min-cnn-speedup S  --max-obs-overhead-pct P
//        --max-defense-overhead-pct P  --report-out FILE
//        --digests-out FILE  --self-check   (plus the common --threads /
//        --metrics-out / --trace-out / --flight-dir / --fault-plan flags).
// Each phase is timed best-of-P passes (default 3): the regions are only a
// few milliseconds long, and best-of strips scheduler noise symmetrically
// from the reference and served measurements.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/model_zoo.hpp"
#include "attack/clone.hpp"
#include "attack/pgm.hpp"
#include "attack/uap.hpp"
#include "bench_common.hpp"
#include "serve/serve.hpp"
#include "util/persist/bytes.hpp"
#include "util/sha256.hpp"

namespace {

using namespace orev;
using namespace orev::bench;

constexpr int kKpmFeatures = 4;
constexpr int kKpmClasses = 4;

struct Flags {
  int cells = 24;
  int ues = 8;
  int rounds = 4;
  int batch_max = 32;
  std::uint64_t deadline_us = 1000000;
  int replicas = 4;
  int queue_capacity = 256;
  /// Timed passes per phase; each phase reports its fastest pass. The
  /// timed regions are only a few milliseconds, so a single pass is at
  /// the mercy of scheduler noise — best-of-N (applied symmetrically to
  /// the unbatched reference and the served runs) measures the code, not
  /// the machine's mood. The prediction stream is identical every pass.
  int passes = 3;
  double min_speedup = 0.0;
  /// Gate on the CNN fleet phase: compiled plan vs the layer walk.
  double min_cnn_speedup = 0.0;
  /// Assert the int8 gate's bookkeeping (see header comment).
  bool self_check = false;
  /// Gate on the causal-tracing overhead phase: fail when enabling span
  /// recording costs more than this percent of obs-off throughput.
  /// 0 disables the gate (the phase still runs and reports).
  double max_obs_overhead_pct = 0.0;
  /// Gate on the defense-plane overhead phase: fail when the inline
  /// screen inflates deterministic p99 virtual latency by more than this
  /// percent over the defense-off run. 0 disables the gate (the phase
  /// still runs and reports). The committed report uses 5.
  double max_defense_overhead_pct = 0.0;
  std::string report_out = "bench_results/serve_report.json";
  std::string digests_out;
};

int parse_int(const char* s) { return std::atoi(s); }

Flags parse_flags(int& argc, char** argv) {
  Flags f;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    auto take = [&](const char* name, auto setter) {
      const std::size_t len = std::strlen(name);
      if (std::strcmp(argv[r], name) == 0 && r + 1 < argc) {
        setter(argv[++r]);
        return true;
      }
      if (std::strncmp(argv[r], name, len) == 0 && argv[r][len] == '=') {
        setter(argv[r] + len + 1);
        return true;
      }
      return false;
    };
    if (std::strcmp(argv[r], "--self-check") == 0) {
      f.self_check = true;
      continue;
    }
    if (take("--cells", [&](const char* v) { f.cells = parse_int(v); }) ||
        take("--ues", [&](const char* v) { f.ues = parse_int(v); }) ||
        take("--rounds", [&](const char* v) { f.rounds = parse_int(v); }) ||
        take("--batch-max",
             [&](const char* v) { f.batch_max = parse_int(v); }) ||
        take("--deadline-us",
             [&](const char* v) {
               f.deadline_us = std::strtoull(v, nullptr, 0);
             }) ||
        take("--replicas", [&](const char* v) { f.replicas = parse_int(v); }) ||
        take("--queue-capacity",
             [&](const char* v) { f.queue_capacity = parse_int(v); }) ||
        take("--passes", [&](const char* v) { f.passes = parse_int(v); }) ||
        take("--min-speedup",
             [&](const char* v) { f.min_speedup = std::atof(v); }) ||
        take("--min-cnn-speedup",
             [&](const char* v) { f.min_cnn_speedup = std::atof(v); }) ||
        take("--max-obs-overhead-pct",
             [&](const char* v) { f.max_obs_overhead_pct = std::atof(v); }) ||
        take("--max-defense-overhead-pct",
             [&](const char* v) {
               f.max_defense_overhead_pct = std::atof(v);
             }) ||
        take("--report-out", [&](const char* v) { f.report_out = v; }) ||
        take("--digests-out", [&](const char* v) { f.digests_out = v; })) {
      continue;
    }
    argv[w++] = argv[r];
  }
  argc = w;
  return f;
}

/// Fleet request stream: one KPM vector per (cell, ue, round), generated
/// from a per-request Rng stream so the workload is independent of
/// iteration order and reproducible from the seed alone.
std::vector<nn::Tensor> fleet_inputs(const Flags& f,
                                     std::uint64_t seed = 0xf1ee7) {
  const Rng base(seed);
  std::vector<nn::Tensor> out;
  out.reserve(static_cast<std::size_t>(f.cells * f.ues * f.rounds));
  std::uint64_t stream = 0;
  for (int r = 0; r < f.rounds; ++r)
    for (int c = 0; c < f.cells; ++c)
      for (int u = 0; u < f.ues; ++u) {
        Rng rng = base.split(stream++);
        nn::Tensor t({kKpmFeatures});
        for (std::size_t j = 0; j < static_cast<std::size_t>(kKpmFeatures);
             ++j)
          t[j] = rng.uniform(-1.0f, 1.0f);
        out.push_back(std::move(t));
      }
  return out;
}

constexpr int kSpecH = 16;
constexpr int kSpecW = 16;
constexpr int kSpecClasses = 4;

/// CNN fleet request stream: one [1, H, W] spectrogram per (cell, ue,
/// round), uniform over the attack-valid [0, 1] data range, reproducible
/// from the seed alone exactly like fleet_inputs().
std::vector<nn::Tensor> cnn_fleet_inputs(const Flags& f,
                                         std::uint64_t seed = 0x5bec) {
  const Rng base(seed);
  std::vector<nn::Tensor> out;
  out.reserve(static_cast<std::size_t>(f.cells * f.ues * f.rounds));
  std::uint64_t stream = 0;
  for (int r = 0; r < f.rounds; ++r)
    for (int c = 0; c < f.cells; ++c)
      for (int u = 0; u < f.ues; ++u) {
        Rng rng = base.split(stream++);
        nn::Tensor t({1, kSpecH, kSpecW});
        for (std::size_t j = 0; j < t.numel(); ++j)
          t[j] = rng.uniform(0.0f, 1.0f);
        out.push_back(std::move(t));
      }
  return out;
}

std::string digest_of(const std::vector<int>& preds) {
  persist::ByteWriter w;
  for (const int p : preds) w.i32(p);
  return Sha256::hex(w.buffer());
}

struct ServedRun {
  int threads = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  std::string digest;
  serve::SloSnapshot slo;
};

serve::ServeConfig engine_config(const Flags& f, const std::string& name) {
  serve::ServeConfig cfg;
  cfg.name = name;
  cfg.queue_capacity = f.queue_capacity;
  cfg.batch_max = f.batch_max;
  cfg.deadline_us = f.deadline_us;
  cfg.flush_wait_us = std::min<std::uint64_t>(2000, f.deadline_us);
  cfg.replicas = f.replicas;
  return cfg;
}

ServedRun run_served(const nn::Model& model, const Flags& f, int threads,
                     const std::vector<nn::Tensor>& inputs,
                     const std::string& name,
                     const serve::DefenseConfig* defense = nullptr) {
  util::set_num_threads(threads);
  serve::ServeConfig cfg = engine_config(f, name + std::to_string(threads));
  if (defense != nullptr) cfg.defense = *defense;
  // Replica-per-worker: sharding a micro-batch across more replicas than
  // worker threads only shrinks the per-call batch without adding
  // parallelism, so the fleet runs cap replicas at the thread count.
  cfg.replicas = std::min(cfg.replicas, threads);
  std::vector<int> preds(inputs.size(), -1);
  ServedRun run;
  run.threads = threads;
  run.wall_seconds = 1e30;
  serve::SloSnapshot slo;
  for (int pass = 0; pass < std::max(f.passes, 1); ++pass) {
    // Fresh engine per pass so SLO accounting covers exactly one pass;
    // virtual time makes every pass's stream (and digest) identical.
    serve::ServeEngine eng(model.clone(), cfg);
    // Request tensors are workload artifacts, not serving work: build them
    // outside the timed region and move them into submit().
    std::vector<nn::Tensor> reqs(inputs.begin(), inputs.end());
    WallTimer timer;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      eng.submit(std::move(reqs[i]),
                 [&preds, i](const serve::ServeResult& r) {
                   preds[i] = r.prediction;
                 });
    }
    eng.drain();
    run.wall_seconds = std::min(run.wall_seconds, timer.seconds());
    slo = eng.slo();
  }
  run.throughput_rps =
      static_cast<double>(inputs.size()) / std::max(run.wall_seconds, 1e-12);
  run.digest = digest_of(preds);
  run.slo = slo;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  ObsGuard obs_guard(argc, argv);
  const int cli_threads = parse_threads_flag(argc, argv);
  (void)cli_threads;
  const Flags f = parse_flags(argc, argv);

  std::printf("=== Serving engine: fleet workload %d cells x %d UEs x %d "
              "rounds, batch-max %d, %d replica(s) ===\n",
              f.cells, f.ues, f.rounds, f.batch_max, f.replicas);

  nn::Model victim = apps::make_kpm_dnn(kKpmFeatures, kKpmClasses, 17);
  const std::vector<nn::Tensor> inputs = fleet_inputs(f);
  const int n = static_cast<int>(inputs.size());

  // ---- unbatched reference: the historical per-indication path ---------
  util::set_num_threads(1);
  std::vector<int> reference(inputs.size(), -1);
  double ref_seconds = 1e30;
  for (int pass = 0; pass < std::max(f.passes, 1); ++pass) {
    WallTimer ref_timer;
    for (std::size_t i = 0; i < inputs.size(); ++i)
      reference[i] = victim.predict_one(inputs[i]);
    ref_seconds = std::min(ref_seconds, ref_timer.seconds());
  }
  const double ref_rps = static_cast<double>(n) / std::max(ref_seconds, 1e-12);
  const std::string ref_digest = digest_of(reference);
  std::printf("[unbatched] %d requests in %.4fs  (%.0f req/s)\n", n,
              ref_seconds, ref_rps);

  // ---- served runs at 1 and 4 threads ----------------------------------
  std::vector<ServedRun> served;
  for (const int threads : {1, 4}) {
    const ServedRun run = run_served(victim, f, threads, inputs, "fleet");
    std::printf("[served t=%d] %d requests in %.4fs  (%.0f req/s)  "
                "p99=%llu us  occupancy=%.1f  batches=%llu  degraded=%llu\n",
                run.threads, n, run.wall_seconds, run.throughput_rps,
                static_cast<unsigned long long>(run.slo.p99_latency_us),
                run.slo.mean_occupancy,
                static_cast<unsigned long long>(run.slo.batches),
                static_cast<unsigned long long>(run.slo.degraded_syncs));
    served.push_back(run);
  }

  bool byte_identical = true;
  for (const ServedRun& run : served)
    byte_identical = byte_identical && run.digest == ref_digest;
  double speedup = 0.0;
  for (const ServedRun& run : served)
    speedup = std::max(speedup, run.throughput_rps / ref_rps);

  // ---- attack contention: clone probes share the fleet engine ----------
  util::set_num_threads(4);
  serve::ServeEngine shared(victim.clone(), engine_config(f, "contended"));
  // Half the fleet keeps the queue warm before the attacker shows up.
  for (int i = 0; i < n / 2; ++i)
    shared.submit(nn::Tensor(inputs[static_cast<std::size_t>(i)]), nullptr);
  Rng probe_rng(0xa77ac);
  nn::Tensor probes({96, kKpmFeatures});
  for (int i = 0; i < 96; ++i)
    for (int j = 0; j < kKpmFeatures; ++j)
      probes.at2(i, j) = probe_rng.uniform(-1.0f, 1.0f);
  const data::Dataset d_clone = attack::collect_clone_dataset(shared, probes);
  const std::vector<int> direct = victim.predict(probes);
  const bool clone_match = d_clone.y == direct;
  const serve::SloSnapshot contended = shared.slo();
  std::printf("[contention] %d probes among %d fleet requests: labels %s, "
              "occupancy=%.1f\n",
              probes.dim(0), n / 2, clone_match ? "match" : "MISMATCH",
              contended.mean_occupancy);

  // ---- CNN fleet: compiled conv-chain plan vs the layer walk -----------
  nn::Model cnn = apps::make_base_cnn({1, kSpecH, kSpecW}, kSpecClasses, 29);
  const std::vector<nn::Tensor> cnn_inputs = cnn_fleet_inputs(f);
  util::set_num_threads(1);
  std::vector<int> cnn_reference(cnn_inputs.size(), -1);
  double cnn_ref_seconds = 1e30;
  for (int pass_i = 0; pass_i < std::max(f.passes, 1); ++pass_i) {
    WallTimer t;
    for (std::size_t i = 0; i < cnn_inputs.size(); ++i)
      cnn_reference[i] = cnn.predict_one(cnn_inputs[i]);
    cnn_ref_seconds = std::min(cnn_ref_seconds, t.seconds());
  }
  const double cnn_ref_rps =
      static_cast<double>(n) / std::max(cnn_ref_seconds, 1e-12);
  const std::string cnn_ref_digest = digest_of(cnn_reference);
  std::printf("[cnn walk] %d requests in %.4fs  (%.0f req/s)\n", n,
              cnn_ref_seconds, cnn_ref_rps);

  std::vector<ServedRun> cnn_served;
  for (const int threads : {1, 4}) {
    const ServedRun run = run_served(cnn, f, threads, cnn_inputs, "cnnfleet");
    std::printf("[cnn served t=%d] %d requests in %.4fs  (%.0f req/s)  "
                "occupancy=%.1f  batches=%llu\n",
                run.threads, n, run.wall_seconds, run.throughput_rps,
                run.slo.mean_occupancy,
                static_cast<unsigned long long>(run.slo.batches));
    cnn_served.push_back(run);
  }
  bool cnn_byte_identical = true;
  for (const ServedRun& run : cnn_served)
    cnn_byte_identical = cnn_byte_identical && run.digest == cnn_ref_digest;
  double cnn_speedup = 0.0;
  for (const ServedRun& run : cnn_served)
    cnn_speedup = std::max(cnn_speedup, run.throughput_rps / cnn_ref_rps);

  // ---- int8 quantized tier: accuracy gate, then throughput -------------
  // Evaluation set: the first rows of the CNN fleet, labelled with the
  // float model's own predictions (the gate measures tier *agreement*).
  // The adversarial rows pair row-for-row with the clean set: the first
  // half is per-sample FGSM, the second half a UAP applied to every row —
  // the two attack families the paper runs against the IC xApp.
  util::set_num_threads(4);
  const int qm = std::min<int>(n, 96);
  nn::Tensor q_clean({qm, 1, kSpecH, kSpecW});
  for (int i = 0; i < qm; ++i)
    q_clean.set_batch(i, cnn_inputs[static_cast<std::size_t>(i)]);
  const std::vector<int> q_labels = cnn.predict(q_clean);

  attack::Fgsm fgsm(0.08f);
  attack::UapConfig ucfg;
  ucfg.eps = 0.08f;
  ucfg.max_passes = 2;
  ucfg.target_fooling = 0.7;
  nn::Tensor uap_seed({std::min(qm, 32), 1, kSpecH, kSpecW});
  for (int i = 0; i < uap_seed.dim(0); ++i)
    uap_seed.set_batch(i, cnn_inputs[static_cast<std::size_t>(i)]);
  const attack::UapResult uap = attack::generate_uap(cnn, uap_seed, fgsm, ucfg);
  nn::Tensor q_adv({qm, 1, kSpecH, kSpecW});
  for (int i = 0; i < qm; ++i) {
    if (i < qm / 2) {
      q_adv.set_batch(i, fgsm.perturb(cnn, q_clean.slice_batch(i),
                                      q_labels[static_cast<std::size_t>(i)]));
    } else {
      nn::Tensor x = q_clean.slice_batch(i);
      for (std::size_t j = 0; j < x.numel(); ++j)
        x[j] = std::clamp(x[j] + uap.perturbation[j], 0.0f, 1.0f);
      q_adv.set_batch(i, x);
    }
  }

  serve::ServeConfig qcfg = engine_config(f, "cnnq");
  qcfg.replicas = 1;
  qcfg.quant.enable = true;
  qcfg.quant.calib_samples = 64;
  qcfg.quant.tol_clean = 0.05;
  qcfg.quant.tol_attack = 0.10;
  serve::ServeEngine qeng(cnn.clone(), qcfg);
  const serve::QuantGateReport qrep =
      qeng.activate_int8_tier(q_clean, q_labels, &q_adv);
  std::printf("[int8 gate] %s: acc %.3f->%.3f (d=%.3f)  asr %.3f->%.3f "
              "(d=%.3f)  %s\n",
              qrep.activated ? "activated" : "REFUSED", qrep.acc_float,
              qrep.acc_int8, qrep.clean_delta, qrep.asr_float, qrep.asr_int8,
              qrep.attack_delta, qrep.reason.c_str());

  double int8_rps = 0.0;
  bool int8_timed = false;
  if (qrep.activated) {
    std::vector<int> qpreds(cnn_inputs.size(), -1);
    double qsec = 1e30;
    for (int pass_i = 0; pass_i < std::max(f.passes, 1); ++pass_i) {
      std::vector<nn::Tensor> reqs(cnn_inputs.begin(), cnn_inputs.end());
      WallTimer t;
      for (std::size_t i = 0; i < reqs.size(); ++i)
        qeng.submit(std::move(reqs[i]), [&qpreds, i](
                                            const serve::ServeResult& r) {
          qpreds[i] = r.prediction;
        });
      qeng.drain();
      qsec = std::min(qsec, t.seconds());
    }
    int8_rps = static_cast<double>(n) / std::max(qsec, 1e-12);
    int8_timed = true;
    std::printf("[int8 served t=4] %d requests in %.4fs  (%.0f req/s, "
                "%.2fx float)\n",
                n, qsec, int8_rps,
                int8_rps / std::max(cnn_served.back().throughput_rps, 1e-12));
  }
  const std::uint64_t quant_rejected =
      obs::counter("serve.cnnq.quant_rejected").value();

  // --self-check: the int8 timing must run iff the gate admitted the
  // tier, and any refusal must be visible on the quant_rejected counter.
  bool self_check_ok = true;
  if (f.self_check) {
    self_check_ok = int8_timed == qrep.activated &&
                    qeng.int8_active() == qrep.activated &&
                    (qrep.activated ? quant_rejected == 0
                                    : quant_rejected > 0);
    std::printf("[self-check] int8 gate bookkeeping %s (activated=%s, "
                "timed=%s, quant_rejected=%llu)\n",
                self_check_ok ? "ok" : "VIOLATED",
                qrep.activated ? "true" : "false",
                int8_timed ? "true" : "false",
                static_cast<unsigned long long>(quant_rejected));
  }

  // ---- causal-tracing overhead: obs-off vs obs-on, same workload -------
  // kObsPairs pairs of best-of-passes runs of the KPM fleet at 4 threads,
  // span recording disabled in one run of each pair and enabled in the
  // other, the order alternating pair by pair. At the CI smoke size one
  // run is sub-millisecond, so a single pair reads the host's timing
  // noise, and the first traced run of a process also builds the causal
  // span ring; --max-obs-overhead-pct gates the median of the per-pair
  // overheads. Tracing-off must be free (the spans are simply not
  // recorded). Every run's prediction digest must match the reference —
  // the telemetry plane is observational by contract.
  constexpr int kObsPairs = 5;
  const bool causal_was_enabled = obs::causal_enabled();
  std::vector<double> obs_off_rps, obs_on_rps, obs_pair_pct;
  bool obs_digest_ok = true;
  for (int pair = 0; pair < kObsPairs; ++pair) {
    double rps[2] = {0.0, 0.0};  // [off, on]
    for (const bool on : {pair % 2 == 1, pair % 2 == 0}) {
      obs::set_causal_enabled(on);
      const ServedRun run =
          run_served(victim, f, 4, inputs, on ? "obson" : "obsoff");
      rps[on ? 1 : 0] = run.throughput_rps;
      obs_digest_ok = obs_digest_ok && run.digest == ref_digest;
    }
    obs_off_rps.push_back(rps[0]);
    obs_on_rps.push_back(rps[1]);
    obs_pair_pct.push_back((rps[0] - rps[1]) / std::max(rps[0], 1e-12) *
                           100.0);
  }
  obs::set_causal_enabled(causal_was_enabled);
  const std::uint64_t causal_spans = obs::causal_size();
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double obs_off_median = median(obs_off_rps);
  const double obs_on_median = median(obs_on_rps);
  const double obs_overhead_pct = median(obs_pair_pct);
  const bool obs_gate_ok =
      obs_digest_ok && (f.max_obs_overhead_pct <= 0.0 ||
                        obs_overhead_pct <= f.max_obs_overhead_pct);
  std::printf("[obs overhead] %d alternating pairs, medians: off=%.0f req/s  "
              "on=%.0f req/s  overhead=%.2f%% (pairs:",
              kObsPairs, obs_off_median, obs_on_median, obs_overhead_pct);
  for (const double pct : obs_pair_pct) std::printf(" %.2f", pct);
  std::printf("; gate %.2f%%)  spans=%llu  digests %s\n",
              f.max_obs_overhead_pct,
              static_cast<unsigned long long>(causal_spans),
              obs_digest_ok ? "match" : "MISMATCH");

  // ---- defense-plane overhead: inline screen cost on the KPM fleet -----
  // The same fleet rerun with the defense plane enabled but its
  // thresholds parked at infinity: every row pays the full screen
  // (distribution + norm + cost model), nothing can quarantine, so the
  // prediction digest must equal the reference byte-for-byte. The p99
  // virtual latency delta against the defense-off t=4 run is the plane's
  // deterministic overhead, gated by --max-defense-overhead-pct.
  // Detection quality is bench_defense's job, not this phase's.
  serve::DefenseConfig defense_cfg;
  defense_cfg.enable = true;
  defense_cfg.dist_threshold = 1e18;
  defense_cfg.step_threshold = 1e18;
  defense_cfg.ens_threshold = 1e18;
  const ServedRun defense_run =
      run_served(victim, f, 4, inputs, "fleetdef", &defense_cfg);
  const ServedRun& defense_base = served.back();  // defense-off t=4 run
  const double defense_overhead_pct =
      defense_base.slo.p99_latency_us == 0
          ? 0.0
          : (static_cast<double>(defense_run.slo.p99_latency_us) -
             static_cast<double>(defense_base.slo.p99_latency_us)) /
                static_cast<double>(defense_base.slo.p99_latency_us) * 100.0;
  const bool defense_digest_ok = defense_run.digest == ref_digest;
  const bool defense_gate_ok =
      defense_digest_ok &&
      (f.max_defense_overhead_pct <= 0.0 ||
       defense_overhead_pct <= f.max_defense_overhead_pct);
  std::printf("[defense overhead] off p99=%llu us  on p99=%llu us  "
              "overhead=%.2f%% (gate %.2f%%)  digest %s\n",
              static_cast<unsigned long long>(defense_base.slo.p99_latency_us),
              static_cast<unsigned long long>(defense_run.slo.p99_latency_us),
              defense_overhead_pct, f.max_defense_overhead_pct,
              defense_digest_ok ? "match" : "MISMATCH");

  const bool speedup_ok = f.min_speedup <= 0.0 || speedup >= f.min_speedup;
  const bool cnn_speedup_ok =
      f.min_cnn_speedup <= 0.0 || cnn_speedup >= f.min_cnn_speedup;
  const bool pass = byte_identical && clone_match && speedup_ok &&
                    cnn_byte_identical && cnn_speedup_ok && self_check_ok &&
                    obs_gate_ok && defense_gate_ok;

  // ---- JSON report ------------------------------------------------------
  {
    std::error_code ec;
    const std::filesystem::path out(f.report_out);
    if (out.has_parent_path())
      std::filesystem::create_directories(out.parent_path(), ec);
    std::FILE* fp = std::fopen(f.report_out.c_str(), "w");
    if (fp == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", f.report_out.c_str());
      return 2;
    }
    std::fprintf(fp, "{\n  \"schema\": \"orev-serve-bench-v2\",\n");
    std::fprintf(fp,
                 "  \"config\": {\"cells\": %d, \"ues\": %d, \"rounds\": %d, "
                 "\"requests\": %d, \"batch_max\": %d, \"deadline_us\": %llu, "
                 "\"replicas\": %d, \"queue_capacity\": %d, \"passes\": %d, "
                 "\"model\": \"%s\"},\n",
                 f.cells, f.ues, f.rounds, n, f.batch_max,
                 static_cast<unsigned long long>(f.deadline_us), f.replicas,
                 f.queue_capacity, f.passes, victim.name().c_str());
    std::fprintf(fp,
                 "  \"unbatched\": {\"wall_seconds\": %.6f, "
                 "\"throughput_rps\": %.1f, \"digest\": \"%s\"},\n",
                 ref_seconds, ref_rps, ref_digest.c_str());
    std::fprintf(fp, "  \"served\": [\n");
    for (std::size_t i = 0; i < served.size(); ++i) {
      const ServedRun& r = served[i];
      std::fprintf(
          fp,
          "    {\"threads\": %d, \"wall_seconds\": %.6f, \"throughput_rps\": "
          "%.1f, \"digest\": \"%s\", \"p50_latency_us\": %llu, "
          "\"p95_latency_us\": %llu, \"p99_latency_us\": %llu, "
          "\"p999_latency_us\": %llu, \"mean_batch_occupancy\": %.2f, "
          "\"batches\": %llu, \"deadline_misses\": %llu, \"degraded_syncs\": "
          "%llu, \"rejected\": %llu, \"max_queue_depth\": %llu, "
          "\"burn\": {\"miss_short\": %.4f, \"miss_long\": %.4f, "
          "\"avail_short\": %.4f, \"avail_long\": %.4f, \"miss_alert\": %s, "
          "\"avail_alert\": %s}}%s\n",
          r.threads, r.wall_seconds, r.throughput_rps, r.digest.c_str(),
          static_cast<unsigned long long>(r.slo.p50_latency_us),
          static_cast<unsigned long long>(r.slo.p95_latency_us),
          static_cast<unsigned long long>(r.slo.p99_latency_us),
          static_cast<unsigned long long>(r.slo.p999_latency_us),
          r.slo.mean_occupancy,
          static_cast<unsigned long long>(r.slo.batches),
          static_cast<unsigned long long>(r.slo.deadline_misses),
          static_cast<unsigned long long>(r.slo.degraded_syncs),
          static_cast<unsigned long long>(r.slo.rejected),
          static_cast<unsigned long long>(r.slo.max_queue_depth),
          r.slo.burn.miss_short, r.slo.burn.miss_long, r.slo.burn.avail_short,
          r.slo.burn.avail_long, r.slo.burn.miss_alert ? "true" : "false",
          r.slo.burn.avail_alert ? "true" : "false",
          i + 1 < served.size() ? "," : "");
    }
    std::fprintf(fp, "  ],\n");
    std::fprintf(fp,
                 "  \"attack_contention\": {\"probes\": %d, "
                 "\"fleet_requests\": %d, \"clone_labels_match\": %s, "
                 "\"completed\": %llu, \"mean_batch_occupancy\": %.2f},\n",
                 probes.dim(0), n / 2, clone_match ? "true" : "false",
                 static_cast<unsigned long long>(contended.completed),
                 contended.mean_occupancy);
    std::fprintf(fp,
                 "  \"cnn\": {\"model\": \"%s\", \"requests\": %d,\n"
                 "    \"walk\": {\"wall_seconds\": %.6f, \"throughput_rps\": "
                 "%.1f, \"digest\": \"%s\"},\n    \"served\": [\n",
                 cnn.name().c_str(), n, cnn_ref_seconds, cnn_ref_rps,
                 cnn_ref_digest.c_str());
    for (std::size_t i = 0; i < cnn_served.size(); ++i) {
      const ServedRun& r = cnn_served[i];
      std::fprintf(fp,
                   "      {\"threads\": %d, \"wall_seconds\": %.6f, "
                   "\"throughput_rps\": %.1f, \"digest\": \"%s\", "
                   "\"mean_batch_occupancy\": %.2f}%s\n",
                   r.threads, r.wall_seconds, r.throughput_rps,
                   r.digest.c_str(), r.slo.mean_occupancy,
                   i + 1 < cnn_served.size() ? "," : "");
    }
    std::fprintf(fp,
                 "    ],\n    \"byte_identical\": %s, \"speedup\": %.2f, "
                 "\"min_cnn_speedup\": %.2f},\n",
                 cnn_byte_identical ? "true" : "false", cnn_speedup,
                 f.min_cnn_speedup);
    std::fprintf(
        fp,
        "  \"int8\": {\"attempted\": %s, \"activated\": %s, "
        "\"eval_samples\": %d, \"adv_samples\": %d,\n"
        "    \"acc_float\": %.4f, \"acc_int8\": %.4f, \"clean_delta\": "
        "%.4f, \"tol_clean\": %.4f,\n"
        "    \"asr_float\": %.4f, \"asr_int8\": %.4f, \"attack_delta\": "
        "%.4f, \"tol_attack\": %.4f,\n"
        "    \"throughput_rps\": %.1f, \"quant_rejected\": %llu, "
        "\"reason\": \"%s\"},\n",
        qrep.attempted ? "true" : "false", qrep.activated ? "true" : "false",
        qrep.eval_samples, qrep.adv_samples, qrep.acc_float, qrep.acc_int8,
        qrep.clean_delta, qcfg.quant.tol_clean, qrep.asr_float, qrep.asr_int8,
        qrep.attack_delta, qcfg.quant.tol_attack, int8_rps,
        static_cast<unsigned long long>(quant_rejected),
        qrep.reason.c_str());
    std::fprintf(fp,
                 "  \"obs\": {\"pairs\": %d, \"off_rps\": %.1f, "
                 "\"on_rps\": %.1f, \"overhead_pct\": %.2f, "
                 "\"max_obs_overhead_pct\": %.2f, "
                 "\"digests_match\": %s, \"causal_spans\": %llu, "
                 "\"gate_ok\": %s},\n",
                 kObsPairs, obs_off_median, obs_on_median,
                 obs_overhead_pct, f.max_obs_overhead_pct,
                 obs_digest_ok ? "true" : "false",
                 static_cast<unsigned long long>(causal_spans),
                 obs_gate_ok ? "true" : "false");
    std::fprintf(fp,
                 "  \"defense\": {\"p99_off_us\": %llu, \"p99_on_us\": %llu, "
                 "\"overhead_pct\": %.2f, \"max_defense_overhead_pct\": "
                 "%.2f, \"digest_match\": %s, \"gate_ok\": %s},\n",
                 static_cast<unsigned long long>(
                     defense_base.slo.p99_latency_us),
                 static_cast<unsigned long long>(
                     defense_run.slo.p99_latency_us),
                 defense_overhead_pct, f.max_defense_overhead_pct,
                 defense_digest_ok ? "true" : "false",
                 defense_gate_ok ? "true" : "false");
    std::fprintf(fp,
                 "  \"byte_identical\": %s,\n  \"speedup\": %.2f,\n"
                 "  \"min_speedup\": %.2f,\n  \"pass\": %s\n}\n",
                 byte_identical ? "true" : "false", speedup, f.min_speedup,
                 pass ? "true" : "false");
    std::fclose(fp);
    std::printf("[report] wrote %s\n", f.report_out.c_str());
  }

  // ---- digest file for CI diffing ---------------------------------------
  if (!f.digests_out.empty()) {
    std::error_code ec;
    const std::filesystem::path out(f.digests_out);
    if (out.has_parent_path())
      std::filesystem::create_directories(out.parent_path(), ec);
    std::FILE* fp = std::fopen(f.digests_out.c_str(), "w");
    if (fp == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", f.digests_out.c_str());
      return 2;
    }
    std::fprintf(fp, "kpm walk %s\n", ref_digest.c_str());
    for (const ServedRun& r : served)
      std::fprintf(fp, "kpm served t=%d %s\n", r.threads, r.digest.c_str());
    std::fprintf(fp, "cnn walk %s\n", cnn_ref_digest.c_str());
    for (const ServedRun& r : cnn_served)
      std::fprintf(fp, "cnn served t=%d %s\n", r.threads, r.digest.c_str());
    std::fprintf(fp, "kpm defense t=%d %s\n", defense_run.threads,
                 defense_run.digest.c_str());
    std::fclose(fp);
    std::printf("[digests] wrote %s\n", f.digests_out.c_str());
  }

  print_rule();
  std::printf("byte_identical=%s  speedup=%.2fx (gate %.2fx)  "
              "clone_labels_match=%s\n",
              byte_identical ? "true" : "false", speedup, f.min_speedup,
              clone_match ? "true" : "false");
  std::printf("cnn_byte_identical=%s  cnn_speedup=%.2fx (gate %.2fx)  "
              "int8=%s  obs_overhead=%.2f%% (%s)  "
              "defense_overhead=%.2f%% (%s)  ->  %s\n",
              cnn_byte_identical ? "true" : "false", cnn_speedup,
              f.min_cnn_speedup,
              qrep.activated ? "activated" : "refused", obs_overhead_pct,
              obs_gate_ok ? "ok" : "GATE FAIL", defense_overhead_pct,
              defense_gate_ok ? "ok" : "GATE FAIL",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
