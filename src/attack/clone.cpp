#include "attack/clone.hpp"

#include <chrono>
#include <optional>

#include "nn/serialize.hpp"
#include "util/fault/fault.hpp"
#include "util/log.hpp"
#include "util/obs/obs.hpp"
#include "util/persist/frame.hpp"

namespace orev::attack {

namespace {

/// Frame app tag for MCA progress checkpoints.
constexpr const char* kCloneTag = "orev.clone";

std::string clone_progress_path(const std::string& dir) {
  return dir + "/clone_progress.ckpt";
}

std::string clone_candidate_path(const std::string& dir, std::size_t i) {
  return dir + "/cand_" + std::to_string(i) + ".ckpt";
}

/// Fingerprint of everything that shapes the MCA trajectory: seed, split,
/// dataset size and the candidate roster. A progress checkpoint written
/// under any other setup is rejected rather than resumed.
std::string clone_fingerprint(const data::Dataset& d_clone,
                              const std::vector<Candidate>& candidates,
                              const CloneConfig& config) {
  persist::ByteWriter w;
  w.u64(config.seed);
  w.f64(config.train_fraction);
  w.i32(d_clone.x.dim(0));
  w.i32(d_clone.num_classes);
  w.u64(candidates.size());
  for (const Candidate& c : candidates) w.str(c.name);
  return w.take();
}

}  // namespace

data::Dataset collect_clone_dataset(nn::Model& victim,
                                    const nn::Tensor& inputs) {
  OREV_CHECK(inputs.rank() >= 2 && inputs.dim(0) > 0,
             "cloning needs a non-empty batched input tensor");
  // Query budget: every row is one black-box query against the victim —
  // the quantity the paper's detectability argument (§5.3.1) is about.
  static obs::Counter& queries = obs::counter(
      "attack.clone.victim_queries", "black-box queries issued to the victim");
  queries.inc(static_cast<std::uint64_t>(inputs.dim(0)));
  data::Dataset d;
  d.x = inputs;
  d.y = victim.predict(inputs);
  d.num_classes = victim.num_classes();
  d.check();
  return d;
}

data::Dataset collect_clone_dataset(serve::ServeEngine& victim,
                                    const nn::Tensor& inputs) {
  OREV_CHECK(inputs.rank() >= 2 && inputs.dim(0) > 0,
             "cloning needs a non-empty batched input tensor");
  static obs::Counter& queries = obs::counter(
      "attack.clone.victim_queries", "black-box queries issued to the victim");
  const int n = inputs.dim(0);
  std::vector<int> labels(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    queries.inc();
    // Each probe is its own trace on the attack lane: the adversary's
    // queries show up in a causal trace interleaved with victim traffic.
    obs::TraceContext probe;
    if (obs::causal_enabled()) {
      probe = obs::causal_root(
          obs::derive_trace_id(obs::domains::kAttack,
                               static_cast<std::uint64_t>(i) + 1),
          "attack.probe", obs::lanes::kAttack, victim.virtual_now_us());
    }
    victim.submit(inputs.slice_batch(i), probe,
                  [&labels, i](const serve::ServeResult& r) {
                    labels[static_cast<std::size_t>(i)] = r.prediction;
                  });
  }
  victim.drain();
  // Shed probes carry no prediction; the attacker retries them outside
  // the queue (one extra query each) so every row ends up labelled.
  for (int i = 0; i < n; ++i) {
    if (labels[static_cast<std::size_t>(i)] >= 0) continue;
    queries.inc();
    labels[static_cast<std::size_t>(i)] =
        victim.predict_sync(inputs.slice_batch(i));
  }
  data::Dataset d;
  d.x = inputs;
  d.y = std::move(labels);
  d.num_classes = victim.model_num_classes();
  d.check();
  return d;
}

data::Dataset clone_dataset_from_observations(
    const std::vector<nn::Tensor>& inputs, const std::vector<int>& labels,
    int num_classes) {
  OREV_CHECK(!inputs.empty(), "no observations collected");
  OREV_CHECK(inputs.size() == labels.size(),
             "observation input/label count mismatch");
  nn::Shape s;
  s.push_back(static_cast<int>(inputs.size()));
  for (const int d : inputs.front().shape()) s.push_back(d);

  data::Dataset out;
  out.x = nn::Tensor(s);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    out.x.set_batch(static_cast<int>(i), inputs[i]);
  out.y = labels;
  out.num_classes = num_classes;
  out.check();
  return out;
}

CloneReport clone_model(const data::Dataset& d_clone,
                        const std::vector<Candidate>& candidates,
                        const CloneConfig& config) {
  OREV_CHECK(!candidates.empty(), "no candidate architectures");
  d_clone.check();

  // Step 2: stratified train/validation split.
  Rng rng(config.seed);
  const data::Split split =
      data::stratified_split(d_clone, config.train_fraction, rng);

  // Step 3: train every candidate with early stopping + LR scheduling.
  std::optional<nn::Model> best;
  std::string best_name;
  double best_acc = -1.0;
  std::vector<ArchScore> scores;

  static obs::Counter& trained = obs::counter(
      "attack.clone.candidates_trained", "MCA surrogate candidates trained");
  static obs::SketchMetric& train_ms = obs::sketch(
      "attack.clone.candidate_train_ms", 0.01, "per-candidate training time");

  // ----- crash-safe checkpoint / resume ---------------------------------
  const bool ckpt = !config.checkpoint_dir.empty();
  const std::string progress_path =
      ckpt ? clone_progress_path(config.checkpoint_dir) : std::string();
  const std::string fingerprint =
      ckpt ? clone_fingerprint(d_clone, candidates, config) : std::string();
  std::size_t start_i = 0;
  int best_idx = -1;

  // Commit overall progress: scores so far, which candidate runs next, and
  // the best surrogate's full state (so the winner survives even after its
  // per-candidate trainer checkpoint is gone).
  auto save_progress = [&](std::size_t next_i) {
    persist::FrameWriter fw(kCloneTag);
    fw.section("config", fingerprint);

    persist::ByteWriter prog;
    prog.u64(next_i);
    prog.i32(best_idx);
    prog.f64(best_acc);
    prog.u64(scores.size());
    for (const ArchScore& s : scores) {
      prog.str(s.name);
      prog.f64(s.cloning_accuracy);
      prog.i32(s.epochs_run);
      prog.u8(s.early_stopped ? 1 : 0);
      prog.f64(s.train_seconds);
    }
    fw.section("progress", prog.take());

    persist::ByteWriter bs;
    best->write_state(bs);
    fw.section("best", bs.take());

    const persist::Status st = fw.commit(progress_path);
    OREV_CHECK(st.ok(), "failed to commit clone progress '" + progress_path +
                            "': " + st.message());
    fault::maybe_crash(fault::sites::kCkptClone);
  };

  auto load_progress = [&]() -> persist::Status {
    using persist::Status;
    using persist::StatusCode;
    persist::FrameReader fr;
    Status st = persist::FrameReader::load(progress_path, kCloneTag, fr);
    if (!st.ok()) return st;

    std::string_view sec;
    st = fr.section("config", sec);
    if (!st.ok()) return st;
    if (sec != fingerprint)
      return Status::Fail(StatusCode::kMismatch,
                          "clone progress checkpoint was written under a "
                          "different dataset, candidate roster or config");

    st = fr.section("progress", sec);
    if (!st.ok()) return st;
    std::uint64_t next_i = 0, cnt = 0;
    std::int32_t bidx = -1;
    double bacc = -1.0;
    std::vector<ArchScore> saved;
    {
      persist::ByteReader r(sec);
      if (!r.u64(next_i) || !r.i32(bidx) || !r.f64(bacc) || !r.u64(cnt))
        return Status::Fail(StatusCode::kTruncated, "clone progress truncated");
      if (next_i > candidates.size() || cnt != next_i ||
          bidx < 0 || static_cast<std::uint64_t>(bidx) >= next_i)
        return Status::Fail(StatusCode::kBadValue,
                            "clone progress counters out of range");
      saved.resize(static_cast<std::size_t>(cnt));
      for (ArchScore& s : saved) {
        std::uint8_t early = 0;
        if (!r.str(s.name) || !r.f64(s.cloning_accuracy) ||
            !r.i32(s.epochs_run) || !r.u8(early) || !r.f64(s.train_seconds))
          return Status::Fail(StatusCode::kTruncated,
                              "clone score record truncated");
        s.early_stopped = early != 0;
      }
      st = r.finish("clone progress");
      if (!st.ok()) return st;
    }

    // Rebuild the best surrogate from its (deterministic) factory and
    // overwrite every parameter and state byte from the checkpoint.
    nn::Model rebuilt = candidates[static_cast<std::size_t>(bidx)].factory(
        config.seed + static_cast<std::uint64_t>(bidx) + 1);
    st = fr.section("best", sec);
    if (!st.ok()) return st;
    {
      persist::ByteReader r(sec);
      st = rebuilt.read_state(r);
      if (!st.ok()) return st;
      st = r.finish("best surrogate state");
      if (!st.ok()) return st;
    }

    start_i = static_cast<std::size_t>(next_i);
    best_idx = bidx;
    best_acc = bacc;
    best.emplace(std::move(rebuilt));
    best_name = candidates[static_cast<std::size_t>(bidx)].name;
    scores = std::move(saved);
    return Status::Ok();
  };

  if (ckpt && persist::file_exists(progress_path)) {
    const persist::Status st = load_progress();
    OREV_CHECK(st.ok(), "cannot resume clone progress '" + progress_path +
                            "': " + st.message());
    log_info("resumed MCA from '", progress_path, "' at candidate ", start_i,
             "/", candidates.size());
  }
  // ----------------------------------------------------------------------

  for (std::size_t i = start_i; i < candidates.size(); ++i) {
    const Candidate& cand = candidates[i];
    OREV_TRACE_SPAN_CAT("clone.candidate", "attack");
    nn::Model model = cand.factory(config.seed + i + 1);
    nn::TrainConfig tc = config.train;
    if (ckpt) tc.checkpoint_path = clone_candidate_path(config.checkpoint_dir, i);
    nn::Trainer trainer(tc);
    const auto t0 = std::chrono::steady_clock::now();
    const nn::TrainReport report = trainer.fit(
        model, split.train.x, split.train.y, split.test.x, split.test.y);
    const auto t1 = std::chrono::steady_clock::now();
    trained.inc();
    train_ms.observe(
        std::chrono::duration<double, std::milli>(t1 - t0).count());

    ArchScore score;
    score.name = cand.name;
    score.cloning_accuracy = report.best_val_accuracy;
    score.epochs_run = report.epochs_run;
    score.early_stopped = report.early_stopped;
    score.train_seconds = std::chrono::duration<double>(t1 - t0).count();
    scores.push_back(score);
    log_info("MCA candidate ", cand.name,
             ": cloning accuracy=", score.cloning_accuracy,
             " epochs=", score.epochs_run);

    // Step 4: keep the candidate with the highest validation accuracy.
    if (report.best_val_accuracy > best_acc) {
      best_acc = report.best_val_accuracy;
      best = std::move(model);
      best_name = cand.name;
      best_idx = static_cast<int>(i);
    }

    if (ckpt) {
      // Progress now covers this candidate; its trainer checkpoint is
      // dead weight (a crash past this point resumes at candidate i+1).
      save_progress(i + 1);
      const std::string stale = clone_candidate_path(config.checkpoint_dir, i);
      const persist::Status removed = persist::remove_file(stale);
      if (!removed.ok())
        log_warn("MCA: stale candidate checkpoint left at ", stale, ": ",
                 removed.message());
    }
  }

  // Step 5: return M_c.
  CloneReport out{std::move(*best), best_name, best_acc, std::move(scores)};
  return out;
}

}  // namespace orev::attack
