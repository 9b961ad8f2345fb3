#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "nn/serialize.hpp"
#include "util/fault/fault.hpp"
#include "util/log.hpp"
#include "util/obs/obs.hpp"
#include "util/persist/frame.hpp"
#include "util/thread_pool.hpp"

namespace orev::nn {

namespace {

/// Frame app tag for trainer checkpoints.
constexpr const char* kTrainTag = "orev.train";

/// Byte-exact encoding of every config field (plus the data-set size and
/// training mode) that shapes the training trajectory. A resume refuses to
/// continue a checkpoint whose fingerprint differs: same bytes in, same
/// bytes out is only meaningful when the whole setup matches.
std::string train_fingerprint(const TrainConfig& c, int n, bool soft,
                              float temperature) {
  persist::ByteWriter w;
  w.i32(c.max_epochs);
  w.i32(c.batch_size);
  w.f32(c.learning_rate);
  w.i32(c.early_stop_patience);
  w.f32(c.min_delta);
  w.i32(c.lr_patience);
  w.f32(c.lr_gamma);
  w.f32(c.min_lr);
  w.u8(c.use_adam ? 1 : 0);
  w.f32(c.momentum);
  w.f32(c.weight_decay);
  w.u64(c.shuffle_seed);
  w.i32(n);
  w.u8(soft ? 1 : 0);
  w.f32(temperature);
  return w.take();
}

/// Global L2 norm over every parameter gradient. Read-only observation of
/// the last backward pass; deterministic (serial accumulation).
float global_grad_norm(const std::vector<Param*>& params) {
  double sq = 0.0;
  for (const Param* p : params)
    for (const float g : p->grad.data()) sq += double(g) * double(g);
  return static_cast<float>(std::sqrt(sq));
}

/// Gather rows `idx[lo, hi)` of a batched tensor into a contiguous batch.
/// Rows are disjoint copies, so the parallel fan-out is trivially
/// schedule-independent.
Tensor gather_batch(const Tensor& x, const std::vector<std::size_t>& idx,
                    std::size_t lo, std::size_t hi) {
  Shape s = x.shape();
  s[0] = static_cast<int>(hi - lo);
  Tensor out(s);
  util::parallel_for(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi), 16,
      [&](std::int64_t i) {
        out.set_batch(static_cast<int>(i - static_cast<std::int64_t>(lo)),
                      x.slice_batch(
                          static_cast<int>(idx[static_cast<std::size_t>(i)])));
      });
  return out;
}

}  // namespace

Trainer::Trainer(TrainConfig config) : config_(config) {
  OREV_CHECK(config_.max_epochs > 0, "max_epochs must be positive");
  OREV_CHECK(config_.batch_size > 0, "batch_size must be positive");
  OREV_CHECK(config_.lr_gamma > 0.0f && config_.lr_gamma < 1.0f,
             "lr_gamma must be in (0, 1)");
  OREV_CHECK(config_.checkpoint_every > 0, "checkpoint_every must be positive");
}

TrainReport Trainer::fit(Model& model, const Tensor& x_train,
                         const std::vector<int>& y_train, const Tensor& x_val,
                         const std::vector<int>& y_val,
                         const EpochCallback& on_epoch) {
  return run(model, x_train, &y_train, nullptr, 1.0f, x_val, y_val, on_epoch);
}

TrainReport Trainer::fit_soft(Model& model, const Tensor& x_train,
                              const Tensor& soft_targets, float temperature,
                              const Tensor& x_val,
                              const std::vector<int>& y_val,
                              const EpochCallback& on_epoch) {
  return run(model, x_train, nullptr, &soft_targets, temperature, x_val,
             y_val, on_epoch);
}

TrainReport Trainer::run(Model& model, const Tensor& x_train,
                         const std::vector<int>* y_train,
                         const Tensor* soft_targets, float temperature,
                         const Tensor& x_val, const std::vector<int>& y_val,
                         const EpochCallback& on_epoch) {
  const int n = x_train.dim(0);
  OREV_CHECK(n > 0, "empty training set");
  if (y_train != nullptr)
    OREV_CHECK(static_cast<int>(y_train->size()) == n, "label count mismatch");
  if (soft_targets != nullptr)
    OREV_CHECK(soft_targets->dim(0) == n, "soft target count mismatch");

  auto params = model.params();
  std::unique_ptr<Optimizer> opt;
  if (config_.use_adam) {
    opt = std::make_unique<Adam>(params, config_.learning_rate);
  } else {
    opt = std::make_unique<Sgd>(params, config_.learning_rate,
                                config_.momentum, config_.weight_decay);
  }

  Rng shuffle_rng(config_.shuffle_seed);
  std::vector<std::size_t> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);

  TrainReport report;
  report.best_val_loss = std::numeric_limits<float>::infinity();
  std::vector<Tensor> best_weights = model.weights();
  int epochs_since_best = 0;
  int epochs_since_lr_drop = 0;

  // ----- crash-safe checkpoint / resume ---------------------------------
  const std::string& ckpt_path = config_.checkpoint_path;
  const std::string fingerprint = train_fingerprint(
      config_, n, soft_targets != nullptr, temperature);
  int start_epoch = 0;
  bool finished = false;

  // Commit the complete resumable state to `ckpt_path` atomically. Called
  // only when checkpointing is enabled.
  auto save_checkpoint = [&](int next_epoch, bool fin) {
    persist::FrameWriter fw(kTrainTag);
    fw.section("config", fingerprint);

    persist::ByteWriter prog;
    prog.i32(next_epoch);
    prog.u8(fin ? 1 : 0);
    prog.i32(epochs_since_best);
    prog.i32(epochs_since_lr_drop);
    prog.u64(idx.size());
    for (const std::size_t v : idx) prog.u64(v);
    prog.str(shuffle_rng.engine_state());
    fw.section("progress", prog.take());

    persist::ByteWriter rep;
    rep.i32(report.epochs_run);
    rep.u8(report.early_stopped ? 1 : 0);
    rep.f32(report.best_val_loss);
    rep.f64(report.best_val_accuracy);
    rep.u64(report.history.size());
    for (const EpochRecord& r : report.history) {
      rep.i32(r.epoch);
      rep.f32(r.train_loss);
      rep.f32(r.val_loss);
      rep.f64(r.val_accuracy);
      rep.f32(r.learning_rate);
      rep.f32(r.grad_norm);
      rep.f64(r.epoch_seconds);
      rep.f64(r.samples_per_s);
    }
    fw.section("report", rep.take());

    persist::ByteWriter ms;
    model.write_state(ms);
    fw.section("model", ms.take());

    persist::ByteWriter os;
    opt->save_state(os);
    fw.section("opt", os.take());

    persist::ByteWriter bs;
    write_tensor_list(bs, best_weights);
    fw.section("best", bs.take());

    const persist::Status st = fw.commit(ckpt_path);
    OREV_CHECK(st.ok(), "failed to commit training checkpoint '" + ckpt_path +
                            "': " + st.message());
    // Kill-point: with the commit durably on disk, a seeded plan may now
    // simulate the process dying here (crash-recovery harness).
    fault::maybe_crash(fault::sites::kCkptTrainer);
  };

  // Restore state committed by save_checkpoint(). Every field is validated
  // before any of it is applied to the live model/optimizer.
  auto load_checkpoint = [&]() -> persist::Status {
    using persist::Status;
    using persist::StatusCode;
    persist::FrameReader fr;
    Status st = persist::FrameReader::load(ckpt_path, kTrainTag, fr);
    if (!st.ok()) return st;

    std::string_view sec;
    st = fr.section("config", sec);
    if (!st.ok()) return st;
    if (sec != fingerprint)
      return Status::Fail(StatusCode::kMismatch,
                          "training checkpoint was written under a different "
                          "config, data size or training mode");

    st = fr.section("progress", sec);
    if (!st.ok()) return st;
    {
      persist::ByteReader r(sec);
      std::int32_t ne = 0, esb = 0, eslr = 0;
      std::uint8_t fin = 0;
      std::uint64_t cnt = 0;
      if (!r.i32(ne) || !r.u8(fin) || !r.i32(esb) || !r.i32(eslr) ||
          !r.u64(cnt))
        return Status::Fail(StatusCode::kTruncated, "train progress truncated");
      if (cnt != idx.size())
        return Status::Fail(StatusCode::kMismatch,
                            "index permutation size mismatch");
      for (std::size_t& v : idx) {
        std::uint64_t u = 0;
        if (!r.u64(u))
          return Status::Fail(StatusCode::kTruncated,
                              "index permutation truncated");
        if (u >= idx.size())
          return Status::Fail(StatusCode::kBadValue,
                              "index permutation entry out of range");
        v = static_cast<std::size_t>(u);
      }
      std::string rng_state;
      if (!r.str(rng_state))
        return Status::Fail(StatusCode::kTruncated, "rng state missing");
      st = r.finish("train progress");
      if (!st.ok()) return st;
      if (ne < 0 || ne > config_.max_epochs || esb < 0 || eslr < 0)
        return Status::Fail(StatusCode::kBadValue,
                            "train progress counters out of range");
      if (!shuffle_rng.set_engine_state(rng_state))
        return Status::Fail(StatusCode::kBadValue,
                            "shuffle rng state does not parse");
      start_epoch = ne;
      finished = fin != 0;
      epochs_since_best = esb;
      epochs_since_lr_drop = eslr;
    }

    st = fr.section("report", sec);
    if (!st.ok()) return st;
    {
      persist::ByteReader r(sec);
      TrainReport rp;
      std::uint8_t early = 0;
      std::uint64_t cnt = 0;
      if (!r.i32(rp.epochs_run) || !r.u8(early) || !r.f32(rp.best_val_loss) ||
          !r.f64(rp.best_val_accuracy) || !r.u64(cnt))
        return Status::Fail(StatusCode::kTruncated, "train report truncated");
      if (cnt > r.remaining())
        return Status::Fail(StatusCode::kTruncated,
                            "history count implausible");
      rp.early_stopped = early != 0;
      rp.history.resize(static_cast<std::size_t>(cnt));
      for (EpochRecord& rec : rp.history) {
        if (!r.i32(rec.epoch) || !r.f32(rec.train_loss) ||
            !r.f32(rec.val_loss) || !r.f64(rec.val_accuracy) ||
            !r.f32(rec.learning_rate) || !r.f32(rec.grad_norm) ||
            !r.f64(rec.epoch_seconds) || !r.f64(rec.samples_per_s))
          return Status::Fail(StatusCode::kTruncated,
                              "history record truncated");
      }
      st = r.finish("train report");
      if (!st.ok()) return st;
      report = std::move(rp);
    }

    st = fr.section("model", sec);
    if (!st.ok()) return st;
    {
      persist::ByteReader r(sec);
      st = model.read_state(r);
      if (!st.ok()) return st;
      st = r.finish("model state");
      if (!st.ok()) return st;
    }

    st = fr.section("opt", sec);
    if (!st.ok()) return st;
    {
      persist::ByteReader r(sec);
      st = opt->load_state(r);
      if (!st.ok()) return st;
      st = r.finish("optimizer state");
      if (!st.ok()) return st;
    }

    st = fr.section("best", sec);
    if (!st.ok()) return st;
    {
      persist::ByteReader r(sec);
      std::vector<Tensor> best;
      st = read_tensor_list(r, best);
      if (!st.ok()) return st;
      st = r.finish("best weights");
      if (!st.ok()) return st;
      if (best.size() != params.size())
        return Status::Fail(StatusCode::kMismatch,
                            "best-weight count mismatch");
      for (std::size_t i = 0; i < best.size(); ++i)
        if (best[i].shape() != params[i]->value.shape())
          return Status::Fail(StatusCode::kMismatch,
                              "best-weight shape mismatch");
      best_weights = std::move(best);
    }
    return Status::Ok();
  };

  if (!ckpt_path.empty() && persist::file_exists(ckpt_path)) {
    const persist::Status st = load_checkpoint();
    OREV_CHECK(st.ok(), "cannot resume training checkpoint '" + ckpt_path +
                            "': " + st.message());
    log_info("resumed training from '", ckpt_path, "' at epoch ", start_epoch,
             finished ? " (already finished)" : "");
  }
  // ----------------------------------------------------------------------

  // Epoch-level observability. Counters/sketches are process-wide; the
  // per-epoch numbers also land in EpochRecord for the on_epoch callback.
  static obs::Counter& obs_epochs =
      obs::counter("nn.train.epochs", "training epochs completed");
  static obs::Counter& obs_samples =
      obs::counter("nn.train.samples", "training samples consumed");
  static obs::SketchMetric& obs_epoch_ms =
      obs::sketch("nn.train.epoch_ms", 0.01, "wall time per training epoch");
  static obs::Gauge& obs_loss = obs::gauge("nn.train.last_train_loss");
  static obs::Gauge& obs_grad = obs::gauge("nn.train.last_grad_norm");
  static obs::Gauge& obs_tput =
      obs::gauge("nn.train.samples_per_s", "training throughput, last epoch");
  OREV_TRACE_SPAN_CAT("train.fit", "nn");

  for (int epoch = start_epoch; !finished && epoch < config_.max_epochs;
       ++epoch) {
    OREV_TRACE_SPAN_CAT("train.epoch", "nn");
    const obs::WallTimer epoch_timer;
    shuffle_rng.shuffle(idx);

    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t lo = 0; lo < idx.size();
         lo += static_cast<std::size_t>(config_.batch_size)) {
      const std::size_t hi =
          std::min(idx.size(), lo + static_cast<std::size_t>(config_.batch_size));
      Tensor xb = gather_batch(x_train, idx, lo, hi);

      opt->zero_grad();
      Tensor logits = model.forward(xb, /*training=*/true);
      LossGrad lg;
      if (y_train != nullptr) {
        std::vector<int> yb;
        yb.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i)
          yb.push_back((*y_train)[idx[i]]);
        lg = cross_entropy_with_logits(logits, yb);
      } else {
        Shape ts = soft_targets->shape();
        ts[0] = static_cast<int>(hi - lo);
        Tensor tb(ts);
        for (std::size_t i = lo; i < hi; ++i)
          tb.set_batch(static_cast<int>(i - lo),
                       soft_targets->slice_batch(static_cast<int>(idx[i])));
        lg = soft_cross_entropy_with_logits(logits, tb, temperature);
      }
      model.backward(lg.dlogits);
      opt->step();
      epoch_loss += lg.loss;
      ++batches;
    }

    // Gradients of the final batch are still in place: snapshot their
    // global norm before validation overwrites nothing (evaluate() never
    // touches grads) — a cheap read-only divergence/vanishing signal.
    const float grad_norm = global_grad_norm(params);

    const EvalResult val = evaluate(model, x_val, y_val);
    EpochRecord rec;
    rec.epoch = epoch;
    rec.train_loss = static_cast<float>(epoch_loss / double(batches));
    rec.val_loss = val.loss;
    rec.val_accuracy = val.accuracy;
    rec.learning_rate = opt->learning_rate();
    rec.grad_norm = grad_norm;
    rec.epoch_seconds = epoch_timer.seconds();
    rec.samples_per_s =
        rec.epoch_seconds > 0.0 ? double(n) / rec.epoch_seconds : 0.0;
    report.history.push_back(rec);
    report.epochs_run = epoch + 1;

    obs_epochs.inc();
    obs_samples.inc(static_cast<std::uint64_t>(n));
    obs_epoch_ms.observe(rec.epoch_seconds * 1e3);
    obs_loss.set(rec.train_loss);
    obs_grad.set(grad_norm);
    obs_tput.set(rec.samples_per_s);

    const bool improved = val.loss < report.best_val_loss - config_.min_delta;
    if (improved) {
      report.best_val_loss = val.loss;
      report.best_val_accuracy = val.accuracy;
      best_weights = model.weights();
      epochs_since_best = 0;
      epochs_since_lr_drop = 0;
    } else {
      ++epochs_since_best;
      ++epochs_since_lr_drop;
    }
    // Track the best accuracy seen alongside the best loss: Algorithm 1
    // selects on validation accuracy, which can peak off the loss minimum.
    if (val.accuracy > report.best_val_accuracy && improved) {
      report.best_val_accuracy = val.accuracy;
    }

    log_debug("epoch ", epoch, " train_loss=", rec.train_loss,
              " val_loss=", rec.val_loss, " val_acc=", rec.val_accuracy);

    bool stop = false;
    if (on_epoch && !on_epoch(rec)) {
      stop = true;
    } else {
      if (epochs_since_lr_drop >= config_.lr_patience &&
          opt->learning_rate() * config_.lr_gamma >= config_.min_lr) {
        opt->set_learning_rate(opt->learning_rate() * config_.lr_gamma);
        epochs_since_lr_drop = 0;
      }
      if (epochs_since_best >= config_.early_stop_patience) {
        report.early_stopped = true;
        stop = true;
      }
    }

    // Commit a resumable checkpoint with the epoch fully applied — at the
    // configured cadence, and always at the last epoch so a crash between
    // training and the caller consuming the result is recoverable.
    const bool last = stop || epoch + 1 == config_.max_epochs;
    if (!ckpt_path.empty() &&
        (last || (epoch + 1) % config_.checkpoint_every == 0)) {
      save_checkpoint(epoch + 1, last);
    }
    if (stop) break;
  }

  model.set_weights(best_weights);
  // Recompute the report's accuracy from the restored weights so callers
  // see the accuracy of the model they actually get back.
  const EvalResult final_val = evaluate(model, x_val, y_val);
  report.best_val_loss = final_val.loss;
  report.best_val_accuracy = final_val.accuracy;
  return report;
}

EvalResult evaluate(Model& model, const Tensor& x, const std::vector<int>& y,
                    int batch_size) {
  const int n = x.dim(0);
  OREV_CHECK(static_cast<int>(y.size()) == n, "evaluate label count mismatch");
  OREV_CHECK(n > 0, "evaluate on empty set");

  // Replica-parallel over mini-batches. Each batch task fills its own
  // slot; the scalar stats are then combined in ascending batch order on
  // the calling thread, so the result is bit-identical to the serial
  // accumulation at any thread count.
  struct BatchStat {
    double loss = 0.0;
    int correct = 0;
  };
  const int nbatches = (n + batch_size - 1) / batch_size;
  std::vector<BatchStat> stats(static_cast<std::size_t>(nbatches));
  util::parallel_for_ctx(
      0, nbatches, 1, [&] { return model.clone(); },
      [&](Model& m, std::int64_t b) {
        const int lo = static_cast<int>(b) * batch_size;
        const int hi = std::min(n, lo + batch_size);
        Shape s = x.shape();
        s[0] = hi - lo;
        Tensor xb(s);
        std::vector<int> yb;
        yb.reserve(static_cast<std::size_t>(hi - lo));
        for (int i = lo; i < hi; ++i) {
          xb.set_batch(i - lo, x.slice_batch(i));
          yb.push_back(y[static_cast<std::size_t>(i)]);
        }
        Tensor logits = m.forward(xb, /*training=*/false);
        const LossGrad lg = cross_entropy_with_logits(logits, yb);
        BatchStat& st = stats[static_cast<std::size_t>(b)];
        st.loss = double(lg.loss) * (hi - lo);
        const int c = logits.dim(1);
        for (int i = 0; i < hi - lo; ++i)
          if (argmax_row(logits.raw() + static_cast<std::size_t>(i) * c, c) ==
              yb[static_cast<std::size_t>(i)])
            ++st.correct;
      });

  double loss = 0.0;
  int correct = 0;
  for (const BatchStat& st : stats) {
    loss += st.loss;
    correct += st.correct;
  }
  EvalResult out;
  out.loss = static_cast<float>(loss / n);
  out.accuracy = static_cast<double>(correct) / n;
  return out;
}

}  // namespace orev::nn
