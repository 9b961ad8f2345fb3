#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/obs/flight.hpp"
#include "util/persist/bytes.hpp"
#include "util/persist/frame.hpp"
#include "util/sha256.hpp"
#include "util/thread_pool.hpp"

namespace orev::serve {

namespace {

/// Frame app tag for serve-engine checkpoints.
constexpr const char* kServeTag = "orev.serve";

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

const char* serve_status_name(ServeStatus s) {
  switch (s) {
    case ServeStatus::kQueued: return "queued";
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kDegradedSync: return "degraded-sync";
    case ServeStatus::kRejected: return "rejected";
    case ServeStatus::kQuarantined: return "quarantined";
  }
  return "unknown";
}

ServeEngine::ServeEngine(nn::Model model, ServeConfig cfg)
    : cfg_(std::move(cfg)),
      quant_rejected_(obs::counter(
          "serve." + cfg_.name + ".quant_rejected",
          "int8 tier activations refused by the accuracy gate")),
      m_swap_accepted_(obs::counter(
          "serve." + cfg_.name + ".swap_accepted",
          "hot-swaps of hardened models accepted by the gate")),
      m_swap_rejected_(obs::counter(
          "serve." + cfg_.name + ".swap_rejected",
          "hot-swap attempts refused (gate regression or injected fault)")),
      queue_(static_cast<std::size_t>(std::max(cfg_.queue_capacity, 1))),
      batcher_(BatcherConfig{cfg_.batch_max, cfg_.flush_wait_us}),
      slo_(cfg_.name, cfg_.replicas, cfg_.slo),
      name_hash_(fnv1a(cfg_.name)) {
  OREV_CHECK(cfg_.replicas >= 1, "serve engine needs >= 1 replica");
  OREV_CHECK(cfg_.flush_wait_us <= cfg_.deadline_us,
             "flush_wait_us must not exceed deadline_us");
  OREV_CHECK(cfg_.tick_us >= 1, "tick_us must be >= 1");
  const Rng base(cfg_.seed);
  replicas_.reserve(static_cast<std::size_t>(cfg_.replicas));
  replica_rngs_.reserve(static_cast<std::size_t>(cfg_.replicas));
  for (int i = 0; i < cfg_.replicas; ++i) {
    nn::Model replica = model.clone();
    replica.set_inference_only(true);
    replicas_.push_back(std::move(replica));
    replica_rngs_.push_back(base.split(static_cast<std::uint64_t>(i)));
  }
  features_ = static_cast<int>(nn::shape_numel(model.input_shape()));
  compile_replicas();
  if (cfg_.defense.enable)
    defense_ = std::make_unique<DefensePlane>(cfg_.defense, cfg_.name);
}

void ServeEngine::attach_defense_sibling(nn::Model sibling) {
  OREV_CHECK(defense_ != nullptr,
             "attach_defense_sibling needs cfg.defense.enable");
  OREV_CHECK(sibling.input_shape() == model_input_shape() &&
                 sibling.num_classes() == model_num_classes(),
             "defense sibling must match the served model's input shape "
             "and class count");
  defense_->attach_sibling(std::move(sibling));
}

void ServeEngine::screen_request(ServeRequest& r, int& prediction,
                                 ServeStatus& status,
                                 const double* ens_score) {
  if (defense_ == nullptr) return;
  const DefenseVerdict v = defense_->screen_flow(
      r.id, r.flow_id, r.flow.version, r.input, prediction, ens_score);
  r.defense_score = v.score;
  if (v.flagged) {
    prediction = -1;
    status = ServeStatus::kQuarantined;
  }
}

std::uint64_t ServeEngine::sync_cost_us() const {
  return cfg_.sync_us_per_sample +
         (defense_ != nullptr ? cfg_.defense.screen_us_per_sample : 0);
}

const Rng& ServeEngine::replica_rng(int i) const {
  OREV_CHECK(i >= 0 && i < static_cast<int>(replica_rngs_.size()),
             "replica index out of range");
  return replica_rngs_[static_cast<std::size_t>(i)];
}

int ServeEngine::predict_sync(const nn::Tensor& input) {
  return replicas_.front().predict_one(input);
}

void ServeEngine::predict_rows_on(int replica, const float* rows, int m,
                                  int* out) {
  const auto r = static_cast<std::size_t>(replica);
  if (CompiledCnn* plan = compiled_[r].get()) {
    plan->predict_rows(rows, m, out);
    return;
  }
  nn::Model& model = replicas_[r];
  nn::Shape shape{m};
  shape.insert(shape.end(), model.input_shape().begin(),
               model.input_shape().end());
  const std::size_t count = static_cast<std::size_t>(m) * features_;
  const std::vector<int> p = model.predict(
      nn::Tensor(std::move(shape), std::vector<float>(rows, rows + count)));
  std::copy(p.begin(), p.end(), out);
}

ServeStatus ServeEngine::serve_sync(ServeRequest& r,
                                    std::uint64_t completion_us) {
  int pred = -1;
  predict_rows_on(0, r.input.raw(), 1, &pred);
  ServeStatus status = ServeStatus::kDegradedSync;
  screen_request(r, pred, status);
  finish(r, pred, status, completion_us, 0, 1, 0, 0);
  return status;
}

void ServeEngine::finish(ServeRequest& r, int prediction, ServeStatus status,
                         std::uint64_t completion_us, std::uint64_t batch_id,
                         int batch_size, int replica,
                         std::uint64_t flow_from) {
  ServeResult res;
  res.status = status;
  res.prediction = prediction;
  res.request_id = r.id;
  res.batch_id = batch_id;
  res.batch_size = batch_size;
  res.replica = replica;
  res.latency_us =
      completion_us >= r.arrival_us ? completion_us - r.arrival_us : 0;
  res.deadline_missed = completion_us > r.deadline_us;
  res.defense_score = r.defense_score;
  // Completion span: child of this request's own admit span, with a flow
  // edge back to the replica span that computed the row (batched path).
  res.trace = obs::causal_child(r.trace, "serve.complete",
                                obs::lanes::kComplete, completion_us, 0,
                                flow_from);
  slo_.on_complete(res, completion_us);
  if (r.done) {
    in_completion_ = true;
    r.done(res);
    in_completion_ = false;
    // The request's slot is recycled; its completion is spent.
    r.done = nullptr;
  }
}

ServeStatus ServeEngine::submit(nn::Tensor input, Completion done) {
  return submit(std::move(input), FlowTag{}, obs::TraceContext{},
                std::move(done));
}

ServeStatus ServeEngine::submit(nn::Tensor input, obs::TraceContext ctx,
                                Completion done) {
  return submit(std::move(input), FlowTag{}, ctx, std::move(done));
}

ServeStatus ServeEngine::submit(nn::Tensor input, FlowTag flow,
                                obs::TraceContext ctx, Completion done) {
  return admit(input, ctx, [&](ServeRequest& r) {
    r.flow_id = flow_id(flow.key);
    r.flow = std::move(flow);
    r.input = std::move(input);
    r.done = std::move(done);
  });
}

ServeStatus ServeEngine::submit_row(const nn::Tensor& input, std::uint32_t flow,
                                    std::uint64_t flow_version,
                                    obs::TraceContext ctx, Completion done) {
  return admit(input, ctx, [&](ServeRequest& r) {
    r.flow_id = flow;
    r.flow.key.clear();
    r.flow.version = flow_version;
    r.input = input;  // same shape as the slot's last input: no allocation
    r.done = std::move(done);
  });
}

template <class Fill>
ServeStatus ServeEngine::admit(const nn::Tensor& input, obs::TraceContext ctx,
                               Fill&& fill) {
  OREV_CHECK(!in_completion_,
             "serve completions must not call back into the engine");
  // Every later stage stages rows of this width, so a wrong-width request
  // is refused here, before it can strand the flush it would join.
  OREV_CHECK(static_cast<int>(input.numel()) == features_,
             "serve request input does not match the model's features");
  now_us_ += cfg_.tick_us;
  slo_.on_submit(now_us_);

  // Admission fate: an injected drop/transient at "serve.admit" sheds the
  // request exactly like a full queue does.
  bool shed = false;
  if (fault::FaultInjector* fi = fault::effective(fault_)) {
    const fault::FaultDecision d = fi->decide(fault::sites::kServeAdmit);
    shed = d.kind == fault::FaultKind::kDrop ||
           d.kind == fault::FaultKind::kTransient;
  }

  // An admitted request is built in its recycled queue slot; a shed one
  // in a local request that serves or rejects it right here.
  const bool queued = !shed && !queue_.full();
  ServeRequest local;
  ServeRequest& r = queued ? queue_.push_slot() : local;
  r.id = next_request_id_++;
  r.arrival_us = now_us_;
  r.deadline_us = now_us_ + cfg_.deadline_us;
  r.defense_score = 0.0;
  fill(r);
  // Admit span: child of the caller's context when it carries one, else
  // the root of a serve-minted trace derived from the request id — so an
  // untraced submitter still yields a complete admit→batch→replica→
  // complete chain. causal_child is a no-op returning a zero context when
  // causal tracing is disabled.
  r.trace = obs::TraceContext{};
  if (obs::causal_enabled()) {
    if (!ctx.valid())
      ctx = obs::TraceContext{
          obs::derive_trace_id(obs::domains::kServe ^ name_hash_, r.id), 0,
          now_us_};
    r.trace =
        obs::causal_child(ctx, "serve.admit", obs::lanes::kAdmit, now_us_);
  }

  if (!queued) {
    if (!cfg_.sync_fallback) {
      slo_.on_reject(now_us_);
      // Shed with no prediction.
      finish(r, -1, ServeStatus::kRejected, now_us_, 0, 0, 0, 0);
      pump();
      return ServeStatus::kRejected;
    }
    // Degraded mode: synchronous single-sample inference on replica 0.
    // The defense screen still runs — a shed admission must not become a
    // fail-open side door past the plane.
    const std::uint64_t start = std::max(now_us_, busy_until_us_);
    busy_until_us_ = start + sync_cost_us();
    const ServeStatus status = serve_sync(r, busy_until_us_);
    pump();
    return status;
  }

  slo_.set_queue_depth(queue_.size());
  pump();
  return ServeStatus::kQueued;
}

void ServeEngine::advance_us(std::uint64_t us) {
  OREV_CHECK(!in_completion_,
             "serve completions must not call back into the engine");
  now_us_ += us;
  pump();
}

void ServeEngine::pump() {
  for (;;) {
    const FlushTrigger trigger =
        batcher_.flush_trigger(queue_, now_us_, now_us_ >= busy_until_us_);
    if (trigger == FlushTrigger::kNone) break;
    execute_batch(batcher_.take_batch(queue_, batch_), trigger);
  }
  // Quarantine review rides the same driving-thread cadence as screening:
  // due-ness is a pure function of the screened-row count, so the pass
  // fires at the identical stream position at every thread count.
  maybe_review_quarantine();
  slo_.set_queue_depth(queue_.size());
}

void ServeEngine::maybe_review_quarantine() {
  if (defense_ == nullptr || !defense_->review_due()) return;
  std::uint64_t extra = 0;
  if (fault::FaultInjector* fi = fault::effective(fault_)) {
    const fault::FaultDecision d = fi->decide(fault::sites::kDefenseReview);
    switch (d.kind) {
      case fault::FaultKind::kDrop:
      case fault::FaultKind::kTransient:
      case fault::FaultKind::kCrash:
        // The pass is lost, not the records: the ring is untouched and the
        // cadence restarts, so the review happens a full cadence later.
        defense_->defer_review();
        return;
      case fault::FaultKind::kDelay:
        extra = static_cast<std::uint64_t>(d.delay_ms * 1000.0);
        break;
      default:
        break;
    }
  }
  run_review(extra);
}

void ServeEngine::run_review(std::uint64_t extra_us) {
  // The pass's virtual cost is a pure function of the pending record
  // count, charged like a batch: review competes with serving for the
  // engine's virtual capacity.
  const std::size_t pending = defense_->quarantine().size();
  const std::uint64_t start = std::max(now_us_, busy_until_us_);
  busy_until_us_ = start + defense_->review_cost_us(pending) + extra_us;
  // Re-predict every pending record in one call on replica 0's float path
  // — never on the int8 tier, so review verdicts stay float-exact
  // whichever tier is serving. Admission fixed the width of every sample
  // screened here, but a loaded checkpoint may carry others: review_rows
  // refuses those before any row is read.
  const std::span<const ReviewOutcome> outcomes = defense_->review_rows(
      features_, [this](const float* rows, int m, int* preds) {
        predict_rows_on(0, rows, m, preds);
      });
  if (!release_handler_) return;
  // Released rows replay to the apps under the completion no-reentry rule.
  in_completion_ = true;
  for (const ReviewOutcome& o : outcomes)
    if (o.released) release_handler_(o);
  in_completion_ = false;
}

void ServeEngine::review_quarantine_now() {
  OREV_CHECK(!in_completion_,
             "serve completions must not call back into the engine");
  if (defense_ == nullptr || defense_->quarantine().empty()) return;
  run_review(0);
}

void ServeEngine::drain() {
  OREV_CHECK(!in_completion_,
             "serve completions must not call back into the engine");
  while (!queue_.empty()) {
    now_us_ = std::max(now_us_, busy_until_us_);
    execute_batch(batcher_.take_batch(queue_, batch_), FlushTrigger::kDrain);
  }
  slo_.set_queue_depth(0);
}

void ServeEngine::execute_sync_fallback(std::span<ServeRequest> batch,
                                        std::uint64_t start_us) {
  std::uint64_t t = start_us;
  for (ServeRequest& r : batch) {
    t += sync_cost_us();
    serve_sync(r, t);
  }
  busy_until_us_ = t;
}

void ServeEngine::execute_batch(std::size_t count, FlushTrigger trigger) {
  const std::span<ServeRequest> batch(batch_.data(), count);
  const int n = static_cast<int>(count);
  if (n == 0) return;
  const std::uint64_t start = std::max(now_us_, busy_until_us_);
  std::uint64_t cost =
      cfg_.batch_overhead_us +
      cfg_.us_per_sample *
          ceil_div(static_cast<std::uint64_t>(n),
                   static_cast<std::uint64_t>(replicas_.size()));
  // The inline defense screen's virtual cost is a pure function of the
  // batch size, charged before the would-miss projection — so enabling
  // the plane shifts p99 latency deterministically and bench_serve can
  // gate the overhead exactly.
  if (defense_ != nullptr) cost += defense_->screen_cost_us(n);

  // Batch fate: an injected delay stretches the virtual execution (and can
  // push completions past their deadlines); transient/crash/drop fails the
  // batched pass entirely.
  bool failed = false;
  if (fault::FaultInjector* fi = fault::effective(fault_)) {
    const fault::FaultDecision d = fi->decide(fault::sites::kServeBatch);
    switch (d.kind) {
      case fault::FaultKind::kDelay:
        cost += static_cast<std::uint64_t>(d.delay_ms * 1000.0);
        break;
      case fault::FaultKind::kTransient:
      case fault::FaultKind::kCrash:
      case fault::FaultKind::kDrop:
        failed = true;
        break;
      default:
        break;
    }
  }

  const std::uint64_t completion = start + cost;
  bool would_miss = false;
  for (const ServeRequest& r : batch) {
    if (completion > r.deadline_us) {
      would_miss = true;
      break;
    }
  }

  // Degraded mode: a failed batch — or one whose projected completion
  // would already miss a deadline — falls back to synchronous
  // single-sample inference (predictions stay byte-identical; only the
  // virtual cost accounting differs).
  if ((failed || would_miss) && cfg_.sync_fallback) {
    execute_sync_fallback(batch, start);
    return;
  }
  if (failed) {
    // Fallback disabled: the batch is lost; complete every request shed.
    for (ServeRequest& r : batch) {
      slo_.on_reject(completion);
      finish(r, -1, ServeStatus::kRejected, completion, 0, 0, 0, 0);
    }
    busy_until_us_ = completion;
    return;
  }

  // Row → replica shard assignment is a pure function of (n, replicas,
  // int8 tier): the int8 plan and a single shard run everything on
  // "replica 0"; more shards split the rows into contiguous ranges, each
  // computed by its own replica into a disjoint range of preds_, so the
  // stream is bit-identical at every thread count. Tracing must not
  // perturb it, so it is computed unconditionally.
  const int nshards = std::min<int>(static_cast<int>(replicas_.size()), n);
  const bool single_exec = int8_active_ || nshards == 1;
  const int rows_per_shard = single_exec ? n : (n + nshards - 1) / nshards;

  // Batch span (named after the flush trigger), parented under the first
  // request's admit span; replica spans are its children, recorded here on
  // the driving thread in shard order so the causal log stays
  // deterministic — the parallel_for workers below never touch it.
  std::vector<obs::TraceContext>& shard_ctx = shard_ctx_;
  shard_ctx.assign(static_cast<std::size_t>(nshards), obs::TraceContext{});
  if (obs::causal_enabled() && batch.front().trace.valid()) {
    const std::string batch_name =
        std::string("batch.") + flush_trigger_name(trigger);
    const obs::TraceContext batch_ctx = obs::causal_child(
        batch.front().trace, batch_name, obs::lanes::kBatch, start, cost);
    for (int s = 0; s < nshards; ++s) {
      if (s * rows_per_shard >= n) break;
      shard_ctx[static_cast<std::size_t>(s)] = obs::causal_child(
          batch_ctx, int8_active_ ? "replica.int8" : "replica.exec",
          obs::lanes::kReplicaBase + static_cast<std::uint32_t>(s), start,
          cost);
      if (single_exec) break;
    }
  }

  // Stage the flush's rows into one flat reusable buffer (admission fixed
  // their width), so every route below — and the sibling's ensemble
  // scores — reads contiguous rows instead of assembling batch tensors.
  const std::size_t f = static_cast<std::size_t>(features_);
  staging_.resize(static_cast<std::size_t>(n) * f);
  for (int i = 0; i < n; ++i)
    std::copy_n(batch[static_cast<std::size_t>(i)].input.raw(), f,
                staging_.data() + static_cast<std::size_t>(i) * f);
  preds_.resize(static_cast<std::size_t>(n));
  if (int8_active_) {
    // The int8 plan is sample-parallel internally: the whole batch goes
    // through it at once.
    const std::vector<int> p = int8_->predict_rows(staging_.data(), n);
    std::copy(p.begin(), p.end(), preds_.begin());
  } else {
    const auto run_shard = [&](std::int64_t s) {
      const int lo = static_cast<int>(s) * rows_per_shard;
      const int hi = std::min(n, lo + rows_per_shard);
      if (lo < hi)
        predict_rows_on(static_cast<int>(s),
                        staging_.data() + static_cast<std::size_t>(lo) * f,
                        hi - lo, preds_.data() + lo);
    };
    // A lone shard runs on the calling thread without waking the pool.
    if (nshards == 1)
      run_shard(0);
    else
      util::parallel_for(0, nshards, 1, run_shard);
  }
  // Ensemble scores of the whole flush from one sibling call (null: the
  // screen scores each row itself).
  const double* ens_scores =
      defense_ != nullptr
          ? defense_->batch_ensemble_scores(staging_.data(), n, features_,
                                            preds_.data())
          : nullptr;

  const std::uint64_t batch_id = next_batch_id_++;
  slo_.on_batch(n);
  for (int i = 0; i < n; ++i) {
    const int shard = std::min(i / rows_per_shard, nshards - 1);
    // Defense screening happens here — on the driving thread, in row
    // order, after the replica pool produced the predictions — so the
    // stateful detectors see an identical sequence at every thread count.
    int pred = preds_[static_cast<std::size_t>(i)];
    ServeStatus status = ServeStatus::kOk;
    screen_request(batch[static_cast<std::size_t>(i)], pred, status,
                   ens_scores != nullptr ? ens_scores + i : nullptr);
    finish(batch[static_cast<std::size_t>(i)], pred, status, completion,
           batch_id, n, shard,
           shard_ctx[static_cast<std::size_t>(shard)].span_id);
  }
  busy_until_us_ = completion;
}

QuantGateReport ServeEngine::activate_int8_tier(const nn::Tensor& clean,
                                                const std::vector<int>& labels,
                                                const nn::Tensor* adv) {
  OREV_CHECK(clean.rank() >= 2 && clean.dim(0) >= 1,
             "int8 gate needs a [m, ...input_shape] evaluation set");
  const int m = clean.dim(0);
  OREV_CHECK(static_cast<int>(labels.size()) == m,
             "int8 gate labels must pair 1:1 with the evaluation rows");
  if (adv != nullptr)
    OREV_CHECK(adv->rank() >= 2 && adv->dim(0) == m,
               "int8 gate adversarial set must pair row-for-row with the "
               "clean set");

  QuantGateReport rep;
  rep.eval_samples = m;
  rep.adv_samples = adv != nullptr ? m : 0;
  int8_active_ = false;
  int8_.reset();

  if (!cfg_.quant.enable) {
    rep.reason = "int8 tier disabled in ServeConfig";
    quant_report_ = rep;
    return rep;
  }
  rep.attempted = true;
  auto refuse = [&](const std::string& why) {
    rep.activated = false;
    rep.reason = why;
    quant_rejected_.inc();
    quant_report_ = rep;
    // Post-mortem: freeze the causal span tail at the moment of refusal.
    obs::flight_trigger("quant.refuse", cfg_.name + ": " + why);
    return rep;
  };

  // The quantizer reads replica 0's float plan stage list.
  CompiledCnn* plan = compiled_.front().get();
  if (plan == nullptr)
    return refuse(std::string("float plan not quantizable: ") +
                  nn::compile_error_name(plan_failure_.code) +
                  (plan_failure_.detail.empty() ? ""
                                                : " — " + plan_failure_.detail));

  const int calib_m = std::min(m, std::max(cfg_.quant.calib_samples, 1));
  nn::CompileFailure qwhy;
  std::unique_ptr<CompiledInt8> q =
      CompiledInt8::build(*plan, clean.raw(), calib_m, &qwhy);
  if (!q)
    return refuse(std::string("int8 build failed: ") +
                  nn::compile_error_name(qwhy.code) +
                  (qwhy.detail.empty() ? "" : " — " + qwhy.detail));

  // Gate metrics. The float plan's predictions are byte-identical to the
  // layer walk, so this compares the served tiers exactly as deployed.
  auto accuracy = [&](const std::vector<int>& preds) {
    int hits = 0;
    for (int i = 0; i < m; ++i)
      if (preds[static_cast<std::size_t>(i)] ==
          labels[static_cast<std::size_t>(i)])
        ++hits;
    return static_cast<double>(hits) / m;
  };
  rep.acc_float = accuracy(plan->predict_rows(clean.raw(), m));
  rep.acc_int8 = accuracy(q->predict_rows(clean.raw(), m));
  rep.clean_delta = std::abs(rep.acc_float - rep.acc_int8);
  if (adv != nullptr) {
    // Attack success rate: fraction of adversarial rows that flip away
    // from the true label.
    rep.asr_float = 1.0 - accuracy(plan->predict_rows(adv->raw(), m));
    rep.asr_int8 = 1.0 - accuracy(q->predict_rows(adv->raw(), m));
    rep.attack_delta = std::abs(rep.asr_float - rep.asr_int8);
  }

  if (rep.clean_delta > cfg_.quant.tol_clean)
    return refuse("clean accuracy drifted " + std::to_string(rep.clean_delta) +
                  " > tol_clean " + std::to_string(cfg_.quant.tol_clean));
  if (adv != nullptr && rep.attack_delta > cfg_.quant.tol_attack)
    return refuse("attack success rate drifted " +
                  std::to_string(rep.attack_delta) + " > tol_attack " +
                  std::to_string(cfg_.quant.tol_attack));

  int8_ = std::move(q);
  int8_active_ = true;
  rep.activated = true;
  rep.reason = "activated";
  quant_report_ = rep;
  return rep;
}

void ServeEngine::install_model(const nn::Model& candidate) {
  std::vector<nn::Model> fresh;
  fresh.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    nn::Model replica = candidate.clone();
    replica.set_inference_only(true);
    fresh.push_back(std::move(replica));
  }
  replicas_ = std::move(fresh);
  compile_replicas();
  // The int8 tier quantized the *old* weights; it must not outlive them.
  // Re-activation goes back through the accuracy gate.
  int8_active_ = false;
  int8_.reset();
}

void ServeEngine::compile_replicas() {
  // Compile each replica's inference plan where the architecture allows;
  // the batched path falls back to the generic layer walk otherwise.
  compiled_.clear();
  compiled_.reserve(replicas_.size());
  for (nn::Model& replica : replicas_) {
    CompiledCnn::CompileResult r = CompiledCnn::compile(replica);
    if (compiled_.empty()) plan_failure_ = r.failure;
    compiled_.push_back(std::move(r.plan));
  }
}

SwapGateReport ServeEngine::request_hot_swap(const nn::Model& candidate,
                                             const nn::Tensor& clean,
                                             const std::vector<int>& labels,
                                             const nn::Tensor* adv) {
  OREV_CHECK(!in_completion_,
             "serve completions must not call back into the engine");
  OREV_CHECK(clean.rank() >= 2 && clean.dim(0) >= 1,
             "swap gate needs a [m, ...input_shape] evaluation set");
  const int m = clean.dim(0);
  OREV_CHECK(static_cast<int>(labels.size()) == m,
             "swap gate labels must pair 1:1 with the evaluation rows");
  if (adv != nullptr)
    OREV_CHECK(adv->rank() >= 2 && adv->dim(0) == m,
               "swap gate adversarial set must pair row-for-row with the "
               "clean set");
  // The candidate must be the same architecture identity — hardening
  // fine-tunes a clone, it never changes shape, classes or name — so the
  // config fingerprint (and with it every checkpoint) survives the swap.
  OREV_CHECK(candidate.input_shape() == model_input_shape() &&
                 candidate.num_classes() == model_num_classes() &&
                 candidate.name() == model_name(),
             "swap candidate must match the served model's identity");

  SwapGateReport rep;
  rep.epoch = swap_epoch_;
  rep.eval_samples = m;
  rep.adv_samples = adv != nullptr ? m : 0;
  if (!cfg_.swap.enable) {
    rep.reason = "hot swap disabled in ServeConfig";
    swap_report_ = rep;
    return rep;
  }
  rep.attempted = true;
  auto refuse = [&](const std::string& why) {
    rep.accepted = false;
    rep.reason = why;
    ++swaps_rejected_;
    m_swap_rejected_.inc();
    swap_report_ = rep;
    // Rollback is implicit — nothing was installed — but the refusal is
    // an exceptional event worth a frozen span tail, like a quant refusal.
    obs::flight_trigger("serve.swap_reject", cfg_.name + ": " + why);
    return rep;
  };

  // One fault decision per attempt: drop/transient refuses the swap (the
  // operational rollback path under chaos), delay stretches the quiesce,
  // and a crash decision fires *after* the durable commit below — the
  // kill-point the recovery harness resumes from.
  fault::FaultDecision fd;
  if (fault::FaultInjector* fi = fault::effective(fault_))
    fd = fi->decide(fault::sites::kServeSwap);
  if (fd.kind == fault::FaultKind::kDrop ||
      fd.kind == fault::FaultKind::kTransient)
    return refuse("injected fault at serve.swap");

  // Gate metrics: both models evaluated through the exact layer walk
  // (replica predictions are byte-identical to it).
  auto accuracy = [&](const std::vector<int>& preds) {
    int hits = 0;
    for (int i = 0; i < m; ++i)
      if (preds[static_cast<std::size_t>(i)] ==
          labels[static_cast<std::size_t>(i)])
        ++hits;
    return static_cast<double>(hits) / m;
  };
  nn::Model probe = candidate.clone();
  probe.set_inference_only(true);
  rep.acc_current = accuracy(replicas_.front().predict(clean));
  rep.acc_candidate = accuracy(probe.predict(clean));
  rep.clean_delta = rep.acc_current - rep.acc_candidate;
  if (adv != nullptr) {
    rep.asr_current = 1.0 - accuracy(replicas_.front().predict(*adv));
    rep.asr_candidate = 1.0 - accuracy(probe.predict(*adv));
    rep.attack_delta = rep.asr_current - rep.asr_candidate;
  }

  if (rep.clean_delta > cfg_.swap.tol_clean)
    return refuse("clean accuracy regressed " +
                  std::to_string(rep.clean_delta) + " > tol_clean " +
                  std::to_string(cfg_.swap.tol_clean));
  if (adv != nullptr && rep.attack_delta < cfg_.swap.min_attack_gain)
    return refuse("attack-success reduction " +
                  std::to_string(rep.attack_delta) + " < min_attack_gain " +
                  std::to_string(cfg_.swap.min_attack_gain));

  // Accepted. Quiesce first: draining completes every admitted request
  // under the model it was admitted against, so the swap lands on a batch
  // boundary by construction and no batch ever straddles epochs.
  drain();
  if (fd.kind == fault::FaultKind::kDelay)
    busy_until_us_ = std::max(now_us_, busy_until_us_) +
                     static_cast<std::uint64_t>(fd.delay_ms * 1000.0);
  install_model(candidate);
  ++swap_epoch_;
  if (defense_ != nullptr) defense_->set_model_epoch(swap_epoch_);
  ++swaps_accepted_;
  m_swap_accepted_.inc();
  rep.accepted = true;
  rep.epoch = swap_epoch_;
  rep.reason = "accepted";
  swap_report_ = rep;

  if (!cfg_.swap.checkpoint_dir.empty()) {
    persist::Status st =
        save_status(cfg_.swap.checkpoint_dir + "/engine.ckpt");
    OREV_CHECK(st.ok(), "hot-swap engine checkpoint failed: " + st.message());
    if (defense_ != nullptr) {
      st = defense_->save_status(cfg_.swap.checkpoint_dir + "/defense.ckpt");
      OREV_CHECK(st.ok(),
                 "hot-swap defense checkpoint failed: " + st.message());
    }
  }
  // Kill-point: the swap (and its checkpoints) are durably committed; a
  // kCrash decision simulates the process dying here, the state a fresh
  // process resumes from via load_status() + resume_hot_swap().
  if (fd.kind == fault::FaultKind::kCrash) {
    obs::flight_trigger("kill_point", fault::sites::kServeSwap);
    throw fault::FaultInjectedError(fault::sites::kServeSwap);
  }
  return rep;
}

void ServeEngine::resume_hot_swap(const nn::Model& candidate) {
  OREV_CHECK(candidate.input_shape() == model_input_shape() &&
                 candidate.num_classes() == model_num_classes() &&
                 candidate.name() == model_name(),
             "swap candidate must match the served model's identity");
  // No gate, no epoch bump: load_status() already restored the epoch the
  // interrupted swap committed; this only re-materializes its replicas.
  install_model(candidate);
  if (defense_ != nullptr) defense_->set_model_epoch(swap_epoch_);
}

std::string ServeEngine::config_fingerprint() const {
  // cfg_.slo is deliberately absent: burn-rate/sketch settings are
  // observational and never change queueing behaviour, so engines
  // differing only in SLO accounting stay checkpoint-compatible.
  persist::ByteWriter w;
  w.str(cfg_.name);
  w.i32(cfg_.queue_capacity);
  w.i32(cfg_.batch_max);
  w.u64(cfg_.deadline_us);
  w.u64(cfg_.flush_wait_us);
  w.u64(cfg_.tick_us);
  w.u64(cfg_.batch_overhead_us);
  w.u64(cfg_.us_per_sample);
  w.u64(cfg_.sync_us_per_sample);
  w.i32(cfg_.replicas);
  w.u8(cfg_.sync_fallback ? 1 : 0);
  w.u64(cfg_.seed);
  w.u8(cfg_.quant.enable ? 1 : 0);
  w.i32(cfg_.quant.calib_samples);
  w.f64(cfg_.quant.tol_clean);
  w.f64(cfg_.quant.tol_attack);
  // Defense fields only when the plane is enabled: engines that never had
  // one keep their pre-defense fingerprints (and checkpoints) valid.
  if (cfg_.defense.enable) {
    w.u8(1);
    w.f64(cfg_.defense.dist_threshold);
    w.f64(cfg_.defense.step_threshold);
    w.f64(cfg_.defense.ens_threshold);
    w.u8(cfg_.defense.use_distribution ? 1 : 0);
    w.u8(cfg_.defense.use_norm_screen ? 1 : 0);
    w.u8(cfg_.defense.use_ensemble ? 1 : 0);
    w.u64(cfg_.defense.max_stale);
    w.u64(cfg_.defense.screen_overhead_us);
    w.u64(cfg_.defense.screen_us_per_sample);
    w.i32(cfg_.defense.quarantine_capacity);
    w.i32(cfg_.defense.burst_window);
    w.f64(cfg_.defense.burst_threshold);
    w.i32(cfg_.defense.finetune_capacity);
    if (cfg_.defense.adaptive.enable) {
      w.u8(2);
      w.f64(cfg_.defense.adaptive.target_quantile);
      w.f64(cfg_.defense.adaptive.margin);
      w.u64(cfg_.defense.adaptive.warmup);
      w.u64(cfg_.defense.adaptive.update_every);
      w.f64(cfg_.defense.adaptive.floor_frac);
      w.f64(cfg_.defense.adaptive.ceiling_frac);
      w.f64(cfg_.defense.adaptive.max_step_frac);
      w.f64(cfg_.defense.adaptive.hysteresis_frac);
      w.f64(cfg_.defense.adaptive.sketch_alpha);
    }
    if (cfg_.defense.review_every > 0) {
      w.u8(3);
      w.u64(cfg_.defense.review_every);
      w.f64(cfg_.defense.release_margin);
      w.u64(cfg_.defense.review_overhead_us);
      w.u64(cfg_.defense.review_us_per_record);
    }
  }
  // Like defense: swap policy enters the fingerprint only when enabled,
  // so pre-swap engines keep their fingerprints (and checkpoints) valid.
  if (cfg_.swap.enable) {
    w.u8(4);
    w.f64(cfg_.swap.tol_clean);
    w.f64(cfg_.swap.min_attack_gain);
  }
  const nn::Model& m = replicas_.front();
  w.str(m.name());
  w.i32(m.num_classes());
  for (const int d : m.input_shape()) w.i32(d);
  return Sha256::hex(w.buffer());
}

persist::Status ServeEngine::save_status(const std::string& path) const {
  persist::FrameWriter fw(kServeTag);
  fw.section("config", config_fingerprint());

  const SloSnapshot s = slo_.snapshot();
  persist::ByteWriter w;
  w.u64(s.submitted);
  w.u64(s.admitted);
  w.u64(s.rejected);
  w.u64(s.completed);
  w.u64(s.batches);
  w.u64(s.batched_samples);
  w.u64(s.degraded_syncs);
  w.u64(s.quarantined);
  w.u64(s.deadline_misses);
  w.u64(s.max_queue_depth);
  w.f64(s.mean_occupancy);
  w.u64(now_us_);
  w.u64(busy_until_us_);
  w.u64(next_request_id_);
  w.u64(next_batch_id_);
  fw.section("slo", w.take());

  persist::ByteWriter sw;
  sw.u64(swap_epoch_);
  sw.u64(swaps_accepted_);
  sw.u64(swaps_rejected_);
  fw.section("swap", sw.take());
  return fw.commit(path);
}

persist::Status ServeEngine::load_status(const std::string& path) {
  using persist::Status;
  using persist::StatusCode;
  persist::FrameReader fr;
  Status st = persist::FrameReader::load(path, kServeTag, fr);
  if (!st.ok()) return st;

  std::string_view sec;
  st = fr.section("config", sec);
  if (!st.ok()) return st;
  if (sec != config_fingerprint())
    return Status::Fail(StatusCode::kMismatch,
                        "serve checkpoint was written under a different "
                        "serve config (fingerprint differs)");

  st = fr.section("slo", sec);
  if (!st.ok()) return st;
  persist::ByteReader r(sec);
  SloSnapshot s;
  std::uint64_t now = 0, busy = 0, next_req = 0, next_batch = 0;
  if (!r.u64(s.submitted) || !r.u64(s.admitted) || !r.u64(s.rejected) ||
      !r.u64(s.completed) || !r.u64(s.batches) || !r.u64(s.batched_samples) ||
      !r.u64(s.degraded_syncs) || !r.u64(s.quarantined) ||
      !r.u64(s.deadline_misses) ||
      !r.u64(s.max_queue_depth) || !r.f64(s.mean_occupancy) || !r.u64(now) ||
      !r.u64(busy) || !r.u64(next_req) || !r.u64(next_batch))
    return Status::Fail(StatusCode::kTruncated, "serve SLO section truncated");
  st = r.finish("serve slo");
  if (!st.ok()) return st;

  st = fr.section("swap", sec);
  if (!st.ok()) return st;
  persist::ByteReader sr(sec);
  std::uint64_t epoch = 0, accepted = 0, rejected = 0;
  if (!sr.u64(epoch) || !sr.u64(accepted) || !sr.u64(rejected))
    return Status::Fail(StatusCode::kTruncated, "serve swap section truncated");
  st = sr.finish("serve swap");
  if (!st.ok()) return st;

  slo_.restore(s);
  now_us_ = now;
  busy_until_us_ = busy;
  next_request_id_ = next_req;
  next_batch_id_ = next_batch;
  swap_epoch_ = epoch;
  swaps_accepted_ = accepted;
  swaps_rejected_ = rejected;
  if (defense_ != nullptr) defense_->set_model_epoch(swap_epoch_);
  return Status::Ok();
}

}  // namespace orev::serve
