// ServeEngine: an in-process, deterministic, batched, SLO-aware model
// serving engine for xApps, rApps and the attacker's cloning loop
// (DESIGN.md §11).
//
// Pipeline: admission (input width checked before anything moves) →
// bounded admission queue → dynamic micro-batcher (flush on batch-size or
// virtual deadline) → the flush's rows staged into one flat buffer →
// replica pool (contiguous staged row ranges, one per replica; several
// shards run across the global thread pool, disjoint writes) → completion
// callbacks. predict_rows_on() is the one place that picks a replica's
// compiled plan or its layer walk; flushes, degraded syncs and review
// passes all predict through it.
//
// Time is *virtual*: the clock advances by `tick_us` per submitted request
// (plus explicit tick()/advance_us() heartbeats), batches take
// `batch_overhead_us + us_per_sample * ceil(n / replicas)` virtual
// microseconds, and the engine is "busy" until its current batch's virtual
// completion. Queueing, backpressure, batch occupancy and deadline misses
// therefore depend only on the request stream and the config — never on
// wall clock or thread schedule — which is what makes overload and
// contention experiments reproducible from a seed.
//
// Determinism: requests leave the queue in arrival order, the batch
// decomposition is a pure function of the stream, each batch row is
// computed by an identical model replica, and rows are written disjointly.
// Combined with the row-independent NN kernels (util/thread_pool design
// rule) the served prediction stream is byte-identical to the unbatched
// per-sample path at every thread count — bench_serve asserts exactly
// this.
//
// Degraded mode (util/fault integration): queue-full admissions, failed
// batches (injected at site "serve.batch") and batches whose projected
// completion would miss a request deadline fall back to synchronous
// single-row inference on replica 0 through predict_rows_on (counted per
// request as degraded_syncs). Site "serve.admit" can shed or degrade
// admissions; with `sync_fallback` off the engine sheds instead (counted,
// no prediction).
//
// Persistence (util/persist integration): save_status() commits a framed
// checkpoint carrying the engine's config fingerprint plus its SLO
// counters; load_status() rejects a checkpoint written under any other
// serve config with kMismatch, so resumed experiments cannot silently
// continue under different queueing behaviour.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/model.hpp"
#include "serve/batcher.hpp"
#include "serve/compiled.hpp"
#include "serve/defense_plane.hpp"
#include "serve/quant.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/slo.hpp"
#include "serve/swap.hpp"
#include "util/check.hpp"
#include "util/fault/fault.hpp"
#include "util/obs/causal.hpp"
#include "util/persist/persist.hpp"
#include "util/rng.hpp"

namespace orev::serve {

struct ServeConfig {
  /// Metric prefix (serve.<name>.*) and checkpoint identity.
  std::string name = "default";
  /// Bounded admission queue capacity (backpressure threshold).
  int queue_capacity = 256;
  /// Largest micro-batch a single flush may form.
  int batch_max = 32;
  /// Per-request SLO deadline, virtual µs from admission.
  std::uint64_t deadline_us = 4000;
  /// Micro-batch window: a partial batch flushes once its oldest request
  /// has waited this long. Must be <= deadline_us.
  std::uint64_t flush_wait_us = 2000;
  /// Virtual µs the clock advances per submitted request (inter-arrival).
  std::uint64_t tick_us = 50;
  /// Virtual cost model of a batched forward: overhead + per-sample.
  std::uint64_t batch_overhead_us = 200;
  std::uint64_t us_per_sample = 20;
  /// Virtual cost of one degraded synchronous single-sample inference.
  std::uint64_t sync_us_per_sample = 220;
  /// Model replicas the batch is sharded across (clones of the template).
  int replicas = 1;
  /// Degraded mode: serve queue-full / failed-batch / would-miss requests
  /// synchronously instead of shedding them.
  bool sync_fallback = true;
  /// Base seed for the replica Rng streams (Rng(seed).split(replica)).
  std::uint64_t seed = 0x5e12e;
  /// Opt-in int8 quantized tier (serve/quant.hpp). Even when enabled the
  /// engine keeps serving float until activate_int8_tier()'s accuracy gate
  /// passes.
  QuantTierConfig quant;
  /// Opt-in inline adversarial defense plane (serve/defense_plane.hpp):
  /// screens every served row, quarantines flagged requests, and adds its
  /// deterministic virtual cost to the batch cost model.
  DefenseConfig defense;
  /// Opt-in gated hot-swap of hardened models (serve/swap.hpp). Even when
  /// enabled the current replicas keep serving until request_hot_swap()'s
  /// accuracy/ASR gate passes.
  SwapGateConfig swap;
  /// SLO objectives / burn-rate windows / sketch accuracy. Observational
  /// only — never changes queueing or batching — so it is deliberately
  /// excluded from config_fingerprint(): two engines differing only in
  /// `slo` still serve (and resume checkpoints) interchangeably.
  SloConfig slo;
};

class ServeEngine {
 public:
  /// The engine clones `model` once per replica and locks every replica in
  /// inference mode (training-mode forwards throw; see nn::Model).
  ServeEngine(nn::Model model, ServeConfig cfg);

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Submit one single-sample input. Advances the virtual clock one tick,
  /// runs admission control, and pumps due batches — so completions for
  /// *earlier* requests may fire inside this call. Returns kQueued when
  /// admitted (completion fires later), kDegradedSync when the request was
  /// shed at admission but served synchronously, kRejected when shed with
  /// no prediction. An input whose element count is not the model's input
  /// width throws CheckError before the clock, the queue or the SLO
  /// counters move (every submit overload).
  ServeStatus submit(nn::Tensor input, Completion done);

  /// Traced submit: the same pipeline, with the request's causal context
  /// carried through admission → batch → replica → completion. `ctx` is
  /// the span the admit span should parent under (e.g. an xApp's classify
  /// span); an invalid ctx under causal tracing mints a serve-rooted
  /// trace from the request id, so every request is traceable even when
  /// the caller isn't.
  ServeStatus submit(nn::Tensor input, obs::TraceContext ctx, Completion done);

  /// Flow-tagged submit: additionally names the stream the request
  /// belongs to (and its version counter) so the defense plane's
  /// perturbation-norm screen can compare against the flow's
  /// last-known-good indication. The untagged overloads submit with an
  /// empty flow key (per-flow screen skipped, other detectors still run).
  ServeStatus submit(nn::Tensor input, FlowTag flow, obs::TraceContext ctx,
                     Completion done);

  /// submit() for a caller that keeps its input buffer: the row is copied
  /// into a recycled queue slot (no allocation once the queue has cycled)
  /// and the flow is named by the defense plane's id (flow_id()). The
  /// request is otherwise served exactly as submit() would serve it.
  ServeStatus submit_row(const nn::Tensor& input, std::uint32_t flow,
                         std::uint64_t flow_version, obs::TraceContext ctx,
                         Completion done);

  /// The defense plane's id for a flow key (0 without a plane).
  std::uint32_t flow_id(std::string_view key) {
    return defense_ != nullptr ? defense_->flow_id(key) : 0;
  }

  /// Advance the virtual clock without submitting (heartbeat), then pump.
  /// Wire this to the platform's post-dispatch hook so partial batches
  /// flush during indication streams that do not submit.
  void tick() { advance_us(cfg_.tick_us); }
  void advance_us(std::uint64_t us);

  /// Flush every batch whose trigger has fired at the current clock.
  void pump();

  /// Complete every queued request regardless of triggers, advancing the
  /// clock past each batch. Call at end of workload.
  void drain();

  /// Unbatched reference path: one synchronous single-sample forward on
  /// replica 0 through nn::Model::predict_one — the reference the tests
  /// compare the served stream against. Does not touch the queue, clock,
  /// or SLO accounting.
  int predict_sync(const nn::Tensor& input);

  std::uint64_t virtual_now_us() const { return now_us_; }
  std::uint64_t busy_until_us() const { return busy_until_us_; }
  std::size_t queue_depth() const { return queue_.size(); }
  const ServeConfig& config() const { return cfg_; }
  int replicas() const { return static_cast<int>(replicas_.size()); }
  /// Identity of the served model (all replicas are clones of it). Each
  /// accessor checks the pool is non-empty (a moved-from or corrupted
  /// engine) instead of dereferencing front() into undefined behaviour.
  const std::string& model_name() const {
    OREV_CHECK(!replicas_.empty(), "serve engine has no replicas");
    return replicas_.front().name();
  }
  int model_num_classes() const {
    OREV_CHECK(!replicas_.empty(), "serve engine has no replicas");
    return replicas_.front().num_classes();
  }
  const nn::Shape& model_input_shape() const {
    OREV_CHECK(!replicas_.empty(), "serve engine has no replicas");
    return replicas_.front().input_shape();
  }

  /// The deterministic Rng stream assigned to replica `i`
  /// (Rng(cfg.seed).split(i)): schedule-independent per-replica
  /// randomness for stochastic serving extensions.
  const Rng& replica_rng(int i) const;

  SloSnapshot slo() const { return slo_.snapshot(); }

  /// Hex SHA-256 over every config field plus the model identity; two
  /// engines serve interchangeably iff their fingerprints match.
  std::string config_fingerprint() const;

  /// Framed checkpoint (app tag "orev.serve"): config fingerprint + SLO
  /// counters. load_status() rejects other configs with kMismatch and
  /// leaves the engine untouched on any failure.
  persist::Status save_status(const std::string& path) const;
  persist::Status load_status(const std::string& path);

  /// Instance fault-injector override (nullptr → process-global).
  void set_fault_injector(fault::FaultInjector* fi) { fault_ = fi; }

  /// Try to switch batched serving to the int8 quantized tier. Requires
  /// cfg.quant.enable; builds the quantized plan from replica 0 (calibrated
  /// on the first cfg.quant.calib_samples rows of `clean`) and admits it
  /// only if clean accuracy — and, when `adv` is given, the attack success
  /// rate over `adv` (rows paired with `labels`) — stay within
  /// cfg.quant tolerances of the float plan. On any refusal the float tier
  /// keeps serving and serve.<name>.quant_rejected is incremented. The
  /// verdict (also retained as quant_report()) is returned either way.
  QuantGateReport activate_int8_tier(const nn::Tensor& clean,
                                     const std::vector<int>& labels,
                                     const nn::Tensor* adv = nullptr);
  bool int8_active() const { return int8_active_; }
  const QuantGateReport& quant_report() const { return quant_report_; }

  /// The inline defense plane, or nullptr when cfg.defense.enable is off.
  /// Callers calibrate and attach the sibling through this accessor.
  DefensePlane* defense() { return defense_.get(); }
  const DefensePlane* defense() const { return defense_.get(); }

  /// Install the ensemble detector's compact sibling (shape/class-count
  /// checked against the served model). Requires an enabled defense plane.
  void attach_defense_sibling(nn::Model sibling);

  /// Completions for quarantined rows later cleared by review: fired once
  /// per released record, on the driving thread, in review (= flag) order.
  /// The handler runs under the same no-reentry rule as completions — it
  /// must not call back into the engine.
  using ReleaseHandler = std::function<void(const ReviewOutcome&)>;
  void set_release_handler(ReleaseHandler handler) {
    release_handler_ = std::move(handler);
  }

  /// Run a review pass immediately over whatever the quarantine ring
  /// holds (end-of-workload flush; no cadence or fault gate). No-op
  /// without a defense plane or with an empty ring.
  void review_quarantine_now();

  /// Try to promote `candidate` (same architecture identity as the served
  /// model — typically defense::harden()'s fine-tuned clone) into the
  /// replica pool through the swap gate (serve/swap.hpp): clean accuracy
  /// over (`clean`, `labels`) within cfg.swap.tol_clean of the current
  /// model and, when `adv` is given, attack success reduced by at least
  /// cfg.swap.min_attack_gain. Acceptance drains the queue (the swap
  /// lands on a batch boundary — no request ever straddles epochs),
  /// installs fresh replica clones + compiled plans, retires the int8
  /// tier, bumps the swap epoch, and — with cfg.swap.checkpoint_dir set —
  /// durably commits engine+defense checkpoints before consulting the
  /// "serve.swap" kill-point. Refusal (gate or injected fault) rolls back
  /// completely: current replicas keep serving, serve.<name>.swap_rejected
  /// increments, and a flight report freezes the span tail.
  SwapGateReport request_hot_swap(const nn::Model& candidate,
                                  const nn::Tensor& clean,
                                  const std::vector<int>& labels,
                                  const nn::Tensor* adv = nullptr);

  /// Crash-recovery path: reinstall a previously accepted candidate
  /// without the gate or an epoch bump, after load_status() restored the
  /// epoch counter. The caller is responsible for `candidate` being the
  /// model the interrupted swap had accepted (e.g. its own committed
  /// model checkpoint).
  void resume_hot_swap(const nn::Model& candidate);

  std::uint64_t swap_epoch() const { return swap_epoch_; }
  std::uint64_t swaps_accepted() const { return swaps_accepted_; }
  std::uint64_t swaps_rejected() const { return swaps_rejected_; }
  const SwapGateReport& swap_report() const { return swap_report_; }

 private:
  void finish(ServeRequest& r, int prediction, ServeStatus status,
              std::uint64_t completion_us, std::uint64_t batch_id,
              int batch_size, int replica, std::uint64_t flow_from);
  /// Run the defense screen over one served row (driving thread, row
  /// order); may replace the prediction with −1 / kQuarantined.
  /// `ens_score` is the row's precomputed ensemble score, if any.
  void screen_request(ServeRequest& r, int& prediction, ServeStatus& status,
                      const double* ens_score = nullptr);
  /// Virtual cost of one degraded synchronous inference (defense screen
  /// included when the plane is enabled).
  std::uint64_t sync_cost_us() const;
  /// Admission shared by submit() and submit_row(): checks `input`'s
  /// width, then `fill(r)` sets the request's input, flow and completion.
  template <class Fill>
  ServeStatus admit(const nn::Tensor& input, obs::TraceContext ctx,
                    Fill&& fill);
  /// Predict `m` contiguous rows of the model's input width on `replica`
  /// into `out`: its compiled plan when it compiled, else the layer walk
  /// over a [m, ...input_shape] tensor. The only engine code that chooses
  /// between the two; both are bit-identical to the walk.
  void predict_rows_on(int replica, const float* rows, int m, int* out);
  /// Flush the first `count` requests of batch_.
  void execute_batch(std::size_t count, FlushTrigger trigger);
  void execute_sync_fallback(std::span<ServeRequest> batch,
                             std::uint64_t start_us);
  /// One degraded synchronous inference: predict `r` alone on replica 0,
  /// screen it, and complete it at `completion_us`.
  ServeStatus serve_sync(ServeRequest& r, std::uint64_t completion_us);
  /// Cadence-gated review driver, called from pump(): consults the
  /// "defense.review" fault site (drop/transient defers the pass to the
  /// next cadence point, delay stretches it) then runs one review pass.
  void maybe_review_quarantine();
  /// One review pass: charges the deterministic virtual cost, drains the
  /// ring through DefensePlane::review_rows (re-predicting every pending
  /// record in one predict_rows_on(0, …) call), and fires the release
  /// handler for every released record.
  void run_review(std::uint64_t extra_us);
  /// Replace the replica pool with inference-locked clones of `candidate`,
  /// recompile the per-replica plans, and retire the int8 tier.
  void install_model(const nn::Model& candidate);
  /// (Re)compile compiled_ from replicas_, keeping replica 0's failure.
  void compile_replicas();

  ServeConfig cfg_;
  std::vector<nn::Model> replicas_;
  /// Per-replica compiled inference plan (CompiledCnn, for conv chains
  /// and flat Dense/ReLU stacks alike) — bit-identical to the layer walk
  /// and much faster; null when the architecture is unsupported, and
  /// predict_rows_on then walks that replica. One per replica because
  /// plans own mutable scratch. Replica 0's plan also seeds the int8
  /// quantizer.
  std::vector<std::unique_ptr<CompiledCnn>> compiled_;
  /// Elements per request input (the product of the input shape).
  int features_ = 0;
  /// Why replica 0 did not compile (kOk when it did).
  nn::CompileFailure plan_failure_;
  /// Int8 quantized tier: built and routed to only after the accuracy
  /// gate passes (activate_int8_tier). Internally sample-parallel, so the
  /// whole batch goes through this one plan when active.
  std::unique_ptr<CompiledInt8> int8_;
  bool int8_active_ = false;
  QuantGateReport quant_report_;
  /// Inline defense plane (null when disabled). Screening runs on the
  /// driving thread in row order — never inside the replica shards — so
  /// its stateful detectors see the same sequence at every thread count.
  std::unique_ptr<DefensePlane> defense_;
  ReleaseHandler release_handler_;
  /// Epoch-versioned hot-swap state: the epoch counts accepted swaps and
  /// is stamped onto quarantine records via the defense plane.
  std::uint64_t swap_epoch_ = 0;
  std::uint64_t swaps_accepted_ = 0;
  std::uint64_t swaps_rejected_ = 0;
  SwapGateReport swap_report_;
  obs::Counter& quant_rejected_;
  obs::Counter& m_swap_accepted_;
  obs::Counter& m_swap_rejected_;
  /// Every flush's rows, staged contiguously in batch order ([n,
  /// features_]); replica shards read contiguous ranges of it and write
  /// the matching ranges of preds_.
  std::vector<float> staging_;
  std::vector<int> preds_;
  // Reused per flush: the batch's requests (swapped out of the queue)
  // and its replica-shard trace contexts.
  std::vector<ServeRequest> batch_;
  std::vector<obs::TraceContext> shard_ctx_;
  std::vector<Rng> replica_rngs_;
  BoundedQueue queue_;
  MicroBatcher batcher_;
  SloStats slo_;
  fault::FaultInjector* fault_ = nullptr;

  std::uint64_t now_us_ = 0;
  std::uint64_t busy_until_us_ = 0;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t next_batch_id_ = 1;
  /// FNV-1a of cfg_.name: keeps serve-minted trace-id streams disjoint
  /// across engines in the same process.
  std::uint64_t name_hash_ = 0;
  bool in_completion_ = false;
};

}  // namespace orev::serve
