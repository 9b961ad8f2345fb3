// Serving-engine tests (DESIGN.md §11): bounded-queue backpressure with
// exact seeded reject counts, micro-batcher flush triggers, byte-identical
// predictions across thread counts and against the unbatched path, the
// fault-plan integration (injected deadline-miss → synchronous fallback,
// injected admission shed), checkpoint/restore of the SLO counters, and
// the nn::Model inference-only guard that makes batched == per-sample
// bit-exact even for BatchNorm/Dropout networks.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>
#include <string>
#include <utility>
#include <vector>

#include "apps/ic_xapp.hpp"
#include "apps/model_zoo.hpp"
#include "attack/clone.hpp"
#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "oran/near_rt_ric.hpp"
#include "serve/serve.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/fault/circuit_breaker.hpp"
#include "util/fault/fault.hpp"
#include "util/obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace orev {
namespace {

using serve::ServeConfig;
using serve::ServeEngine;
using serve::ServeResult;
using serve::ServeStatus;

class ThreadGuard {
 public:
  ThreadGuard() : saved_(util::num_threads()) {}
  ~ThreadGuard() { util::set_num_threads(saved_); }

 private:
  int saved_;
};

/// KPM-style victim: dense [64, 32, 16] DNN over 4 features.
nn::Model kpm_model(std::uint64_t seed = 17) {
  return apps::make_kpm_dnn(/*num_features=*/4, /*num_classes=*/4, seed);
}

/// Deterministic stream of single-sample [4] feature vectors.
std::vector<nn::Tensor> kpm_inputs(int n, std::uint64_t seed = 0xfeed) {
  Rng rng(seed);
  std::vector<nn::Tensor> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    nn::Tensor t({4});
    for (std::size_t j = 0; j < 4; ++j) t[j] = rng.uniform(-1.0f, 1.0f);
    out.push_back(std::move(t));
  }
  return out;
}

nn::Tensor single_request(float v = 0.25f) {
  return nn::Tensor({4}, {v, -v, v * 2.0f, 0.5f});
}

/// Submit every input, drain, and return the results in submit order.
std::vector<ServeResult> run_workload(ServeEngine& eng,
                                      const std::vector<nn::Tensor>& inputs) {
  std::vector<ServeResult> results(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    eng.submit(nn::Tensor(inputs[i]),
               [&results, i](const ServeResult& r) { results[i] = r; });
  }
  eng.drain();
  return results;
}

// ---------------------------------------------------------------- queue --

TEST(ServeQueue, RejectsBeyondCapacityWithoutConsumingTheRequest) {
  serve::BoundedQueue q(2);
  serve::ServeRequest a;
  a.id = 1;
  a.input = single_request();
  EXPECT_TRUE(q.push(std::move(a)));
  serve::ServeRequest b;
  b.id = 2;
  EXPECT_TRUE(q.push(std::move(b)));

  serve::ServeRequest c;
  c.id = 3;
  c.input = single_request(0.5f);
  EXPECT_FALSE(q.push(std::move(c)));
  // The rejected request must still be usable by the degraded path.
  EXPECT_EQ(c.id, 3u);
  EXPECT_EQ(c.input.numel(), 4u);

  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().id, 1u);
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.max_depth(), 2u);
}

// -------------------------------------------------------------- batcher --

TEST(ServeBatcher, FlushesOnSizeOrDeadlineOnlyWhileIdle) {
  serve::MicroBatcher b(serve::BatcherConfig{/*batch_max=*/2,
                                             /*flush_wait_us=*/100});
  serve::BoundedQueue q(8);
  EXPECT_FALSE(b.should_flush(q, 0, true));  // empty

  serve::ServeRequest r;
  r.arrival_us = 10;
  q.push(std::move(r));
  EXPECT_FALSE(b.should_flush(q, 50, true));    // 1 < batch_max, window open
  EXPECT_TRUE(b.should_flush(q, 110, true));    // window expired
  EXPECT_FALSE(b.should_flush(q, 110, false));  // busy engine never flushes

  serve::ServeRequest r2;
  r2.arrival_us = 20;
  q.push(std::move(r2));
  EXPECT_TRUE(b.should_flush(q, 21, true));  // size trigger

  std::vector<serve::ServeRequest> batch;
  ASSERT_EQ(b.take_batch(q, batch), 2u);
  EXPECT_EQ(batch[0].arrival_us, 10u);  // arrival order preserved
  EXPECT_EQ(batch[1].arrival_us, 20u);
}

// --------------------------------------------------------- determinism --

TEST(ServeEngineDeterminism, ByteIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const std::vector<nn::Tensor> inputs = kpm_inputs(96);
  ServeConfig cfg;
  cfg.batch_max = 16;
  cfg.replicas = 4;

  util::set_num_threads(1);
  ServeEngine e1(kpm_model(), cfg);
  const std::vector<ServeResult> r1 = run_workload(e1, inputs);

  util::set_num_threads(4);
  ServeEngine e4(kpm_model(), cfg);
  const std::vector<ServeResult> r4 = run_workload(e4, inputs);

  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].prediction, r4[i].prediction) << "request " << i;
    EXPECT_EQ(r1[i].latency_us, r4[i].latency_us) << "request " << i;
    EXPECT_EQ(r1[i].batch_id, r4[i].batch_id) << "request " << i;
    EXPECT_EQ(r1[i].batch_size, r4[i].batch_size) << "request " << i;
  }
  const serve::SloSnapshot s1 = e1.slo(), s4 = e4.slo();
  EXPECT_EQ(s1.completed, s4.completed);
  EXPECT_EQ(s1.batches, s4.batches);
  EXPECT_EQ(s1.rejected, s4.rejected);
  EXPECT_EQ(s1.deadline_misses, s4.deadline_misses);
  EXPECT_EQ(s1.p99_latency_us, s4.p99_latency_us);
  EXPECT_DOUBLE_EQ(s1.mean_occupancy, s4.mean_occupancy);
}

TEST(ServeEngineDeterminism, BatchedMatchesUnbatchedReferencePath) {
  ThreadGuard guard;
  util::set_num_threads(2);
  const std::vector<nn::Tensor> inputs = kpm_inputs(64, 0xabc);
  ServeConfig cfg;
  cfg.batch_max = 32;
  cfg.replicas = 2;
  ServeEngine eng(kpm_model(), cfg);

  std::vector<int> reference;
  reference.reserve(inputs.size());
  for (const nn::Tensor& in : inputs) reference.push_back(eng.predict_sync(in));

  const std::vector<ServeResult> served = run_workload(eng, inputs);
  ASSERT_EQ(served.size(), reference.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].status, ServeStatus::kOk) << "request " << i;
    EXPECT_EQ(served[i].prediction, reference[i]) << "request " << i;
  }
}

TEST(ServeEngineDeterminism, ReplicaRngStreamsAreScheduleIndependent) {
  ServeConfig cfg;
  cfg.replicas = 3;
  cfg.seed = 0xbeef;
  ServeEngine eng(kpm_model(), cfg);
  const Rng base(0xbeef);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(eng.replica_rng(i).seed(), base.split(i).seed());
}

// -------------------------------------------------------- backpressure --

TEST(ServeEngineBackpressure, ExactRejectCountUnderSeededOverload) {
  // Virtual-time arithmetic (tick=1 µs per submit, queue=4, batch_max=4,
  // flush_wait=10, overhead=100 + 10/sample, 1 replica):
  //   * requests 1-4 arrive at t=1..4; the 4th fills the batch and the
  //     engine flushes at t=4, busy until 4 + 100 + 4*10 = 144;
  //   * requests 5-8 queue up (engine busy, queue capacity 4);
  //   * requests 9-60 (t=9..60 < 144) all find the queue full → 52 sheds;
  //   * drain() then serves the 4 queued requests in one final batch.
  ServeConfig cfg;
  cfg.queue_capacity = 4;
  cfg.batch_max = 4;
  cfg.tick_us = 1;
  cfg.flush_wait_us = 10;
  cfg.deadline_us = 1000000;
  cfg.batch_overhead_us = 100;
  cfg.us_per_sample = 10;
  cfg.sync_fallback = false;
  ServeEngine eng(kpm_model(), cfg);

  int rejected = 0, ok = 0;
  const std::vector<nn::Tensor> inputs = kpm_inputs(60);
  for (const nn::Tensor& in : inputs) {
    eng.submit(nn::Tensor(in), [&](const ServeResult& r) {
      if (r.status == ServeStatus::kRejected) {
        ++rejected;
        EXPECT_EQ(r.prediction, -1);
      } else {
        EXPECT_EQ(r.status, ServeStatus::kOk);
        ++ok;
      }
    });
  }
  eng.drain();

  EXPECT_EQ(rejected, 52);
  EXPECT_EQ(ok, 8);
  const serve::SloSnapshot s = eng.slo();
  EXPECT_EQ(s.rejected, 52u);
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.max_queue_depth, 4u);
}

TEST(ServeEngineBackpressure, QueueFullDegradesToSyncWhenFallbackEnabled) {
  ServeConfig cfg;
  cfg.queue_capacity = 4;
  cfg.batch_max = 4;
  cfg.tick_us = 1;
  cfg.flush_wait_us = 10;
  cfg.deadline_us = 1000000;
  cfg.batch_overhead_us = 100;
  cfg.us_per_sample = 10;
  cfg.sync_fallback = true;  // sheds become synchronous single-sample serves
  ServeEngine eng(kpm_model(), cfg);

  int degraded = 0;
  const std::vector<nn::Tensor> inputs = kpm_inputs(20);
  std::vector<int> reference;
  for (const nn::Tensor& in : inputs) reference.push_back(eng.predict_sync(in));
  std::vector<int> got(inputs.size(), -2);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    eng.submit(nn::Tensor(inputs[i]), [&, i](const ServeResult& r) {
      if (r.status == ServeStatus::kDegradedSync) ++degraded;
      got[i] = r.prediction;
    });
  }
  eng.drain();
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(eng.slo().degraded_syncs, static_cast<std::uint64_t>(degraded));
  EXPECT_EQ(eng.slo().rejected + eng.slo().completed, inputs.size());
  // Degraded or batched, every prediction matches the reference path.
  EXPECT_EQ(got, reference);
}

// --------------------------------------------------------------- fault --

TEST(ServeEngineFault, InjectedBatchDelayTriggersSyncFallback) {
  // serve.batch delay of 10 ms dwarfs the 4 ms deadline, so every batch's
  // projected completion misses and the engine serves each request through
  // the degraded synchronous path instead — same predictions, counted.
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::FaultSpec delay;
  delay.kind = fault::FaultKind::kDelay;
  delay.probability = 1.0;
  delay.delay_ms = 10.0;
  plan.sites[fault::sites::kServeBatch] = {delay};
  fault::FaultInjector fi(plan);

  ServeConfig cfg;
  cfg.batch_max = 8;
  ServeEngine eng(kpm_model(), cfg);
  eng.set_fault_injector(&fi);

  const std::vector<nn::Tensor> inputs = kpm_inputs(16);
  std::vector<int> reference;
  for (const nn::Tensor& in : inputs) reference.push_back(eng.predict_sync(in));

  const std::vector<ServeResult> results = run_workload(eng, inputs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, ServeStatus::kDegradedSync) << i;
    EXPECT_EQ(results[i].prediction, reference[i]) << i;
  }
  EXPECT_EQ(eng.slo().degraded_syncs, inputs.size());
  EXPECT_EQ(eng.slo().batched_samples, 0u);
  EXPECT_GT(fi.site_stats(fault::sites::kServeBatch).injected, 0u);
}

TEST(ServeEngineFault, InjectedAdmissionShedRejectsWithoutPrediction) {
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::FaultSpec drop;
  drop.kind = fault::FaultKind::kDrop;
  drop.probability = 1.0;
  plan.sites[fault::sites::kServeAdmit] = {drop};
  fault::FaultInjector fi(plan);

  ServeConfig cfg;
  cfg.sync_fallback = false;
  ServeEngine eng(kpm_model(), cfg);
  eng.set_fault_injector(&fi);

  int rejected = 0;
  for (int i = 0; i < 5; ++i) {
    const ServeStatus st =
        eng.submit(single_request(), [&](const ServeResult& r) {
          EXPECT_EQ(r.status, ServeStatus::kRejected);
          EXPECT_EQ(r.prediction, -1);
          ++rejected;
        });
    EXPECT_EQ(st, ServeStatus::kRejected);
  }
  EXPECT_EQ(rejected, 5);
  EXPECT_EQ(eng.slo().rejected, 5u);
  EXPECT_EQ(eng.slo().completed, 0u);
}

// ------------------------------------------------------------- persist --

TEST(ServeEnginePersist, CheckpointRoundTripsAndRejectsOtherConfigs) {
  const std::string dir = ::testing::TempDir() + "orev_serve_ckpt";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/engine.ckpt";

  ServeConfig cfg;
  cfg.batch_max = 8;
  ServeEngine eng(kpm_model(), cfg);
  run_workload(eng, kpm_inputs(24));
  const serve::SloSnapshot before = eng.slo();
  ASSERT_TRUE(eng.save_status(path).ok());

  ServeEngine fresh(kpm_model(), cfg);
  ASSERT_TRUE(fresh.load_status(path).ok());
  const serve::SloSnapshot after = fresh.slo();
  EXPECT_EQ(after.submitted, before.submitted);
  EXPECT_EQ(after.completed, before.completed);
  EXPECT_EQ(after.batches, before.batches);
  EXPECT_EQ(after.rejected, before.rejected);
  EXPECT_EQ(after.deadline_misses, before.deadline_misses);
  EXPECT_DOUBLE_EQ(after.mean_occupancy, before.mean_occupancy);
  EXPECT_EQ(fresh.virtual_now_us(), eng.virtual_now_us());

  // A config change (different batch_max) changes the fingerprint; the
  // checkpoint must be rejected, not silently resumed.
  ServeConfig other = cfg;
  other.batch_max = 16;
  ServeEngine incompatible(kpm_model(), other);
  const persist::Status st = incompatible.load_status(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code, persist::StatusCode::kMismatch);
  EXPECT_EQ(incompatible.slo().submitted, 0u);
}

TEST(ServeEnginePersist, FingerprintCoversConfigAndModelIdentity) {
  ServeConfig cfg;
  ServeEngine a(kpm_model(), cfg);
  ServeEngine b(kpm_model(), cfg);
  EXPECT_EQ(a.config_fingerprint(), b.config_fingerprint());

  ServeConfig different = cfg;
  different.deadline_us += 1;
  ServeEngine c(kpm_model(), different);
  EXPECT_NE(a.config_fingerprint(), c.config_fingerprint());
}

// ------------------------------------------------- served attack path --

TEST(ServeClone, ServedDatasetMatchesDirectVictimQueries) {
  nn::Model victim = kpm_model(23);
  Rng rng(0x77);
  nn::Tensor probes({40, 4});
  for (int i = 0; i < 40; ++i)
    for (int j = 0; j < 4; ++j) probes.at2(i, j) = rng.uniform(-1.0f, 1.0f);

  const data::Dataset direct = attack::collect_clone_dataset(victim, probes);

  ServeConfig cfg;
  cfg.batch_max = 16;
  ServeEngine eng(victim.clone(), cfg);
  const data::Dataset served = attack::collect_clone_dataset(eng, probes);

  EXPECT_EQ(served.y, direct.y);
  EXPECT_EQ(served.num_classes, direct.num_classes);
  EXPECT_EQ(std::memcmp(served.x.raw(), direct.x.raw(),
                        served.x.numel() * sizeof(float)),
            0);
}

TEST(ServeClone, ShedProbesAreRetriedSoTheDatasetIsComplete) {
  nn::Model victim = kpm_model(23);
  Rng rng(0x78);
  nn::Tensor probes({30, 4});
  for (int i = 0; i < 30; ++i)
    for (int j = 0; j < 4; ++j) probes.at2(i, j) = rng.uniform(-1.0f, 1.0f);

  // Shed every 2nd admission; the attacker retries outside the queue.
  fault::FaultPlan plan;
  plan.seed = 3;
  fault::FaultSpec drop;
  drop.kind = fault::FaultKind::kDrop;
  drop.probability = 0.5;
  plan.sites[fault::sites::kServeAdmit] = {drop};
  fault::FaultInjector fi(plan);

  ServeConfig cfg;
  cfg.sync_fallback = false;  // sheds carry no prediction → retried
  ServeEngine eng(victim.clone(), cfg);
  eng.set_fault_injector(&fi);

  const data::Dataset served = attack::collect_clone_dataset(eng, probes);
  const data::Dataset direct = attack::collect_clone_dataset(victim, probes);
  EXPECT_EQ(served.y, direct.y);  // every row labelled, labels identical
}

// ------------------------------------------------- inference-only guard --

/// A [4] → 3-class net exercising both batch-dependent layers.
nn::Model bn_dropout_model() {
  auto s = std::make_unique<nn::Sequential>();
  s->emplace<nn::Dense>(4, 8);
  s->emplace<nn::BatchNorm>(8);
  s->emplace<nn::ReLU>();
  s->emplace<nn::Dropout>(0.5f);
  s->emplace<nn::Dense>(8, 3);
  nn::Model m("BnDropoutNet", std::move(s), {4}, 3);
  Rng rng(5);
  m.init(rng);
  return m;
}

TEST(BatchedInference, SingleAndBatchedLogitsAreBitExact) {
  nn::Model m = bn_dropout_model();
  // Move the BatchNorm running stats off their initial values first, the
  // way a trained model would look.
  Rng rng(0x99);
  nn::Tensor warm({16, 4});
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 4; ++j) warm.at2(i, j) = rng.normal();
  for (int e = 0; e < 3; ++e) m.forward(warm, /*training=*/true);

  m.set_inference_only(true);
  nn::Tensor batch({6, 4});
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 4; ++j) batch.at2(i, j) = rng.normal();

  const nn::Tensor batched = m.forward(batch, /*training=*/false);
  for (int i = 0; i < 6; ++i) {
    const nn::Tensor one = m.logits_one(batch.slice_batch(i));
    for (int c = 0; c < 3; ++c) {
      const float a = batched.at2(i, c);
      const float b = one[static_cast<std::size_t>(c)];
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(float)), 0)
          << "row " << i << " class " << c;
    }
  }
}

TEST(BatchedInference, InferenceLockedModelRejectsTrainingForwards) {
  nn::Model m = bn_dropout_model();
  nn::Tensor x({2, 4});
  EXPECT_NO_THROW(m.forward(x, /*training=*/true));
  m.set_inference_only(true);
  EXPECT_THROW(m.forward(x, /*training=*/true), CheckError);
  EXPECT_NO_THROW(m.forward(x, /*training=*/false));
  // clone() carries the lock (the serving engine relies on this).
  nn::Model c = m.clone();
  EXPECT_TRUE(c.inference_only());
  EXPECT_THROW(c.forward(x, /*training=*/true), CheckError);
}

// -------------------------------------------------------- compiled plans --

/// Odd widths on purpose: 7 → 37 → 19 → 5 drives the compiled kernels
/// through their 32-wide, 16-wide and scalar remainder column paths, and
/// includes a bias-free stage and a final stage with no ReLU.
nn::Model odd_mlp() {
  auto s = std::make_unique<nn::Sequential>();
  s->emplace<nn::Dense>(7, 37);
  s->emplace<nn::ReLU>();
  s->emplace<nn::Dense>(37, 19, /*bias=*/false);
  s->emplace<nn::ReLU>();
  s->emplace<nn::Dense>(19, 5);
  nn::Model m("OddMlp", std::move(s), {7}, 5);
  Rng rng(0x0dd);
  m.init(rng);
  return m;
}

/// Compiles a locked model through compile_plan and checks, at 1 and 4
/// threads and every row count, that the plan's logits are byte-identical
/// to the layer walk and its predictions equal nn::Model::predict.
void expect_plan_matches_walk(nn::Model& m, std::uint64_t seed) {
  ThreadGuard guard;
  std::unique_ptr<serve::CompiledPlan> plan = serve::compile_plan(m);
  ASSERT_NE(plan, nullptr);
  EXPECT_STREQ(plan->kind(), "cnn");
  auto* cnn = dynamic_cast<serve::CompiledCnn*>(plan.get());
  ASSERT_NE(cnn, nullptr);
  const int f = m.input_shape()[0];
  EXPECT_EQ(plan->input_features(), f);
  EXPECT_EQ(plan->num_classes(), m.num_classes());
  Rng rng(seed);
  for (const int threads : {1, 4}) {
    util::set_num_threads(threads);
    for (const int rows : {1, 3, 32, 129}) {
      nn::Tensor batch({rows, f});
      for (std::size_t i = 0; i < batch.numel(); ++i)
        batch[i] = rng.uniform(-2.0f, 2.0f);
      const nn::Tensor walk = m.forward(batch, /*training=*/false);
      const nn::Tensor lg = cnn->logits(batch);
      ASSERT_EQ(lg.numel(), walk.numel());
      EXPECT_EQ(std::memcmp(lg.raw(), walk.raw(),
                            walk.numel() * sizeof(float)),
                0)
          << "threads=" << threads << " rows=" << rows;
      EXPECT_EQ(plan->predict_rows(batch.raw(), batch.dim(0)),
                m.predict(batch))
          << "threads=" << threads << " rows=" << rows;
    }
  }
}

TEST(CompiledPlan, PredictionsMatchLayerWalkOnOddWidths) {
  nn::Model m = odd_mlp();
  m.set_inference_only(true);
  expect_plan_matches_walk(m, 0x7e57);
}

TEST(CompiledPlan, KpmDnnMatchesLayerWalkAtServingBatchSizes) {
  nn::Model m = kpm_model();
  m.set_inference_only(true);
  expect_plan_matches_walk(m, 0x5eed);
}

TEST(CompiledPlan, UnlockedMlpIsRefusedAsNotInferenceMode) {
  nn::Model m = odd_mlp();
  ASSERT_FALSE(m.inference_only());
  nn::CompileFailure why;
  EXPECT_EQ(serve::compile_plan(m, &why), nullptr);
  EXPECT_EQ(why.code, nn::CompileError::kNotInferenceMode)
      << nn::compile_error_name(why.code);
}

TEST(CompiledPlan, RefusesNonMlpModelsSoTheEngineFallsBackToTheLayerWalk) {
  // A residual block is outside the compiler's supported set.
  auto s = std::make_unique<nn::Sequential>();
  s->emplace<nn::Dense>(4, 8);
  s->emplace<nn::ReLU>();
  s->emplace<nn::Residual>(std::make_unique<nn::Dense>(8, 8));
  s->emplace<nn::Dense>(8, 3);
  nn::Model m("ResidualNet", std::move(s), {4}, 3);
  Rng rng(5);
  m.init(rng);
  nn::Model locked = m.clone();
  locked.set_inference_only(true);
  nn::CompileFailure why;
  EXPECT_EQ(serve::compile_plan(locked, &why), nullptr);
  EXPECT_EQ(why.code, nn::CompileError::kUnsupportedLayer)
      << nn::compile_error_name(why.code) << " — " << why.detail;

  // The engine must still serve such a model, byte-identical to its own
  // unbatched reference path, through the generic layer walk — on one
  // replica and on a sharded pool.
  ThreadGuard guard;
  util::set_num_threads(4);
  const std::vector<nn::Tensor> inputs = kpm_inputs(24, 0x5117);
  for (const int replicas : {1, 4}) {
    ServeConfig cfg;
    cfg.batch_max = 8;
    cfg.replicas = replicas;
    ServeEngine eng(m.clone(), cfg);
    std::vector<int> reference;
    reference.reserve(inputs.size());
    for (const nn::Tensor& in : inputs)
      reference.push_back(eng.predict_sync(in));
    const std::vector<ServeResult> served = run_workload(eng, inputs);
    ASSERT_EQ(served.size(), reference.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].status, ServeStatus::kOk) << "request " << i;
      EXPECT_EQ(served[i].prediction, reference[i])
          << "replicas=" << replicas << " request " << i;
    }
  }
}

TEST(ServeEngine, CompletionsMustNotReenterTheEngine) {
  ServeConfig cfg;
  cfg.batch_max = 1;  // flush immediately so the completion fires in submit
  ServeEngine eng(kpm_model(), cfg);
  EXPECT_THROW(eng.submit(single_request(),
                          [&](const ServeResult&) {
                            eng.submit(single_request(), nullptr);
                          }),
               CheckError);
}

TEST(ServeEngine, AccessorsGuardAgainstAnEmptyReplicaPool) {
  ServeConfig bad;
  bad.replicas = 0;
  EXPECT_THROW(ServeEngine(kpm_model(), bad), CheckError);

  ServeEngine eng(kpm_model(), ServeConfig{});
  EXPECT_EQ(eng.model_num_classes(), 4);
  EXPECT_EQ(eng.model_input_shape(), (nn::Shape{4}));
  EXPECT_FALSE(eng.model_name().empty());
}

TEST(ServeEngine, WrongWidthRequestIsRefusedAtAdmission) {
  // A 5-wide row into a 4-feature model throws at admission, before the
  // clock, the queue or the SLO counters move — so the good row queued
  // ahead of it still completes, on one replica and on a sharded pool.
  for (const int replicas : {1, 2}) {
    ServeConfig cfg;
    cfg.batch_max = 2;
    cfg.replicas = replicas;
    ServeEngine eng(kpm_model(), cfg);
    ServeResult good;
    ASSERT_EQ(eng.submit(single_request(),
                         [&good](const ServeResult& r) { good = r; }),
              ServeStatus::kQueued);
    const std::uint64_t now = eng.virtual_now_us();
    const nn::Tensor wide({5}, 0.1f);
    EXPECT_THROW(eng.submit(nn::Tensor(wide), nullptr), CheckError);
    EXPECT_THROW(eng.submit_row(wide, 0, 0, obs::TraceContext{}, nullptr),
                 CheckError);
    EXPECT_EQ(eng.virtual_now_us(), now);
    EXPECT_EQ(eng.queue_depth(), 1u);
    eng.drain();
    EXPECT_EQ(good.status, ServeStatus::kOk) << "replicas=" << replicas;
    EXPECT_EQ(good.prediction, eng.predict_sync(single_request()));
    const serve::SloSnapshot s = eng.slo();
    EXPECT_EQ(s.submitted, 1u) << "replicas=" << replicas;
    EXPECT_EQ(s.completed, 1u) << "replicas=" << replicas;
  }
}

// ------------------------------------------------------- causal tracing --

/// Enables causal tracing for one test and restores the prior state; the
/// ring is cleared on both edges so span ids restart at 1 and no spans
/// leak between tests.
class CausalGuard {
 public:
  CausalGuard() : was_(obs::causal_enabled()) {
    obs::set_causal_enabled(true);
    obs::causal_clear();
  }
  ~CausalGuard() {
    obs::causal_clear();
    obs::set_causal_enabled(was_);
  }

 private:
  bool was_;
};

TEST(ServeTrace, ByteIdenticalCausalExportAcrossThreadCounts) {
  ThreadGuard tg;
  CausalGuard cg;
  const std::vector<nn::Tensor> inputs = kpm_inputs(40);
  std::string exported[2];
  const int thread_counts[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    util::set_num_threads(thread_counts[t]);
    obs::causal_clear();  // fresh engine + fresh ring → same ids both runs
    ServeConfig cfg;
    cfg.batch_max = 8;
    cfg.replicas = 2;
    ServeEngine eng(kpm_model(), cfg);
    run_workload(eng, inputs);  // untraced submits mint serve-lane roots
    EXPECT_GT(obs::causal_size(), 0u);
    std::string why;
    EXPECT_TRUE(obs::causal_validate(&why)) << why;
    exported[t] = obs::causal_to_chrome_json();
  }
  EXPECT_EQ(exported[0], exported[1]);
}

class TraceFakeE2Node : public oran::E2Node {
 public:
  void handle_control(const oran::E2Control& c) override {
    controls.push_back(c);
  }
  std::string node_id() const override { return "ran-1"; }
  std::vector<oran::E2Control> controls;
};

/// Minimal RIC with one fully-permissioned xApp role, mirroring the fault
/// tests' fixture.
class ServeTraceTest : public ::testing::Test {
 protected:
  ServeTraceTest()
      : op_("op", "sec"),
        svc_(&op_, &rbac_),
        ric_(&rbac_, &svc_, /*control_window_ms=*/1000.0) {
    rbac_.define_role("xapp-full",
                      {oran::Permission{"telemetry/*", true, false},
                       oran::Permission{"decisions", true, true},
                       oran::Permission{"e2/control", false, true}});
    ric_.connect_e2(&node_);
  }

  std::string onboard(const std::string& name) {
    oran::AppDescriptor d;
    d.name = name;
    d.version = "1";
    d.vendor = "v";
    d.payload = "p";
    d.requested_role = "xapp-full";
    return svc_.onboard(op_.package(d)).app_id;
  }

  /// A 4-feature KPM indication matching kpm_model()'s input shape.
  oran::E2Indication kpm4_indication(float sinr, std::uint64_t tti) {
    oran::E2Indication ind;
    ind.ran_node_id = "ran-1";
    ind.tti = tti;
    ind.kind = oran::IndicationKind::kKpm;
    ind.payload =
        nn::Tensor({4}, std::vector<float>{sinr, 1.0f - sinr, 0.3f, 0.7f});
    return ind;
  }

  oran::Rbac rbac_;
  oran::Operator op_;
  oran::OnboardingService svc_;
  oran::NearRtRic ric_;
  TraceFakeE2Node node_;
};

TEST_F(ServeTraceTest, FullRequestChainFromIndicationToControlResolves) {
  CausalGuard cg;
  auto app = std::make_shared<apps::IcXApp>(
      kpm_model(), oran::IndicationKind::kKpm, /*fixed_mcs_index=*/13);
  ASSERT_TRUE(ric_.register_xapp(app, onboard("ic"), 10));

  ServeConfig cfg;
  cfg.batch_max = 1;  // flush in submit → every chain completes per delivery
  ServeEngine eng(kpm_model(), cfg);
  app->set_serve_engine(&eng);

  for (std::uint64_t tti = 1; tti <= 4; ++tti)
    ric_.deliver_indication(kpm4_indication(0.4f, tti));
  eng.drain();
  ASSERT_EQ(node_.controls.size(), 4u);
  EXPECT_EQ(app->predictions_made(), 4u);

  // Every causal link in the export must resolve (no orphan parents, no
  // cross-trace edges) and every stage of the request chain must appear.
  std::string why;
  EXPECT_TRUE(obs::causal_validate(&why)) << why;
  const std::string json = obs::causal_to_chrome_json();
  for (const char* stage :
       {"\"name\":\"e2.indication\"", "\"name\":\"dispatch.",
        "\"name\":\"ic.classify\"", "\"name\":\"serve.admit\"",
        "\"name\":\"batch.", "\"name\":\"replica.exec\"",
        "\"name\":\"serve.complete\"", "\"name\":\"e2.control\""}) {
    EXPECT_NE(json.find(stage), std::string::npos) << "missing " << stage;
  }
}

TEST_F(ServeTraceTest, FlightRecorderFiresWhenTheBreakerOpens) {
  CausalGuard cg;
  fault::BreakerConfig bcfg;
  bcfg.failure_threshold = 2;
  bcfg.open_cooldown = 2;
  ric_.set_breaker_config(bcfg);

  class BuggyXApp : public oran::XApp {
   public:
    void on_indication(const oran::E2Indication&, oran::NearRtRic&) override {
      throw std::runtime_error("app bug");
    }
  };
  auto bad = std::make_shared<BuggyXApp>();
  const std::string id = onboard("bad");
  ASSERT_TRUE(ric_.register_xapp(bad, id, 1));

  const std::uint64_t before = obs::flight_trigger_count();
  ric_.deliver_indication(kpm4_indication(0.5f, 1));
  EXPECT_EQ(obs::flight_trigger_count(), before);  // one fault: still closed
  ric_.deliver_indication(kpm4_indication(0.5f, 2));
  EXPECT_EQ(obs::flight_trigger_count(), before + 1);
  EXPECT_EQ(ric_.breaker_state(id), fault::CircuitBreaker::State::kOpen);

  const std::string report = obs::flight_last_report();
  EXPECT_NE(report.find("breaker.open"), std::string::npos) << report;
  EXPECT_NE(report.find(id), std::string::npos) << report;
}

TEST(ServeTrace, FlightRecorderFiresWhenTheQuantGateRefuses) {
  CausalGuard cg;
  // Hairline decision margin far below the int8 rounding step: the gate's
  // clean-accuracy check must refuse the tier (see Int8Gate tests).
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Dense>(2, 2, /*bias=*/false);
  nn::Model m("FlightHairline", std::move(seq), {2}, 2);
  std::vector<nn::Tensor> w;
  w.push_back(nn::Tensor({2, 2}, {1.0f, 1.0f, 1.0f, 1.00003f}));
  m.set_weights(w);

  nn::Tensor clean({8, 2});
  for (int i = 0; i < 8; ++i) {
    const float sign = i % 2 == 0 ? 1.0f : -1.0f;
    clean.at2(i, 0) = -0.8f * sign;
    clean.at2(i, 1) = 0.05f * sign;
  }
  nn::Model ref = m.clone();
  ref.set_inference_only(true);
  const std::vector<int> labels = ref.predict(clean);

  ServeConfig cfg;
  cfg.name = "flightgate";
  cfg.quant.enable = true;
  ServeEngine eng(std::move(m), cfg);

  const std::uint64_t before = obs::flight_trigger_count();
  const serve::QuantGateReport rep = eng.activate_int8_tier(clean, labels);
  EXPECT_TRUE(rep.attempted);
  EXPECT_FALSE(rep.activated);
  EXPECT_EQ(obs::flight_trigger_count(), before + 1);
  const std::string report = obs::flight_last_report();
  EXPECT_NE(report.find("quant.refuse"), std::string::npos) << report;
  EXPECT_NE(report.find("flightgate"), std::string::npos) << report;
}

}  // namespace
}  // namespace orev
