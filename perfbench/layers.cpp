#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "oran/e2_codec.hpp"
#include "serve/compiled.hpp"
#include "util/obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using orev::nn::Model;
using orev::nn::Tensor;
using orev::serve::ServeConfig;
using orev::serve::ServeEngine;

namespace {

void attach_defense(const ServeSubject& s, ServeEngine& eng) {
  if (!s.config.defense.enable) return;
  if (s.sibling != nullptr) eng.attach_defense_sibling(s.sibling->clone());
  s.calibrate(*eng.defense());
}

/// Wall seconds to serve every row through a fresh engine (defense off:
/// this isolates the replica sharding).
double serve_wall_s(const ServeSubject& s, int replicas, int threads) {
  const int saved = orev::util::num_threads();
  orev::util::set_num_threads(threads);
  ServeConfig cfg = s.config;
  cfg.name = "replay_t" + std::to_string(threads);
  cfg.replicas = replicas;
  cfg.defense.enable = false;
  ServeEngine eng(s.model->clone(), cfg);
  std::vector<Tensor> inputs;
  inputs.reserve(s.rows->size());
  for (const Row& row : *s.rows)
    inputs.emplace_back(s.model->input_shape(), row.x);
  const std::uint64_t t0 = now_ns();
  for (Tensor& x : inputs)
    eng.submit(std::move(x), [](const orev::serve::ServeResult&) {});
  eng.drain();
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  orev::util::set_num_threads(saved);
  return wall;
}

}  // namespace

double median_call_us(const std::function<void()>& fn, double min_s) {
  std::vector<double> us;
  const std::uint64_t until =
      now_ns() + static_cast<std::uint64_t>(min_s * 1e9);
  do {
    const std::uint64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  } while (now_ns() < until || us.size() < 5);
  return median(us);
}

std::vector<float> stage_rows(const std::vector<Row>& rows, int n) {
  std::vector<float> flat;
  for (int i = 0; i < n; ++i) {
    const std::vector<float>& x =
        rows[static_cast<std::size_t>(i) % rows.size()].x;
    flat.insert(flat.end(), x.begin(), x.end());
  }
  return flat;
}

namespace {
SdlOps g_ops_at_start;

SdlOps sdl_ops() {
  return SdlOps{orev::obs::counter("oran.sdl.reads").value(),
                orev::obs::counter("oran.sdl.writes").value()};
}
}  // namespace

void start_tracing(Tracer& tracer) {
  g_tracer = &tracer;
  g_app_allocs = 0;
  g_deliver_allocs = 0;
  g_ops_at_start = sdl_ops();
}

SdlOps stop_tracing() {
  g_tracer = nullptr;
  const SdlOps now = sdl_ops();
  return SdlOps{now.reads - g_ops_at_start.reads,
                now.writes - g_ops_at_start.writes};
}

void measure_serve(const ServeSubject& s, ServeEngine& live, Report& r) {
  const std::vector<Row>& rows = *s.rows;
  const orev::nn::Shape& shape = s.model->input_shape();
  const int bm = s.config.batch_max;

  // Submit latency: the captured rows through an engine configured and
  // calibrated like the live one.
  ServeConfig cfg = s.config;
  cfg.name = "replay_" + cfg.name;
  ServeEngine eng(s.model->clone(), cfg);
  attach_defense(s, eng);
  // At least 2000 submits, so the p99 has ten samples beyond it.
  const std::size_t n_submit = std::max<std::size_t>(rows.size(), 2000);
  std::vector<double> submit_us;
  submit_us.reserve(n_submit);
  for (std::size_t i = 0; i < n_submit; ++i) {
    const Row& row = rows[i % rows.size()];
    Tensor x(shape, row.x);
    const std::uint64_t t0 = now_ns();
    eng.submit(std::move(x), orev::serve::FlowTag{row.flow, row.version}, {},
               [](const orev::serve::ServeResult&) {});
    submit_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  eng.drain();
  r.set("serve.submit_us.p50", percentile(submit_us, 50.0));
  r.set("serve.submit_us.p99",
        resolvable(n_submit, 99.0) ? percentile(submit_us, 99.0) : 0.0);

  const orev::serve::SloSnapshot slo = live.slo();
  r.set("serve.batches", static_cast<double>(slo.batches));
  r.set("serve.occupancy_mean", slo.mean_occupancy);
  r.set("serve.queue_depth_max", static_cast<double>(slo.max_queue_depth));
  r.set("serve.degraded_syncs", static_cast<double>(slo.degraded_syncs));
  r.set("serve.rejected", static_cast<double>(slo.rejected));

  // Compiled plan cost at n = 1 and n = batch_max: the two points the
  // virtual model's overhead + per-sample line is fitted through.
  Model plan_model = s.model->clone();
  plan_model.set_inference_only(true);
  std::unique_ptr<orev::serve::CompiledPlan> plan =
      orev::serve::compile_plan(plan_model);
  r.check(plan != nullptr, "the served model compiles to a plan");
  double t1_us = 0.0, tb_us = 0.0;
  if (plan != nullptr) {
    const std::vector<float> flat = stage_rows(rows, bm);
    t1_us = median_call_us([&] { plan->predict_rows(flat.data(), 1); }, 0.15);
    tb_us = median_call_us([&] { plan->predict_rows(flat.data(), bm); }, 0.15);
    r.set("serve.plan_us_per_row", tb_us / bm);
  }
  std::size_t k = 0;
  const double sync_us = median_call_us(
      [&] {
        eng.predict_sync(Tensor(shape, rows[k++ % rows.size()].x));
      },
      0.15);

  const double t1_wall = serve_wall_s(s, 1, 1);
  const double t4_wall = serve_wall_s(s, 4, 4);
  r.set("serve.t1_over_t4", t1_wall / t4_wall);

  const double per_sample = bm > 1 ? (tb_us - t1_us) / (bm - 1) : tb_us;
  std::printf("[serve] submit replay n=%zu; plan %s: %.3f us at n=1, %.3f us "
              "at n=%d; %zu rows: %.4f s at 1 replica/1 thread, %.4f s at 4 "
              "replicas/4 threads\n",
              n_submit, plan ? plan->kind() : "none", t1_us, tb_us, bm,
              rows.size(), t1_wall, t4_wall);
  std::printf("[cost-model] %-22s %12s %12s\n", "field", "virtual_us",
              "wall_us");
  std::printf("[cost-model] %-22s %12llu %12.3f\n", "batch_overhead_us",
              static_cast<unsigned long long>(s.config.batch_overhead_us),
              t1_us - per_sample);
  std::printf("[cost-model] %-22s %12llu %12.3f\n", "us_per_sample",
              static_cast<unsigned long long>(s.config.us_per_sample),
              per_sample);
  std::printf("[cost-model] %-22s %12llu %12.3f\n", "sync_us_per_sample",
              static_cast<unsigned long long>(s.config.sync_us_per_sample),
              sync_us);
}

void measure_defense(const ServeSubject& s,
                     const orev::serve::DefensePlane* live, Report& r) {
  if (!s.config.defense.enable || live == nullptr) return;
  const orev::serve::DefenseConfig& dc = s.config.defense;
  orev::serve::DefensePlane plane(dc, "replay_defense");
  if (s.sibling != nullptr) plane.attach_sibling(s.sibling->clone());
  s.calibrate(plane);

  Model model = s.model->clone();
  model.set_inference_only(true);
  const std::vector<Row>& rows = *s.rows;
  std::vector<Tensor> inputs;
  std::vector<int> preds;
  inputs.reserve(rows.size());
  for (const Row& row : rows) {
    inputs.emplace_back(s.model->input_shape(), row.x);
    preds.push_back(model.predict_one(inputs.back()));
  }
  const auto repredict = [&model](const Tensor& x) {
    return model.predict_one(x);
  };

  // Blocks of 1 row, then blocks of batch_max rows: the screen's fixed and
  // per-row cost, fitted like the virtual model's.
  const int bm = s.config.batch_max;
  std::vector<double> block1_us, blockb_us, review_ms;
  double screen_ns = 0.0;
  std::size_t i = 0;
  std::uint64_t id = 1;
  while (i < inputs.size()) {
    const int n = block1_us.size() < 64 ? 1 : bm;
    const std::uint64_t t0 = now_ns();
    for (int j = 0; j < n && i < inputs.size(); ++j, ++i)
      plane.screen(id++, rows[i].flow, rows[i].version, inputs[i], preds[i]);
    const std::uint64_t dt = now_ns() - t0;
    screen_ns += static_cast<double>(dt);
    (n == 1 ? block1_us : blockb_us)
        .push_back(static_cast<double>(dt) * 1e-3);
    if (plane.review_due()) {
      const std::uint64_t r0 = now_ns();
      plane.review(repredict);
      review_ms.push_back(static_cast<double>(now_ns() - r0) * 1e-6);
    }
  }
  if (review_ms.empty() && !plane.quarantine().empty()) {
    const std::uint64_t r0 = now_ns();
    plane.review(repredict);
    review_ms.push_back(static_cast<double>(now_ns() - r0) * 1e-6);
  }
  r.set("defense.screen_us_per_row",
        screen_ns * 1e-3 / static_cast<double>(inputs.size()));
  r.set("defense.review_ms_per_pass", median(review_ms));

  r.set("defense.screened", static_cast<double>(live->screened()));
  r.set("defense.flagged", static_cast<double>(live->flagged()));
  r.set("defense.released", static_cast<double>(live->released()));
  r.set("defense.confirmed", static_cast<double>(live->confirmed()));
  r.set("defense.review_passes", static_cast<double>(live->review_passes()));
  r.set("defense.release_ratio",
        live->flagged() == 0 ? 0.0
                             : static_cast<double>(live->released()) /
                                   static_cast<double>(live->flagged()));

  const double t1 = median(block1_us);
  const double tb = median(blockb_us);
  const double per_row = bm > 1 ? (tb - t1) / (bm - 1) : tb;
  std::printf("[cost-model] %-22s %12llu %12.3f\n", "screen_overhead_us",
              static_cast<unsigned long long>(dc.screen_overhead_us),
              t1 - per_row);
  std::printf("[cost-model] %-22s %12llu %12.3f\n", "screen_us_per_sample",
              static_cast<unsigned long long>(dc.screen_us_per_sample),
              per_row);
  std::printf("[defense] replay: %zu rows screened, %zu review passes\n",
              inputs.size(), review_ms.size());
}

void measure_decode(const std::vector<std::string>& frames, Report& r) {
  if (frames.empty()) return;
  // Blocks of up to 256 decodes, cycling over the frames: a single decode
  // is too short to time alone.
  constexpr std::size_t kBlock = 256;
  std::vector<double> ns_per;
  std::uint64_t sink = 0;
  for (std::size_t b = 0; ns_per.size() < 400;) {
    const std::size_t n = std::min(kBlock, frames.size() - b);
    orev::oran::KpmFrameView v;
    const std::uint64_t t0 = now_ns();
    for (std::size_t j = b; j < b + n; ++j)
      if (orev::oran::decode_kpm_frame(frames[j], v) ==
          orev::oran::KpmDecodeStatus::kOk)
        sink += v.tti;
    ns_per.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(n));
    b = b + n >= frames.size() ? 0 : b + n;
  }
  r.set("oran.decode_ns.p50", median(ns_per));
  std::printf("[oran] decode replay: %zu frames, %zu blocks (checksum %llu)\n",
              frames.size(), ns_per.size(),
              static_cast<unsigned long long>(sink % 1000));
}

void measure_ric(const Tracer& tracer, const orev::oran::NearRtRic& ric,
                 const orev::apps::IcXApp& app, std::uint64_t deliveries,
                 const SdlOps& ops, Report& r) {
  const double n = static_cast<double>(std::max<std::uint64_t>(deliveries, 1));
  std::vector<double> self = tracer.self_us("oran.deliver");
  std::vector<double> app_us = tracer.duration_us("apps.on_indication");
  if (!self.empty()) {
    const std::size_t m = self.size();
    r.set("oran.deliver_self_us.p50", percentile(self, 50.0));
    r.set("oran.deliver_self_us.p99",
          resolvable(m, 99.0) ? percentile(self, 99.0) : 0.0);
  }
  if (!app_us.empty()) {
    const std::size_t m = app_us.size();
    r.set("apps.on_indication_us.p50", percentile(app_us, 50.0));
    r.set("apps.on_indication_us.p99",
          resolvable(m, 99.0) ? percentile(app_us, 99.0) : 0.0);
  }
  r.set("oran.allocs_per_deliver",
        static_cast<double>(g_deliver_allocs - g_app_allocs) / n);
  r.set("apps.allocs_per_ind", static_cast<double>(g_app_allocs) / n);
  r.set("oran.sdl_writes_per_ind", static_cast<double>(ops.writes) / n);
  r.set("oran.sdl_reads_per_ind", static_cast<double>(ops.reads) / n);
  r.set("oran.frames_rejected", static_cast<double>(ric.frames_rejected()));
  r.set("oran.controls_dropped",
        static_cast<double>(ric.controls_dropped() + ric.controls_failed()));
  r.set("apps.failsafe_controls", static_cast<double>(app.failsafe_controls()));
  r.set("apps.serve_shed", static_cast<double>(app.serve_shed()));
  r.set("apps.serve_quarantined", static_cast<double>(app.serve_quarantined()));
  r.set("apps.serve_released", static_cast<double>(app.serve_released()));
}

void report_trace_overhead(double untraced, double traced, bool higher_better,
                           Report& r) {
  const double frac =
      higher_better ? 1.0 - traced / untraced : traced / untraced - 1.0;
  r.set("obs.trace_overhead_frac", frac);
  std::printf("[obs] untraced %.6g vs traced %.6g -> trace overhead %.4f\n",
              untraced, traced, frac);
}

void write_trace(const Options& o, const Tracer& tracer, Report& r) {
  if (o.trace_out.empty()) return;
  const bool ok = tracer.write_chrome_json(o.trace_out);
  r.check(ok, "trace written to " + o.trace_out);
  std::printf("[obs] %zu spans in %s (chrome://tracing)\n", tracer.size(),
              o.trace_out.c_str());
}

}  // namespace perfbench
