// Per-layer measurements of the traced run. Layers that run nested inside
// another layer's call (serve inside the xApp, the defense screen and the
// compiled plan inside serve) are timed by replaying the workload's
// captured inputs through that layer's own public API.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nn/model.hpp"
#include "serve/engine.hpp"

namespace perfbench {

/// One captured serve input: the row the xApp submitted and its flow tag.
struct Row {
  std::vector<float> x;
  std::string flow;
  std::uint64_t version = 0;
};

/// Median wall µs of one call of `fn`, repeated for at least `min_s`.
double median_call_us(const std::function<void()>& fn, double min_s);

/// The first `n` rows (cycling) as one flat row-major buffer.
std::vector<float> stage_rows(const std::vector<Row>& rows, int n);

/// Everything the serve and defense replays need to rebuild the live
/// engine's configuration.
struct ServeSubject {
  const orev::nn::Model* model = nullptr;
  orev::serve::ServeConfig config;
  /// Calibrates (and attaches a sibling to) a fresh defense plane exactly
  /// as set-up did for the live engine. Unused when the plane is off.
  std::function<void(orev::serve::DefensePlane&)> calibrate;
  const orev::nn::Model* sibling = nullptr;
  const std::vector<Row>* rows = nullptr;
};

/// serve.*: submit latency from a replay of `rows`, live SloSnapshot
/// counters, the compiled plan's cost per row, and the replica-sharding
/// speed-up (1 replica on 1 thread over 4 replicas on 4 threads). Prints
/// the cost-model calibration table: the measured wall cost beside the
/// ServeConfig/DefenseConfig virtual model.
void measure_serve(const ServeSubject& s, orev::serve::ServeEngine& live,
                   Report& r);

/// defense.*: screen and review cost from a replay through a fresh plane,
/// live counters from `live` (nullptr when the workload serves undefended).
void measure_defense(const ServeSubject& s,
                     const orev::serve::DefensePlane* live, Report& r);

/// oran.decode_ns.p50 over captured binary KPM frames.
void measure_decode(const std::vector<std::string>& frames, Report& r);

/// Starts recording into `tracer` and zeroes the traced-run counters.
void start_tracing(Tracer& tracer);
/// SDL operations made while tracing.
struct SdlOps {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};
/// Stops recording; returns the SDL operations made meanwhile.
SdlOps stop_tracing();

/// Span-derived oran.* and apps.* timings and allocations over
/// `deliveries` traced deliveries, plus the live counters of the RIC and
/// the IC xApp.
void measure_ric(const Tracer& tracer, const orev::oran::NearRtRic& ric,
                 const orev::apps::IcXApp& app, std::uint64_t deliveries,
                 const SdlOps& ops, Report& r);

/// 1 − traced/untraced throughput (or traced/untraced time − 1 for a
/// workload measured in seconds); printed beside both inputs.
void report_trace_overhead(double untraced, double traced, bool higher_better,
                           Report& r);

/// Writes the traced run's spans (Options::trace_out) and reports where.
void write_trace(const Options& o, const Tracer& tracer, Report& r);

}  // namespace perfbench
