// The four workloads and the closed loop they share.
//
// Every workload is a closed loop: one thread delivers the next indication
// as soon as the previous delivery call returns; E2 controls complete
// asynchronously whenever a serve micro-batch flushes. Warm-up epochs or
// rounds run during set-up and are never timed.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "harness.hpp"

namespace perfbench {

void run_city_kpm(const Options& o, Report& r);
void run_fleet_attack_kpm(const Options& o, Report& r);
void run_spectrogram_cnn(const Options& o, Report& r);
void run_attack_campaign(const Options& o, Report& r);

/// Set-up repetitions per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

struct LoopResult {
  double ind_per_s = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t answered = 0;
  std::uint64_t allocs = 0;  // whole process, during the loop
  double seconds = 0.0;
};

/// Calls `step` (one unit of closed-loop work) until `seconds` of wall
/// time pass or the active tracer fills, with latencies of answered
/// indications cut into `slice_s` slices.
LoopResult run_loop(BenchE2Node& node, double seconds, double slice_s,
                    const std::function<void()>& step, const char* label);

/// The traced run of an indication workload: `o.seconds` / 2 untraced,
/// then `o.seconds` / 2 recorded into `tracer`, with `settle` (draining the
/// engine) after each. Reports obs.trace_overhead_frac,
/// oran.loop_allocs_per_ind and the span-derived oran.* and apps.* metrics.
void run_traced_halves(const Options& o, Tracer& tracer, double slice_s,
                       BenchE2Node& node, const std::function<void()>& step,
                       const std::function<void()>& settle,
                       const orev::oran::NearRtRic& ric,
                       const orev::apps::IcXApp& app, Report& r);

/// ind_per_s, ctrl_p50_us and ctrl_p90_us from an untraced loop.
void report_loop(const LoopResult& loop, Report& r);

/// Times `build` kSetupRepeats times (once in a traced run) and reports
/// setup_s as the median; keeps the last build's result.
template <class Build>
auto timed_setup(const Options& o, Report& r, Build build) {
  std::vector<double> secs;
  const int reps = o.trace ? 1 : kSetupRepeats;
  for (int i = 0; i + 1 < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    { auto discard = build(); }
    secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const std::uint64_t t0 = now_ns();
  auto kept = build();
  secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  r.set("setup_s", median(secs));
  std::printf("[setup] %d set-ups, median %.4f s\n", reps, median(secs));
  return kept;
}

/// Check shared by the indication workloads: every indication answered by
/// exactly one control (release replays come on top) and no control
/// without an indication.
void check_one_control_per_indication(const BenchE2Node& node, Report& r);

}  // namespace perfbench
