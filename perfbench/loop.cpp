#include <algorithm>
#include <cstdio>
#include <string>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

LoopResult run_loop(BenchE2Node& node, double seconds, double slice_s,
                    const std::function<void()>& step, const char* label) {
  LoopStats stats(slice_s);
  node.stats = &stats;
  const std::uint64_t d0 = node.delivered();
  const std::uint64_t a0 = node.answered();
  const std::uint64_t allocs0 = allocations();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t until = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  stats.start(t0);
  while (now_ns() < until && (g_tracer == nullptr || !g_tracer->full())) step();
  stats.stop(now_ns());
  node.stats = nullptr;

  LoopResult out;
  out.allocs = allocations() - allocs0;
  out.delivered = node.delivered() - d0;
  out.answered = node.answered() - a0;
  out.seconds = stats.seconds();
  out.ind_per_s = stats.ind_per_s();
  out.p50_us = stats.p50_us();
  out.p90_us = stats.p90_us();
  out.p99_us = stats.p99_us();
  stats.print(label);
  std::printf("[loop] %s: %llu delivered, %.3f allocations per indication "
              "(whole loop)\n",
              label, static_cast<unsigned long long>(out.delivered),
              static_cast<double>(out.allocs) /
                  static_cast<double>(out.delivered ? out.delivered : 1));
  return out;
}

void run_traced_halves(const Options& o, Tracer& tracer, double slice_s,
                       BenchE2Node& node, const std::function<void()>& step,
                       const std::function<void()>& settle,
                       const orev::oran::NearRtRic& ric,
                       const orev::apps::IcXApp& app, Report& r) {
  const std::string label = o.workload;
  const LoopResult plain = run_loop(node, o.seconds / 2, slice_s, step,
                                    (label + " untraced").c_str());
  settle();
  r.set("oran.loop_allocs_per_ind",
        static_cast<double>(plain.allocs) /
            static_cast<double>(std::max<std::uint64_t>(plain.delivered, 1)));
  start_tracing(tracer);
  const LoopResult traced = run_loop(node, o.seconds / 2, slice_s, step,
                                     (label + " traced").c_str());
  const SdlOps ops = stop_tracing();
  settle();
  report_trace_overhead(plain.ind_per_s, traced.ind_per_s, true, r);
  measure_ric(tracer, ric, app, traced.delivered, ops, r);
}

void report_loop(const LoopResult& loop, Report& r) {
  r.set("ind_per_s", loop.ind_per_s);
  r.set("ctrl_p50_us", loop.p50_us);
  r.check(loop.p90_us > 0.0,
          "ctrl_p90_us has at least ten samples beyond it in some slice");
  r.set("ctrl_p90_us", loop.p90_us);
}

void check_one_control_per_indication(const BenchE2Node& node, Report& r) {
  char what[200];
  std::snprintf(what, sizeof what,
                "one control per indication (%llu delivered, %llu answered, "
                "%llu release replays, %llu unmatched)",
                static_cast<unsigned long long>(node.delivered()),
                static_cast<unsigned long long>(node.answered()),
                static_cast<unsigned long long>(node.releases()),
                static_cast<unsigned long long>(node.unmatched()));
  r.check(node.answered() == node.delivered() && node.unmatched() == 0, what);
}

}  // namespace perfbench
