// Wall-clock benchmark of the closed O-RAN loop and the black-box attack.
//
//   perfbench --workload <city_kpm|fleet_attack_kpm|spectrogram_cnn|
//                         attack_campaign>
//             --seed N --seconds S --trace 0|1 [--tiny] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics (and the
// tracing overhead against an untraced half of the same run). The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is non-zero when any self-check fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "util/obs/causal.hpp"
#include "util/obs/trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

bool parse(int argc, char** argv, Options& o) {
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (a == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else if (a == "--tiny") {
      o.tiny = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  return !o.workload.empty() && have_trace && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--trace-out FILE]\n");
    return 2;
  }
  // The repository's own tracing stays off: spans come from the benchmark.
  orev::obs::set_trace_enabled(false);
  orev::obs::set_causal_enabled(false);
  perfbench::g_wrap_apps = o.trace;

  std::printf("[perfbench] workload=%s seed=%llu seconds=%.3f trace=%d%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.tiny ? " tiny" : "");
  perfbench::Report r;
  if (o.trace) perfbench::zero_layer_metrics(r);
  try {
    if (o.workload == "city_kpm") {
      perfbench::run_city_kpm(o, r);
    } else if (o.workload == "fleet_attack_kpm") {
      perfbench::run_fleet_attack_kpm(o, r);
    } else if (o.workload == "spectrogram_cnn") {
      perfbench::run_spectrogram_cnn(o, r);
    } else if (o.workload == "attack_campaign") {
      perfbench::run_attack_campaign(o, r);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("[result] failed_frac=%.6f (%llu failed of %llu attempted)\n",
              static_cast<double>(r.failed) /
                  static_cast<double>(r.attempted ? r.attempted : 1),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  const std::string json = r.json(o.trace);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
