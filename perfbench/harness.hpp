// Shared machinery of the wall-clock pipeline benchmark: the allocation
// probe, peak RSS, the span recorder behind the traced run, closed-loop
// control matching, the RIC fixture, metric reporting and self-checks.
//
// Everything here times wall clock (obs::now_ns, the steady clock). The
// serve engine's virtual cost model is never used as a measurement; the
// traced run only prints it beside the measured costs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/ic_xapp.hpp"
#include "oran/e2.hpp"
#include "oran/near_rt_ric.hpp"
#include "oran/onboarding.hpp"
#include "util/obs/timer.hpp"
#include "util/sha256.hpp"

namespace perfbench {

using orev::obs::now_ns;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test size: every workload shrunk so one run takes a second or
  /// two. The metric set and the self-checks are unchanged.
  bool tiny = false;
  /// chrome://tracing output of the traced run.
  std::string trace_out;
};

/// Heap allocations made by the whole process so far (the counting
/// operator new lives in harness.cpp).
std::uint64_t allocations();

/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// Mixes the workload seed with a per-use salt into an independent seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile (pct in [0, 100]); reorders `v`.
double percentile(std::vector<double>& v, double pct);
double median(std::vector<double> v);
/// A percentile is reported only when at least ten samples lie beyond it.
bool resolvable(std::size_t n, double pct);

// ---------------------------------------------------------------- report

/// Metrics of one run plus its self-checks; prints the final JSON line.
class Report {
 public:
  /// Sets a metric of the benchmark's fixed set (its unit comes from
  /// there; an unknown name is a program bug and throws).
  void set(const std::string& name, double value);
  /// Records a self-check; any failure makes the run exit non-zero.
  void check(bool ok, const std::string& what);
  bool correct() const { return correct_; }

  /// The contract's last stdout line. Only metrics of the run's mode are
  /// emitted (end-to-end untraced, per-layer traced); a metric of that
  /// mode the workload did not set fails a check before printing.
  std::string json(bool trace);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

/// Zero every per-layer metric so a traced run always reports the full set
/// (a layer the workload does not exercise reads 0: no work, no time).
void zero_layer_metrics(Report& r);

// ----------------------------------------------------------------- spans

/// In-memory span recorder of the traced run. Spans are recorded on the
/// driving thread only, kept in a pre-sized buffer (recording stops when
/// it is full) and written as chrome://tracing JSON at the end.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit Tracer(std::size_t capacity);

  std::uint32_t begin(const char* name, std::uint64_t request);
  void end(std::uint32_t id);
  bool full() const { return spans_.size() >= capacity_; }
  std::size_t size() const { return spans_.size(); }

  /// Self time (duration minus the time its child spans cover) of every
  /// span called `name`, in microseconds, in recording order.
  std::vector<double> self_us(std::string_view name) const;
  /// Total duration of every span called `name`, in microseconds.
  std::vector<double> duration_us(std::string_view name) const;

  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t parent;
    std::uint64_t request;
  };
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::size_t capacity_;
};

/// The active recorder, or nullptr when the run is untraced.
extern Tracer* g_tracer;

/// RAII span on g_tracer; free when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t request)
      : id_(g_tracer != nullptr ? g_tracer->begin(name, request)
                                : Tracer::kNone) {}
  ~ScopedSpan() {
    if (id_ != Tracer::kNone) g_tracer->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint32_t id_;
};

// ------------------------------------------------------------ loop stats

/// Wall-clock latency of answered indications, cut into fixed time
/// slices. Each slice gives a rate and percentiles; the run reports the
/// medians over slices, which keeps a burst of outside load in one slice
/// from moving the result. The tail is reported at p90: on the shared
/// 4-vCPU host this was tuned on, p99 of the µs-scale KPM loops measured
/// host preemption more than the pipeline and moved by up to 40% between
/// identical runs (p99 is still printed).
class LoopStats {
 public:
  explicit LoopStats(double slice_seconds);

  void start(std::uint64_t t_ns);
  void record(std::uint64_t t_ns, std::uint64_t latency_ns);
  void stop(std::uint64_t t_ns);

  double seconds() const;
  /// Medians over slices; a slice shorter than half the slice length only
  /// counts when it is the only one.
  double ind_per_s() const;
  double p50_us() const;
  /// 0 when no slice has ten samples beyond the percentile.
  double p90_us() const;
  double p99_us() const;
  void print(const char* label) const;

 private:
  struct Slice {
    double seconds;
    std::uint64_t n;
    double p50_us;
    double p90_us;  // < 0 when unresolvable
    double p99_us;  // < 0 when unresolvable
  };
  void close_slice(std::uint64_t t_ns);
  std::vector<const Slice*> usable() const;

  std::uint64_t slice_ns_;
  std::uint64_t slice_start_ = 0;
  std::uint64_t first_ns_ = 0;
  std::uint64_t last_ns_ = 0;
  std::uint64_t total_ = 0;
  bool running_ = false;
  std::vector<double> current_;
  std::vector<Slice> slices_;
};

// --------------------------------------------------------------- E2 node

/// How an E2 control answered: a model prediction, the fail-safe after a
/// defense quarantine, any other fail-safe (shed, no telemetry), or the
/// replay of an earlier quarantine that review released.
enum class Answer : std::uint8_t {
  kPrediction,
  kQuarantine,
  kFailsafe,
  kRelease,
};

/// The RAN side of the loop. The loop stamps each delivery with begin();
/// every E2 control is stamped as it arrives and matched to the oldest
/// unanswered indication (controls are issued in FIFO order). The watched
/// xApp's public counters tell the four answer kinds apart.
class BenchE2Node : public orev::oran::E2Node {
 public:
  void watch(const orev::apps::IcXApp* app);
  /// Forget pending indications and counts (end of warm-up).
  void reset();

  /// Stamp the start of one delivery; returns its indication index.
  std::uint64_t begin();

  void handle_control(const orev::oran::E2Control& control) override;
  std::string node_id() const override { return "perfbench-ran"; }

  /// Where answered latencies go (nullptr = not recorded).
  LoopStats* stats = nullptr;
  /// Called for every answer with the index of the indication it answers
  /// (releases carry the index of no indication: ~0) and the control.
  std::function<void(std::uint64_t, Answer, const orev::oran::E2Control&)>
      on_answer;

  /// The decision digest covers the answers to indications below this
  /// index (set it once that prefix has been delivered).
  void set_digest_prefix(std::uint64_t n) { digest_prefix_ = n; }
  std::string decision_digest();

  std::uint64_t delivered() const { return next_; }
  std::uint64_t answered() const { return head_; }
  std::uint64_t releases() const { return releases_; }
  std::uint64_t unmatched() const { return unmatched_; }
  std::uint64_t count(Answer a) const {
    return counts_[static_cast<int>(a)];
  }

 private:
  static constexpr std::size_t kRing = 1u << 16;
  const orev::apps::IcXApp* app_ = nullptr;
  std::vector<std::uint64_t> starts_ = std::vector<std::uint64_t>(kRing);
  std::uint64_t next_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t unmatched_ = 0;
  std::uint64_t counts_[4] = {0, 0, 0, 0};
  std::uint64_t seen_released_ = 0;
  std::uint64_t seen_quarantined_ = 0;
  std::uint64_t seen_failsafe_ = 0;
  std::uint64_t digest_prefix_ = ~std::uint64_t{0};
  orev::Sha256 digest_;
  std::string digest_hex_;
};

// ----------------------------------------------------------- RIC fixture

/// One Near-RT RIC with an operator, onboarding and the roles the
/// benchmark's apps need.
struct RicFixture {
  RicFixture();

  /// Onboard `app` under `role` and register it at `priority`. With
  /// g_wrap_apps it is wrapped in a forwarding xApp that, while g_tracer is
  /// set, records an "apps.on_indication" span and the allocations made
  /// inside.
  void add(std::shared_ptr<orev::oran::XApp> app, const std::string& name,
           const std::string& role, int priority,
           const char* span_name = "apps.on_indication");
  std::string app_id_of(const std::string& name) const;

  orev::oran::Rbac rbac;
  orev::oran::Operator op{"perfbench-op", "perfbench-secret"};
  orev::oran::OnboardingService svc{&op, &rbac};
  orev::oran::NearRtRic ric{&rbac, &svc};
  /// Registers wrapped apps once so they carry their onboarded identity.
  orev::oran::NearRtRic identity_ric{&rbac, &svc};
  std::vector<std::pair<std::string, std::string>> ids;
};

/// Set before set-up in a traced run: RicFixture::add then wraps every
/// xApp in the forwarding, span-recording one.
extern bool g_wrap_apps;
/// Allocations made inside timed xApp dispatches (traced runs).
extern std::uint64_t g_app_allocs;
/// Allocations made inside timed delivery calls (traced runs).
extern std::uint64_t g_deliver_allocs;
/// Index of the indication being delivered (span request ids).
extern std::uint64_t g_request;

/// One delivery into the RIC: stamps it on `node`, records an
/// "oran.deliver" span and, while traced, the allocations made inside
/// `call` (which returns the RIC's delivery result).
template <class Call>
bool deliver(BenchE2Node& node, Call&& call) {
  node.begin();
  ScopedSpan span("oran.deliver", g_request);
  if (g_tracer == nullptr) return call();
  const std::uint64_t a0 = allocations();
  const bool ok = call();
  g_deliver_allocs += allocations() - a0;
  return ok;
}

}  // namespace perfbench
