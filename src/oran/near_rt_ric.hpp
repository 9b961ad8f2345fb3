// Near-RT RIC platform: hosts onboarded xApps, terminates the E2
// association, mediates SDL access, and enforces the near-real-time
// dispatch window (10 ms – 1 s control loop, §2.1).
//
// Telemetry flow per indication (matching the paper's attack surface):
//   1. the platform writes the indication payload into the SDL
//      (namespace "telemetry/<kind>", key "<node>/current");
//   2. xApps are dispatched in ascending priority order; an app with SDL
//      write access may modify the entry before later apps read it;
//   3. xApps issue E2 control decisions back to the RAN node.
// Dispatch wall-clock time is measured against the control window; late
// apps are recorded as deadline misses (§5.3.3's timing constraint).
//
// Robustness (DESIGN.md §9): the platform survives a lossy message plane.
// E2 indications can be dropped/delayed/duplicated/corrupted and SDL ops
// can fail transiently under an injected FaultPlan; platform SDL writes,
// mediated telemetry reads, and the E2 control return path retry with
// deterministic backoff; each xApp dispatch runs under try/catch plus a
// per-app circuit breaker, so one crashing or chronically faulty xApp is
// quarantined instead of taking down the platform or starving
// lower-priority apps.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "oran/a1.hpp"
#include "oran/e2.hpp"
#include "oran/onboarding.hpp"
#include "oran/sdl.hpp"
#include "util/fault/circuit_breaker.hpp"
#include "util/fault/retry.hpp"
#include "util/obs/metrics.hpp"

namespace orev::oran {

class NearRtRic;

/// Base class for xApps hosted on the Near-RT RIC.
class XApp {
 public:
  virtual ~XApp() = default;

  /// Called for every E2 indication, in registration priority order.
  virtual void on_indication(const E2Indication& ind, NearRtRic& ric) = 0;

  const std::string& app_id() const { return app_id_; }

 private:
  friend class NearRtRic;
  std::string app_id_;
};

/// Reserved identity the platform itself uses for SDL writes.
inline constexpr const char* kRicPlatformId = "ric-platform";

/// SDL namespaces used by the platform.
inline constexpr const char* kNsSpectrogram = "telemetry/spectrogram";
inline constexpr const char* kNsKpm = "telemetry/kpm";
inline constexpr const char* kNsDecisions = "decisions";
/// Defense alerts published by apps when the serving engine's defense
/// plane quarantines one of their requests: key = "<app>/<node>", value
/// names the flagged telemetry key and the SDL identity that last wrote
/// it (attestation evidence for the §3.1 injection path). Writing
/// requires the namespace in the app's role like any other SDL write.
inline constexpr const char* kNsDefenseAlerts = "defense-alerts";

struct XAppDispatchStats {
  std::uint64_t dispatches = 0;
  std::uint64_t deadline_misses = 0;
  /// Dispatches that ended in an exception (app bug or injected crash).
  std::uint64_t faults = 0;
  /// Dispatches skipped because the app's circuit breaker was open.
  std::uint64_t quarantined_skips = 0;
  double total_ms = 0.0;
};

class NearRtRic {
 public:
  /// `control_window_ms` is the near-RT deadline each xApp must meet.
  NearRtRic(Rbac* rbac, const OnboardingService* onboarding,
            double control_window_ms = 1000.0);

  Sdl& sdl() { return sdl_; }
  const Sdl& sdl() const { return sdl_; }

  /// Register an onboarded xApp under its onboarding-issued id. Lower
  /// priority values dispatch first. Fails for unknown app ids
  /// (REQ-SEC-NEAR-RT-1: authenticate before SDL access).
  bool register_xapp(std::shared_ptr<XApp> app, const std::string& app_id,
                     int priority);

  void connect_e2(E2Node* node);

  // Three entry points deliver one indication each through one private
  // core (deliver_core); they differ only in how the payload reaches the
  // SDL. Each returns false when the indication was lost to an injected
  // transport drop (the RAN side may retransmit).

  /// Copy delivery: the indication is copied, and every SDL write attempt
  /// copies its payload again (Sdl::write_tensor(const&)).
  bool deliver_indication(const E2Indication& ind);

  /// Move-in delivery: the payload buffer is moved (not copied) into the
  /// last copy's SDL write, so the tensor allocation made by the RAN side
  /// is the only one on the whole path. The indication handed to xApps
  /// afterwards carries an empty payload — apps read telemetry through
  /// the SDL (read_telemetry), never from the in-flight message, which is
  /// exactly the paper's attack surface.
  bool deliver_indication(E2Indication&& ind);

  /// Binary KPM hot path (DESIGN.md §16): decode one e2_codec frame and
  /// deliver it with zero per-message allocation at steady state — the
  /// decoded features land in a reusable scratch buffer and the SDL write
  /// goes through write_tensor_inplace. Malformed frames (truncated, bit
  /// flipped, wrong magic/version) are rejected and counted, never
  /// dispatched. Also returns false on rejection.
  bool deliver_kpm_frame(std::string_view frame);

  /// Frames rejected by the binary decoder since construction.
  std::uint64_t frames_rejected() const { return frames_rejected_; }

  /// xApp-facing control path back to the connected E2 node. Transient
  /// transport faults are retried under the retry policy; drops and
  /// exhausted retries are counted and the control is lost.
  void send_control(const std::string& app_id, const E2Control& control);

  /// Platform-mediated telemetry read on behalf of an xApp: retries
  /// kUnavailable under the retry policy, then returns the final status.
  SdlStatus read_telemetry(const std::string& app_id, const std::string& ns,
                           const std::string& key, nn::Tensor& out);
  /// The same through a resolved SDL handle (see Sdl::resolve): no string
  /// lookups, and `out` keeps its buffer when the shape is unchanged. A
  /// read that does not return kOk leaves `out` untouched.
  SdlStatus read_telemetry(SdlHandle& h, nn::Tensor& out);

  /// A1 policies pushed down from the Non-RT RIC.
  void accept_policy(const A1Policy& policy);
  const std::vector<A1Policy>& policies() const { return policies_; }

  const XAppDispatchStats& stats_of(const std::string& app_id) const;
  double control_window_ms() const { return control_window_ms_; }
  std::uint64_t indications_delivered() const { return indications_; }

  // ------------------------------------------------- fault/recovery layer
  /// Inject message-plane faults (also wires the platform SDL). nullptr
  /// restores perfect reliability; the process-global injector (if any)
  /// applies when unset.
  void set_fault_injector(fault::FaultInjector* injector);
  void set_retry_policy(const fault::RetryPolicy& policy) {
    retry_ = policy;
  }
  const fault::RetryPolicy& retry_policy() const { return retry_; }

  /// Breaker settings for all registered and future xApps (resets the
  /// current breaker states).
  void set_breaker_config(const fault::BreakerConfig& cfg);
  fault::CircuitBreaker::State breaker_state(const std::string& app_id) const;
  std::uint64_t breaker_opens(const std::string& app_id) const;

  /// Invoked after every completed xApp dispatch round (even when every
  /// app was quarantined). A platform heartbeat for deferred-work
  /// services hosted alongside the apps — e.g. a serve::ServeEngine's
  /// tick(), so partial micro-batches flush during indication streams
  /// without coupling the platform to the serving layer. Empty (default)
  /// disables.
  void set_post_dispatch_hook(std::function<void()> hook) {
    post_dispatch_ = std::move(hook);
  }

  std::uint64_t indications_dropped() const { return indications_dropped_; }
  std::uint64_t sdl_write_failures() const { return sdl_write_failures_; }
  std::uint64_t controls_dropped() const { return controls_dropped_; }
  std::uint64_t controls_failed() const { return controls_failed_; }

 private:
  struct Registration {
    std::shared_ptr<XApp> app;
    int priority = 0;
    // The app id's entries in stats_ / breakers_ (map nodes are stable),
    // resolved at registration so a dispatch looks nothing up.
    XAppDispatchStats* stats = nullptr;
    fault::CircuitBreaker* breaker = nullptr;
  };

  /// Per-cell state of the binary KPM path: the node id and the platform's
  /// SDL handle on "<node>/current", resolved on the cell's first frame.
  struct KpmCell {
    std::string node_id;
    SdlHandle telemetry;
  };

  /// The one delivery core behind the three public entry points: the
  /// transport fault switch (drop / duplicate / delay / corrupt), the
  /// per-copy counters and causal roots, the retried platform SDL write
  /// and the dispatch round. `ind` is what apps are dispatched,
  /// `payload` the features a corrupt fault perturbs in place,
  /// `wire_bytes` the bytes counted per copy, and `frames` (binary path
  /// only) a per-copy frame counter. `write(last)` is one SDL write
  /// attempt for a copy; `last` marks the final copy, whose payload the
  /// write may consume.
  template <class Write>
  bool deliver_core(const E2Indication& ind, std::span<float> payload,
                    std::size_t wire_bytes, obs::Counter* frames,
                    Write&& write);

  /// `root` is the indication's causal root span (invalid when causal
  /// tracing is off); each app dispatch becomes a child span and the
  /// indication copy handed to the app carries that child context.
  void dispatch_all(const E2Indication& ind, double transport_delay_ms,
                    const obs::TraceContext& root = {});

  Rbac* rbac_;
  const OnboardingService* onboarding_;
  Sdl sdl_;
  double control_window_ms_;
  std::vector<Registration> xapps_;  // kept sorted by priority
  E2Node* e2_node_ = nullptr;
  std::function<void()> post_dispatch_;
  std::vector<A1Policy> policies_;
  std::map<std::string, XAppDispatchStats> stats_;
  std::uint64_t indications_ = 0;

  fault::FaultInjector* fault_ = nullptr;
  fault::RetryPolicy retry_;
  fault::BreakerConfig breaker_cfg_;
  std::map<std::string, fault::CircuitBreaker> breakers_;
  std::uint64_t retry_ops_ = 0;
  std::uint64_t frames_rejected_ = 0;
  // Reusable scratch for the binary KPM path: after the first frame at a
  // node's steady-state feature count, delivery allocates nothing.
  E2Indication kpm_scratch_;
  std::vector<float> kpm_features_;
  nn::Shape kpm_shape_;
  // Keyed by (indication kind << 32 | cell id).
  std::unordered_map<std::uint64_t, KpmCell> kpm_cells_;
  const KpmCell* kpm_cell_ = nullptr;  // cell of the scratch's node id
  // send_control's RBAC decision for the last app that sent one, valid
  // while the policy generation is unchanged.
  std::string control_app_;
  std::uint64_t control_gen_ = ~std::uint64_t{0};
  bool control_ok_ = false;
  std::uint64_t indications_dropped_ = 0;
  std::uint64_t sdl_write_failures_ = 0;
  std::uint64_t controls_dropped_ = 0;
  std::uint64_t controls_failed_ = 0;
};

}  // namespace orev::oran
