// Interference Classification (IC) xApp — the Near-RT RIC victim (§5.1).
//
// Two variants share this implementation, differing only in the model and
// the indication kind they subscribe to:
//   * Spectrogram-based: BaseCNN over [1, H, W] spectrograms;
//   * KPM-based: dense DNN over [4] KPM feature vectors.
//
// Per indication the xApp reads the telemetry entry from the SDL (the same
// entry a co-hosted malicious xApp may have just perturbed), classifies it,
// publishes its prediction to the decisions namespace, and steers the RAN:
// interference detected → adaptive MCS, clean → fixed (high) MCS.
//
// Serving (DESIGN.md §11–12): with a serve::ServeEngine attached the xApp
// stops calling Model::forward per indication and instead *moves* the
// telemetry tensor into a serve request; the decision publish and the E2
// control are issued from the completion callback when the engine's
// micro-batch flushes. Both variants ride the engine's compiled plans —
// the KPM DNN and the spectrogram BaseCNN alike compile to a CompiledCnn
// (the DNN as a plan with no conv prefix) — so served decisions stay
// byte-identical to the layer walk (and may ride the int8 tier only once its accuracy gate has
// passed). Requests the engine sheds without a prediction take the
// fail-safe action (adaptive MCS). Without an engine the historical
// synchronous path is byte-identical to before.
//
// Degraded mode (DESIGN.md §9): when the telemetry read fails (store
// outage, lost platform write), the xApp falls back to its last-known-good
// telemetry — provided it is no staler than `max_stale` SDL versions — and
// classifies that instead. Beyond the staleness bound it takes the
// fail-safe action: adaptive MCS, the conservative link configuration that
// is safe under interference, rather than steering blind.
//
// Steady state (DESIGN.md §16): everything keyed by the RAN node — the
// telemetry, decision and alert SDL handles, the flow key and the serve
// engine's flow id — is resolved on the node's first indication and kept
// in a per-node context. Telemetry is read into one pooled row tensor
// that submit_row() copies into a recycled queue slot, the completion
// captures only the app and its node context (so std::function keeps it
// inline), and alert/decision text is composed in reused scratch: a
// served indication allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "nn/model.hpp"
#include "oran/near_rt_ric.hpp"
#include "serve/engine.hpp"
#include "util/string_hash.hpp"

namespace orev::apps {

/// Degraded-mode knobs for the IC xApp.
struct IcDegradedConfig {
  /// Master switch; disabled reproduces the historical skip-on-failure
  /// behaviour (no fallback, no fail-safe control).
  bool enabled = true;
  /// Max SDL versions the cached telemetry may lag behind before it is
  /// considered too stale to act on (then the fail-safe applies).
  std::uint64_t max_stale = 2;
};

class IcXApp : public oran::XApp {
 public:
  IcXApp(nn::Model model, oran::IndicationKind kind, int fixed_mcs_index);

  void on_indication(const oran::E2Indication& ind,
                     oran::NearRtRic& ric) override;

  nn::Model& model() { return model_; }

  /// Route classifications through a serving engine (nullptr restores the
  /// synchronous per-indication path). The engine must serve a model with
  /// this xApp's input shape and class count — checked on attach; whoever
  /// owns the engine is responsible for drain() at end of workload.
  void set_serve_engine(serve::ServeEngine* engine);
  serve::ServeEngine* serve_engine() const { return serve_; }

  std::uint64_t predictions_made() const { return predictions_; }
  std::uint64_t interference_detected() const { return detections_; }
  std::optional<int> last_prediction() const { return last_prediction_; }

  void set_degraded_config(const IcDegradedConfig& cfg) { degraded_ = cfg; }
  const IcDegradedConfig& degraded_config() const { return degraded_; }

  /// Telemetry reads that did not return fresh data.
  std::uint64_t telemetry_failures() const { return telemetry_failures_; }
  /// Classifications made from cached (stale but in-bound) telemetry.
  std::uint64_t fallback_classifications() const { return fallbacks_; }
  /// Fail-safe adaptive-MCS controls issued with no usable telemetry.
  std::uint64_t failsafe_controls() const { return failsafes_; }
  /// Classifications shed by the serving engine without a prediction.
  std::uint64_t serve_shed() const { return serve_shed_; }
  /// Requests quarantined by the engine's defense plane. Each one also
  /// publishes an alert to oran::kNsDefenseAlerts naming the telemetry
  /// key and its last SDL writer, then degrades exactly like a shed
  /// (fail-safe adaptive MCS).
  std::uint64_t serve_quarantined() const { return serve_quarantined_; }

  /// Subscribe to the engine's quarantine-review release channel: every
  /// record the review clears as a false positive is replayed through the
  /// normal decision path (prediction published, control issued) with a
  /// correcting attestation in oran::kNsDefenseAlerts — the closed-loop
  /// answer to the fail-safe the quarantine originally forced. Requires
  /// an attached serve engine; `ric` must outlive the engine.
  void enable_release_channel(oran::NearRtRic& ric);
  /// Quarantined requests later released (reviewed as false positives).
  std::uint64_t serve_released() const { return serve_released_; }

 private:
  /// Everything keyed by one RAN node, resolved on its first indication
  /// against the dispatching RIC (and again if another RIC dispatches).
  struct Node {
    oran::NearRtRic* ric = nullptr;
    std::string id;
    /// "<ns>/<node>/current": the defense plane's flow key.
    std::string flow_key;
    oran::SdlHandle telemetry;  // <ns>, "<node>/current"
    oran::SdlHandle decision;   // decisions, "ic/<node>"
    oran::SdlHandle alert;      // defense-alerts, "<app>/<node>"
    /// The serve engine's flow id for flow_key, valid for flow_engine.
    const serve::ServeEngine* flow_engine = nullptr;
    std::uint32_t flow = 0;
    // This node's last-known-good telemetry plus the SDL version it was
    // read at; the staleness of the cache is (current version − cached
    // version) when the store answers, else the run of consecutive failed
    // reads. Per node, so a failed read never falls back to another
    // cell's row.
    nn::Tensor last_good;
    bool have_last_good = false;
    std::uint64_t last_good_version = 0;
    std::uint64_t consecutive_failures = 0;
  };
  Node& node_for(std::string_view node_id, oran::NearRtRic& ric);

  /// The synchronous path reads `input` in place; the serving path copies
  /// it into a recycled request slot. `ctx` is the causal context the
  /// downstream spans (serve admission, the control message) parent
  /// under; invalid when tracing is off. `version` tags the serve
  /// request's flow for the defense plane's norm screen.
  void classify_and_control(const nn::Tensor& input, Node& node,
                            obs::TraceContext ctx, std::uint64_t version);
  /// Completion of a served classification.
  void on_served(const serve::ServeResult& r, Node& node);
  void finish_classification(int pred, Node& node,
                             obs::TraceContext ctx = {});
  void issue_failsafe(Node& node, obs::TraceContext ctx = {});

  std::unordered_map<std::string, Node, util::StringHash, std::equal_to<>>
      nodes_;
  /// Text scratch (decision values, alerts).
  std::string text_;
  std::string writer_;

  nn::Model model_;
  oran::IndicationKind kind_;
  int fixed_mcs_index_;
  serve::ServeEngine* serve_ = nullptr;
  std::uint64_t predictions_ = 0;
  std::uint64_t detections_ = 0;
  std::optional<int> last_prediction_;

  IcDegradedConfig degraded_;
  std::uint64_t telemetry_failures_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t failsafes_ = 0;
  std::uint64_t serve_shed_ = 0;
  std::uint64_t serve_quarantined_ = 0;
  std::uint64_t serve_released_ = 0;
};

}  // namespace orev::apps
