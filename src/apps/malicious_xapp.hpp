// Malicious xApp — the §3.1 internal adversary on the Near-RT RIC.
//
// Lifecycle:
//   * kObserve — passively read each telemetry entry and the victim's
//     published prediction for the *previous* entry (one-dispatch lag,
//     since the victim runs after this app in the same loop), building the
//     cloning dataset D_clone of (input, hard label) pairs;
//   * kAttack — rewrite the telemetry entry the victim is about to read.
//     Two strategies, matching §4.2:
//       - a precomputed universal perturbation (UAP), applied instantly;
//       - an input-specific generator (FGSM/PGD/C&W/DeepFool on the
//         surrogate), run through a single-threaded stream model: samples
//         arrive every control window; while the generator is busy,
//         arriving samples pass unperturbed (*misses*); when a generation
//         finishes, its (now stale) perturbation is applied to the sample
//         current at that moment. With generation time g and window w the
//         missed fraction converges to 1 - w/g — exactly the paper's
//         64.5% (MobileNetV2, 1.4 s/0.5 s) and 87.5% (DenseNet121,
//         4 s/0.5 s) accounting (§5.3.3/§5.3.6).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nn/tensor.hpp"
#include "oran/near_rt_ric.hpp"
#include "util/string_hash.hpp"

namespace orev::apps {

class MaliciousXApp : public oran::XApp {
 public:
  enum class Mode { kObserve, kAttack };

  /// Input-specific perturbation generator: sample in, adversarial sample
  /// out (on the surrogate; no access to the victim model).
  using Generator = std::function<nn::Tensor(const nn::Tensor&)>;

  explicit MaliciousXApp(oran::IndicationKind kind);

  void on_indication(const oran::E2Indication& ind,
                     oran::NearRtRic& ric) override;

  void set_mode(Mode m) { mode_ = m; }
  Mode mode() const { return mode_; }

  /// Arm with a universal perturbation (added to every input, clamped to
  /// the valid data range).
  void arm_uap(nn::Tensor uap);

  /// Arm with an input-specific generator and the telemetry arrival
  /// interval in milliseconds (the near-RT window). Pass a non-positive
  /// interval to disable the stream/timing model (every sample perturbed
  /// synchronously).
  void arm_input_specific(Generator gen, double window_ms);

  /// Observation log collected during kObserve.
  const std::vector<nn::Tensor>& observed_inputs() const { return obs_x_; }
  const std::vector<int>& observed_labels() const { return obs_y_; }

  std::uint64_t perturbations_applied() const { return applied_; }
  std::uint64_t deadline_misses() const { return missed_; }

 private:
  /// One RAN node's SDL handles, resolved on its first indication against
  /// the dispatching RIC (and again if another RIC dispatches).
  struct Node {
    oran::NearRtRic* ric = nullptr;
    oran::SdlHandle telemetry;  // <ns>, "<node>/current"
    oran::SdlHandle decision;   // decisions, "ic/<node>"
  };
  Node& node_for(std::string_view node_id, oran::NearRtRic& ric);

  oran::IndicationKind kind_;
  Mode mode_ = Mode::kObserve;
  std::unordered_map<std::string, Node, util::StringHash, std::equal_to<>>
      nodes_;
  nn::Tensor input_;  // the telemetry entry read, storage reused

  std::optional<nn::Tensor> uap_;
  Generator generator_;
  double window_ms_ = 0.0;
  // Stream-model state: virtual clock, generator-busy horizon, and the
  // finished-but-unapplied perturbation delta.
  double stream_now_ms_ = 0.0;
  double busy_until_ms_ = 0.0;
  std::optional<nn::Tensor> ready_delta_;

  // Observation state: input waiting for its (lagged) victim label.
  std::optional<nn::Tensor> pending_input_;
  std::vector<nn::Tensor> obs_x_;
  std::vector<int> obs_y_;

  std::uint64_t applied_ = 0;
  std::uint64_t missed_ = 0;
};

}  // namespace orev::apps
