#include "apps/malicious_xapp.hpp"

#include <chrono>

#include "util/log.hpp"

namespace orev::apps {

MaliciousXApp::MaliciousXApp(oran::IndicationKind kind) : kind_(kind) {}

void MaliciousXApp::arm_uap(nn::Tensor uap) {
  uap_ = std::move(uap);
  generator_ = nullptr;
  mode_ = Mode::kAttack;
}

void MaliciousXApp::arm_input_specific(Generator gen, double window_ms) {
  OREV_CHECK(gen != nullptr, "null perturbation generator");
  generator_ = std::move(gen);
  uap_.reset();
  window_ms_ = window_ms;
  stream_now_ms_ = 0.0;
  busy_until_ms_ = 0.0;
  ready_delta_.reset();
  mode_ = Mode::kAttack;
}

MaliciousXApp::Node& MaliciousXApp::node_for(std::string_view node_id,
                                              oran::NearRtRic& ric) {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end())
    it = nodes_.emplace(std::string(node_id), Node{}).first;
  Node& node = it->second;
  if (node.ric != &ric) {
    const std::string ns = kind_ == oran::IndicationKind::kSpectrogram
                               ? oran::kNsSpectrogram
                               : oran::kNsKpm;
    oran::Sdl& sdl = ric.sdl();
    node.ric = &ric;
    node.telemetry = sdl.resolve(app_id(), ns, it->first + "/current");
    node.decision =
        sdl.resolve(app_id(), oran::kNsDecisions, "ic/" + it->first);
  }
  return node;
}

void MaliciousXApp::on_indication(const oran::E2Indication& ind,
                                  oran::NearRtRic& ric) {
  if (ind.kind != kind_) return;
  Node& node = node_for(ind.ran_node_id, ric);
  nn::Tensor& input = input_;
  if (ric.sdl().read_tensor(node.telemetry, input) != oran::SdlStatus::kOk) {
    return;  // read access revoked — nothing this app can do
  }

  if (mode_ == Mode::kObserve) {
    // Pair the previous input with the victim's (now published) label.
    if (pending_input_.has_value()) {
      std::string label_text;
      if (ric.sdl().read_text(node.decision, label_text) ==
          oran::SdlStatus::kOk) {
        obs_x_.push_back(std::move(*pending_input_));
        obs_y_.push_back(std::stoi(label_text));
      }
    }
    pending_input_ = input;
    return;
  }

  // Attack mode: rewrite the telemetry entry before the victim reads it.
  nn::Tensor adversarial;
  if (uap_.has_value()) {
    adversarial = input;
    adversarial += *uap_;
    adversarial.clamp(0.0f, 1.0f);
  } else if (generator_) {
    if (window_ms_ <= 0.0) {
      // No timing model: perturb synchronously.
      adversarial = generator_(input);
    } else {
      // Single-threaded stream model: one sample arrives per window.
      stream_now_ms_ += window_ms_;

      const bool delta_ready =
          ready_delta_.has_value() && stream_now_ms_ >= busy_until_ms_;
      if (delta_ready) {
        // Apply the stale perturbation to the *current* sample.
        adversarial = input;
        adversarial += *ready_delta_;
        adversarial.clamp(0.0f, 1.0f);
        ready_delta_.reset();
      } else {
        ++missed_;  // generator still busy — sample passes clean
      }

      if (stream_now_ms_ >= busy_until_ms_) {
        // Generator idle: start working on the current (clean) sample,
        // charging its real wall-clock cost against the virtual stream.
        const auto t0 = std::chrono::steady_clock::now();
        nn::Tensor adv = generator_(input);
        const auto t1 = std::chrono::steady_clock::now();
        const double gen_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        busy_until_ms_ = stream_now_ms_ + gen_ms;
        adv -= input;
        ready_delta_ = std::move(adv);
      }
      if (adversarial.empty()) return;  // nothing to write this window
    }
  } else {
    return;  // armed with nothing
  }

  if (ric.sdl().write_tensor(node.telemetry, std::move(adversarial)) ==
      oran::SdlStatus::kOk) {
    ++applied_;
  } else {
    log_warn("malicious xApp write denied — policy is correctly scoped");
  }
}

}  // namespace orev::apps
