// O-RAN-specific runtime defenses — the §7/§8 future-work mechanisms:
//
//   * SdlWriteMonitor — behavioural attestation of SDL writes: each
//     namespace declares its expected writers; any successful write by an
//     unexpected identity (e.g. a "KPI processor" rewriting telemetry the
//     platform owns) raises an alert. This catches the §3.1 injection
//     path regardless of the perturbation's subtlety.
//   * TelemetryDriftDetector — streaming per-feature anomaly detection on
//     telemetry tensors (a CalibrationProfile's Welford running
//     mean/variance, max-|z| score): flags statistical drift that bounded
//     adversarial perturbations introduce into otherwise stationary
//     KPM/spectrogram streams.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "defense/detectors.hpp"
#include "nn/tensor.hpp"
#include "oran/sdl.hpp"

namespace orev::defense {

/// One attestation alert.
struct WriteAlert {
  std::string ns;
  std::string key;
  std::string writer;
};

class SdlWriteMonitor {
 public:
  /// Declare the set of identities expected to write a namespace
  /// (exact-match namespaces; call once per protected namespace).
  void expect_writers(const std::string& ns,
                      std::set<std::string> writers);

  /// Scan the SDL audit log from `from_index` onwards; returns alerts for
  /// every *successful* write to a protected namespace by an unexpected
  /// identity, and advances the internal cursor.
  std::vector<WriteAlert> scan(const oran::Sdl& sdl);

  std::size_t alerts_raised() const { return alerts_; }

 private:
  std::map<std::string, std::set<std::string>> expected_;
  std::uint64_t cursor_ = 0;  // absolute audit sequence number
  std::size_t alerts_ = 0;
};

class TelemetryDriftDetector {
 public:
  /// `z_threshold` is the per-feature |z| above which a sample counts as
  /// drifted; `warmup` samples are consumed before scoring starts.
  explicit TelemetryDriftDetector(double z_threshold = 4.0, int warmup = 30);

  /// Ingest a clean-period sample (updates the running statistics).
  void observe(const nn::Tensor& sample);

  /// Max per-feature |z| of `sample` against the learned statistics;
  /// returns 0 while warming up.
  double score(const nn::Tensor& sample) const;

  /// Convenience: score ≥ threshold.
  bool is_anomalous(const nn::Tensor& sample) const;

  int samples_observed() const {
    return static_cast<int>(profile_.samples());
  }
  bool warmed_up() const { return samples_observed() >= warmup_; }

 private:
  double z_threshold_;
  int warmup_;
  CalibrationProfile profile_;
};

}  // namespace orev::defense
