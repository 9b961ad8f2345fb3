// The spectrogram IC xApp's victim and inputs, shared by spectrogram_cnn
// and attack_campaign.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "nn/model.hpp"
#include "serve/engine.hpp"

namespace perfbench {

/// Trained BaseCNN over the bench suite's default 24×24 spectrograms. It is
/// part of the system: trained from fixed seeds, whatever the workload seed.
orev::nn::Model train_spectrogram_victim(bool tiny);

/// `n` spectrograms from ran::make_spectrogram, half with interference,
/// drawn from the workload seed.
struct SpectroPool {
  std::vector<orev::nn::Tensor> x;
  std::vector<int> y;  // ground truth (ran::kLabelInterference = CWI)
  /// Rows [first, first + n) as one [n, 1, H, W] batch.
  orev::nn::Tensor batch(std::size_t first, std::size_t n) const;
};
SpectroPool make_spectro_pool(std::uint64_t seed, int n);

/// The victim's serving shape: one replica, batch_max 32, no defense.
orev::serve::ServeConfig spectro_serve_config(const char* name);

/// One spectrogram indication from `node` (its payload a fresh copy, the
/// RAN side's one allocation on the move path).
orev::oran::E2Indication spectro_indication(const char* node,
                                            std::uint64_t tti,
                                            const orev::nn::Tensor& x);

/// Node ids the spectrogram indications rotate over.
inline constexpr const char* kSpectroNodes[] = {"ran-0", "ran-1", "ran-2",
                                                "ran-3", "ran-4", "ran-5",
                                                "ran-6", "ran-7"};

}  // namespace perfbench
