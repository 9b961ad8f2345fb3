#include "spectro.hpp"

#include "apps/model_zoo.hpp"
#include "ran/datasets.hpp"
#include "ran/spectrogram.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

orev::ran::SpectrogramConfig spectro_config() {
  orev::ran::SpectrogramConfig c;
  c.freq_bins = 24;
  c.time_frames = 24;
  return c;
}

}  // namespace

orev::nn::Model train_spectrogram_victim(bool tiny) {
  const orev::data::Dataset all = orev::ran::make_spectrogram_dataset(
      spectro_config(), tiny ? 24 : 96, 4242);
  orev::Rng split_rng(0x51);
  const orev::data::Split split =
      orev::data::stratified_split(all, 0.8, split_rng);
  orev::nn::Model victim =
      orev::apps::make_base_cnn(all.sample_shape(), all.num_classes, 11);
  orev::nn::TrainConfig tc;
  tc.max_epochs = tiny ? 2 : 6;
  tc.learning_rate = 2e-3f;
  tc.early_stop_patience = 3;
  orev::nn::Trainer(tc).fit(victim, split.train.x, split.train.y, split.test.x,
                            split.test.y);
  return victim;
}

orev::nn::Tensor SpectroPool::batch(std::size_t first, std::size_t n) const {
  const orev::nn::Shape& s = x[first].shape();
  orev::nn::Tensor out({static_cast<int>(n), s[0], s[1], s[2]});
  for (std::size_t i = 0; i < n; ++i)
    out.set_batch(static_cast<int>(i), x[first + i]);
  return out;
}

SpectroPool make_spectro_pool(std::uint64_t seed, int n) {
  SpectroPool p;
  const orev::Rng base(seed);
  for (int i = 0; i < n; ++i) {
    orev::Rng rng = base.split(static_cast<std::uint64_t>(i));
    const bool cwi = i % 2 == 1;
    p.x.push_back(orev::ran::make_spectrogram(spectro_config(), cwi, rng));
    p.y.push_back(cwi ? orev::ran::kLabelInterference : orev::ran::kLabelClean);
  }
  return p;
}

orev::serve::ServeConfig spectro_serve_config(const char* name) {
  orev::serve::ServeConfig c;
  c.name = name;
  c.batch_max = 32;
  c.replicas = 1;
  return c;
}

orev::oran::E2Indication spectro_indication(const char* node,
                                            std::uint64_t tti,
                                            const orev::nn::Tensor& x) {
  orev::oran::E2Indication ind;
  ind.ran_node_id = node;
  ind.tti = tti;
  ind.kind = orev::oran::IndicationKind::kSpectrogram;
  ind.payload = x;
  return ind;
}

}  // namespace perfbench
