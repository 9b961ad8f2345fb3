// Deterministic, seedable random number generation.
//
// All stochastic components in the library (weight init, dataset synthesis,
// channel fading, attack initialisation) draw from an orev::Rng so that
// every experiment is reproducible from a single seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace orev {

/// Seeded pseudo-random generator with the distribution helpers the library
/// needs. It produces exactly the output sequence of `std::mt19937_64(seed)`
/// but computes the first 156 draws lazily: most streams (citysim's
/// per-event `split` streams) take a handful of draws, and a full engine
/// costs a 312-step seeding plus a 312-word twist before its first output.
///
/// Why a prefix is cheap: the engine seeds `x[0] = s`,
/// `x[i] = f·(x[i−1] ⊕ x[i−1]≫62) + i`, and output i < 156 of the first
/// twist reads only `x[i]`, `x[i+1]` and `x[i+156]` (not yet overwritten at
/// that point). So three running seed words serve the prefix: the first
/// draw primes `x[156]`, each later draw advances each word one step. At
/// draw 156 a real engine is materialised (seeded, discarded 156) and
/// serves every draw after. `Rng` is itself the URBG handed to the std::
/// distributions, which depend only on the output sequence, so every value
/// matches the engine bit for bit.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed) : seed_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// The next raw 64-bit output of the mt19937_64 sequence.
  result_type operator()() {
    if (pos_ < kPrefix) return prefix_draw();
    if (!engine_) {
      engine_.emplace(seed_);
      engine_->discard(kPrefix);
    }
    return (*engine_)();
  }

  /// Uniform float in [lo, hi).
  float uniform(float lo = 0.0f, float hi = 1.0f) {
    OREV_CHECK(lo <= hi, "uniform bounds inverted");
    return std::uniform_real_distribution<float>(lo, hi)(*this);
  }

  /// Standard normal scaled by `stddev` around `mean`. The unit draw is
  /// scaled here, with libstdc++'s own float ops in its order, so a zero
  /// stddev (which std::normal_distribution forbids) returns `mean` and
  /// advances the engine exactly as any other stddev does.
  float normal(float mean = 0.0f, float stddev = 1.0f) {
    return std::normal_distribution<float>(0.0f, 1.0f)(*this) * stddev + mean;
  }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    OREV_CHECK(lo <= hi, "uniform_int bounds inverted");
    return std::uniform_int_distribution<int>(lo, hi)(*this);
  }

  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(*this); }

  /// In-place Fisher–Yates shuffle of an index vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), *this);
  }

  /// Derive an independent child generator; useful for giving each
  /// subsystem its own stream while keeping one master seed. Advances this
  /// generator's state, so successive forks differ.
  Rng fork() { return Rng((*this)()); }

  /// Counter-based stream derivation: a generator that depends only on
  /// this generator's construction seed and `stream_id` — never on how
  /// many draws have been made. This is the primitive that makes
  /// per-sample randomness independent of iteration order and thread
  /// schedule: give sample i the stream `base.split(i)` and the result is
  /// identical whether the samples run serially or fanned out over a pool.
  Rng split(std::uint64_t stream_id) const {
    // SplitMix64 finalizer over the (seed, stream) pair; full avalanche
    // keeps adjacent stream ids statistically independent.
    std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ull * (stream_id + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return Rng(z ^ (z >> 31));
  }

  /// The seed this generator was constructed with (the `split` base).
  std::uint64_t seed() const { return seed_; }

  /// Exact engine-state serialisation (the standard's textual mt19937_64
  /// representation, which round-trips bit-for-bit). Checkpoints store
  /// this so a resumed run continues the *same* draw sequence instead of
  /// restarting the stream. Distribution helpers construct a fresh
  /// std::*_distribution per call, so the engine is the whole state.
  /// Mid-prefix, the text is that of an engine seeded and discarded to the
  /// current draw count.
  std::string engine_state() const {
    std::ostringstream os;
    if (engine_) {
      os << *engine_;
    } else {
      std::mt19937_64 e(seed_);
      e.discard(pos_);
      os << e;
    }
    return os.str();
  }

  /// Restore a state produced by engine_state(); false on parse failure
  /// (the generator is left unchanged in that case).
  bool set_engine_state(const std::string& state) {
    std::istringstream is(state);
    std::mt19937_64 candidate;
    is >> candidate;
    if (is.fail()) return false;
    engine_ = candidate;
    pos_ = kPrefix;
    return true;
  }

 private:
  static constexpr std::uint32_t kPrefix = 156;  // mt19937_64's n − m

  /// Seed-sequence step: x[i] from x[i−1].
  static std::uint64_t seed_step(std::uint64_t prev, std::uint64_t i) {
    return 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }

  /// Draw `pos_` (< 156) of the first twist from the running words
  /// lo_ = x[pos_], lo1_ = x[pos_+1], hi_ = x[pos_+156].
  result_type prefix_draw() {
    if (pos_ == 0) {
      lo_ = seed_;
      lo1_ = seed_step(lo_, 1);
      hi_ = lo1_;
      for (std::uint64_t i = 2; i <= kPrefix; ++i) hi_ = seed_step(hi_, i);
    } else {
      lo_ = lo1_;
      lo1_ = seed_step(lo1_, pos_ + 1);
      hi_ = seed_step(hi_, pos_ + kPrefix);
    }
    ++pos_;
    // Twist: upper 33 bits of x[i], lower 31 of x[i+1]. The matrix term
    // is masked, not selected: a branch on y's low bit mispredicts half
    // the time.
    const std::uint64_t y =
        (lo_ & ~0x7fffffffull) | (lo1_ & 0x7fffffffull);
    std::uint64_t z =
        hi_ ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ull);
    // Tempering.
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

  std::uint64_t seed_;
  std::uint32_t pos_ = 0;  // draws served from the prefix (kPrefix: done)
  std::uint64_t lo_ = 0, lo1_ = 0, hi_ = 0;
  std::optional<std::mt19937_64> engine_;  // draws ≥ 156, or restored
};

}  // namespace orev
