// Minimal SHA-256 implementation (FIPS 180-4).
//
// Used by the O-RAN onboarding pipeline (src/oran/onboarding.*) for xApp/rApp
// package integrity checks and by the simulated operator-signing scheme.
// Self-contained — no external crypto dependency. On x86-64 CPUs with the
// SHA extensions the block compression runs on sha256rnds2/msg1/msg2,
// selected once at runtime; elsewhere the portable block runs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace orev {

/// Incremental SHA-256 hasher. Typical use:
///   Sha256 h; h.update(bytes); auto digest = h.finish();
class Sha256 {
 public:
  using Digest = std::array<std::uint8_t, 32>;

  Sha256();

  /// Absorb `len` bytes.
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }

  /// Finalise and return the 32-byte digest. The hasher must not be reused
  /// after finish() without calling reset().
  Digest finish();

  void reset();

  /// One-shot convenience: hex digest of a string.
  static std::string hex(std::string_view s);
  /// Render a digest as lowercase hex.
  static std::string to_hex(const Digest& d);

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

namespace detail {

/// One SHA-256 compression of the 64-byte `block` into `state`. Sha256
/// dispatches to the SHA-NI block when the CPU has it; both are exposed so
/// tests can check them against each other.
void sha256_block_scalar(std::uint32_t* state, const std::uint8_t* block);
void sha256_block_shani(std::uint32_t* state, const std::uint8_t* block);
/// True when this build and CPU can run sha256_block_shani.
bool sha256_shani_supported();

}  // namespace detail

}  // namespace orev
