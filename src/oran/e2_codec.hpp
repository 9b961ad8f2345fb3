// Zero-copy binary KPM indication codec (DESIGN.md §16).
//
// The legacy E2 path builds an nn::Tensor per indication — one heap
// allocation (plus string churn) per message, which at city scale means
// millions of allocations per simulated second. This codec replaces the
// KPM hot path with a flat fixed-layout frame written into a reusable
// per-shard arena and decoded without any allocation at all.
//
// Frame layout (little-endian, 24 + 4·F bytes):
//
//   offset  size  field
//   0       4     magic "OKPM" (0x4d504b4f)
//   4       1     version (currently 1)
//   5       1     indication kind (0 = spectrogram, 1 = KPM)
//   6       2     feature count F (u16)
//   8       4     cell id (u32)
//   12      8     TTI (u64)
//   20      4·F   features (f32 × F)
//   20+4·F  4     CRC-32C over bytes [0, 20+4·F)
//
// The trailer is CRC-32C (persist::crc32c): hardware-assisted on SSE4.2
// machines, software fallback elsewhere, identical values either way, so
// digests over frame bytes stay platform-stable. On-disk formats keep the
// IEEE crc32 for compatibility; frames are in-memory transport only.
//
// Decode is persist/bytes.hpp-style defensive: every field is bounds-
// checked before use, the declared feature count is validated against the
// actual frame size before any feature is touched, and the trailing CRC
// rejects bit flips. A decoded KpmFrameView points into the caller's
// buffer; feature access goes through memcpy-based accessors because the
// feature array sits at offset 20 — not 4-float-aligned — and casting to
// float* would be undefined behaviour.
//
// NearRtRic::deliver_kpm_frame and the tensor-based deliver_indication()
// overloads share one delivery core; golden outputs that flow through the
// tensor path stay byte-identical.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "oran/e2.hpp"

namespace orev::oran {

/// "OKPM" little-endian.
inline constexpr std::uint32_t kKpmFrameMagic = 0x4d504b4fu;
inline constexpr std::uint8_t kKpmFrameVersion = 1;
/// Bytes before the feature array.
inline constexpr std::size_t kKpmFrameHeaderBytes = 20;
/// Trailing CRC32.
inline constexpr std::size_t kKpmFrameTrailerBytes = 4;

/// Encoded size of a frame carrying `features` floats.
constexpr std::size_t kpm_frame_size(std::size_t features) {
  return kKpmFrameHeaderBytes + features * sizeof(float) +
         kKpmFrameTrailerBytes;
}

enum class KpmDecodeStatus {
  kOk,
  kTooShort,    // shorter than the minimum frame
  kBadMagic,    // first 4 bytes are not "OKPM"
  kBadVersion,  // unknown frame version
  kBadKind,     // indication kind byte out of range
  kTruncated,   // declared feature count exceeds the frame's actual size
  kBadCrc,      // trailing CRC mismatch (bit flip in header or payload)
};

/// Stable name for reports/tests ("ok", "bad_crc", ...).
const char* kpm_decode_status_name(KpmDecodeStatus s);

/// A decoded frame: a non-owning view into the encoded bytes. Valid only
/// while the underlying buffer lives and is unmodified.
struct KpmFrameView {
  std::uint32_t cell_id = 0;
  std::uint64_t tti = 0;
  IndicationKind kind = IndicationKind::kKpm;
  std::uint16_t feature_count = 0;
  const char* feature_bytes = nullptr;  // unaligned f32 array

  /// Bounds-unchecked single-feature read (caller honors feature_count).
  float feature(std::size_t i) const {
    float v;
    std::memcpy(&v, feature_bytes + i * sizeof(float), sizeof(float));
    return v;
  }

  /// Copy all features into `out` (out.size() must be >= feature_count).
  void copy_features(std::span<float> out) const {
    std::memcpy(out.data(), feature_bytes,
                std::size_t{feature_count} * sizeof(float));
  }
};

/// Decode + validate one frame. On any non-kOk status `out` is untouched.
KpmDecodeStatus decode_kpm_frame(std::string_view bytes, KpmFrameView& out);

/// Reusable encode buffer: one per producer shard. After the first encode
/// at a shard's steady-state feature count, encoding allocates nothing —
/// the buffer is reused frame after frame (it never shrinks).
class KpmFrameArena {
 public:
  /// Encode one frame into the arena and return a view of its bytes. The
  /// view is invalidated by the next encode() on this arena.
  std::string_view encode(std::uint32_t cell_id, std::uint64_t tti,
                          IndicationKind kind, std::span<const float> features);

  std::size_t capacity() const { return buf_.capacity(); }

 private:
  std::string buf_;
};

}  // namespace orev::oran
