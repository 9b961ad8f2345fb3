// Bounds-checked little-endian byte encoding for checkpoint payloads.
//
// ByteWriter appends primitives to a growing buffer; ByteReader decodes
// them back, refusing to read past the end. Every read returns bool so
// load paths can surface persist::StatusCode::kTruncated instead of
// consuming garbage. Length-prefixed strings validate their length against
// the remaining bytes *before* allocating, so a corrupted length field can
// never trigger a huge allocation.
#pragma once

#include <bit>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "util/persist/persist.hpp"

namespace orev::persist {

static_assert(std::endian::native == std::endian::little,
              "checkpoint encoding assumes a little-endian host");

class ByteWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f32(float v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  /// Length-prefixed (u64) byte string.
  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  /// Raw float array (caller writes the count separately).
  void f32s(std::span<const float> v) { raw(v.data(), v.size() * sizeof(float)); }

  void raw(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }
  /// Empty the buffer but keep its capacity, so one writer can encode
  /// record after record without reallocating.
  void clear() { buf_.clear(); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : buf_(bytes) {}

  bool u8(std::uint8_t& v) { return raw(&v, sizeof v); }
  bool u32(std::uint32_t& v) { return raw(&v, sizeof v); }
  bool u64(std::uint64_t& v) { return raw(&v, sizeof v); }
  bool i32(std::int32_t& v) { return raw(&v, sizeof v); }
  bool i64(std::int64_t& v) { return raw(&v, sizeof v); }
  bool f32(float& v) { return raw(&v, sizeof v); }
  bool f64(double& v) { return raw(&v, sizeof v); }

  bool str(std::string& out) {
    std::uint64_t n = 0;
    if (!u64(n) || n > remaining()) return fail();
    out.assign(buf_.data() + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  bool f32s(std::span<float> out) {
    return raw(out.data(), out.size() * sizeof(float));
  }

  bool raw(void* out, std::size_t n) {
    if (n > remaining()) return fail();
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  /// Advance past `n` bytes without copying; the skipped region stays
  /// addressable through `view_from`.
  bool skip(std::size_t n) {
    if (n > remaining()) return fail();
    pos_ += n;
    return true;
  }

  /// View of the underlying bytes from `from` to the current position.
  std::string_view view_between(std::size_t from, std::size_t to) const {
    return buf_.substr(from, to - from);
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return buf_.size() - pos_; }
  bool at_end() const { return pos_ == buf_.size(); }
  /// True once any read has run past the end of the buffer.
  bool failed() const { return failed_; }

  /// kTruncated when a previous read underflowed, kTrailingBytes when
  /// decoding finished with bytes left over — the common tail check for
  /// section decoders.
  Status finish(const std::string& what) const {
    if (failed_)
      return Status::Fail(StatusCode::kTruncated, what + " ends prematurely");
    if (!at_end())
      return Status::Fail(StatusCode::kTrailingBytes,
                          what + " has trailing bytes");
    return Status::Ok();
  }

 private:
  bool fail() {
    failed_ = true;
    return false;
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace orev::persist
