#include "util/sha256.hpp"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "util/check.hpp"

namespace orev {

namespace {

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void sha256_block_scalar(std::uint32_t* state, const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w{};
  for (std::size_t i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4], f = state[5], g = state[6], h = state[7];
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__) && defined(__GNUC__)

namespace {

/// Rounds 4g..4g+3: two sha256rnds2, each consuming two message+constant
/// words from the low half of `wk`.
__attribute__((target("sha,sse4.1"))) inline void shani_rounds(
    __m128i& abef, __m128i& cdgh, __m128i msg, int g) {
  __m128i wk = _mm_add_epi32(
      msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * g])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  wk = _mm_shuffle_epi32(wk, 0x0e);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

/// W[4g..4g+3] → W[4g+16..4g+19] in place of `w0`, given the three newer
/// schedule groups w1 = W[4g+4..], w2 = W[4g+8..], w3 = W[4g+12..].
__attribute__((target("sha,sse4.1"))) inline void shani_schedule(
    __m128i& w0, __m128i w1, __m128i w2, __m128i w3) {
  w0 = _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
      w3);
}

}  // namespace

__attribute__((target("sha,sse4.1"))) void sha256_block_shani(
    std::uint32_t* state, const std::uint8_t* block) {
  // Big-endian message words; state rearranged into the ABEF/CDGH lane
  // order sha256rnds2 works on.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xf0);
  const __m128i abef0 = abef;
  const __m128i cdgh0 = cdgh;

  __m128i w[4];
  for (int i = 0; i < 4; ++i)
    w[i] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
        bswap);
  for (int g = 0; g < 16; g += 4) {
    shani_rounds(abef, cdgh, w[0], g);
    if (g < 12) shani_schedule(w[0], w[1], w[2], w[3]);
    shani_rounds(abef, cdgh, w[1], g + 1);
    if (g < 12) shani_schedule(w[1], w[2], w[3], w[0]);
    shani_rounds(abef, cdgh, w[2], g + 2);
    if (g < 12) shani_schedule(w[2], w[3], w[0], w[1]);
    shani_rounds(abef, cdgh, w[3], g + 3);
    if (g < 12) shani_schedule(w[3], w[0], w[1], w[2]);
  }

  abef = _mm_add_epi32(abef, abef0);
  cdgh = _mm_add_epi32(cdgh, cdgh0);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool sha256_shani_supported() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}

#else

void sha256_block_shani(std::uint32_t* state, const std::uint8_t* block) {
  sha256_block_scalar(state, block);
}

bool sha256_shani_supported() { return false; }

#endif

}  // namespace detail

namespace {

/// The block compression this CPU runs, chosen once.
using BlockFn = void (*)(std::uint32_t*, const std::uint8_t*);
BlockFn process_block() {
  static const BlockFn fn = detail::sha256_shani_supported()
                                ? detail::sha256_block_shani
                                : detail::sha256_block_scalar;
  return fn;
}

}  // namespace

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
  finished_ = false;
}

void Sha256::update(const void* data, std::size_t len) {
  OREV_CHECK(!finished_, "Sha256::update after finish");
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;
  while (len > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == buffer_.size()) {
      process_block()(state_.data(), buffer_.data());
      buffer_len_ = 0;
    }
  }
}

Sha256::Digest Sha256::finish() {
  OREV_CHECK(!finished_, "Sha256::finish called twice");
  finished_ = true;

  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80 then zeros until 8 bytes remain in the block.
  std::uint8_t pad = 0x80;
  finished_ = false;  // allow padding updates through update()
  update(&pad, 1);
  const std::uint8_t zero = 0;
  while (buffer_len_ != 56) update(&zero, 1);
  std::array<std::uint8_t, 8> len_be{};
  for (int i = 0; i < 8; ++i) {
    len_be[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(len_be.data(), len_be.size());
  finished_ = true;

  Digest d{};
  for (std::size_t i = 0; i < 8; ++i) {
    d[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    d[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

std::string Sha256::to_hex(const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t byte : d) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

std::string Sha256::hex(std::string_view s) {
  Sha256 h;
  h.update(s);
  return to_hex(h.finish());
}

}  // namespace orev
