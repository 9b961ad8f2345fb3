#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <sstream>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"

namespace orev {
namespace {

// ------------------------------------------------------------------ check

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(OREV_CHECK(1 + 1 == 2, "math"));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(OREV_CHECK(false, "boom"), CheckError);
}

TEST(Check, MessageContainsExpressionAndContext) {
  try {
    OREV_CHECK(2 > 3, "custom context");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 > 3"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

// ----------------------------------------------------------------- sha256

// NIST FIPS 180-4 test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(Sha256::hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                        "nopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(Sha256::to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(Sha256::to_hex(h.finish()), Sha256::hex("hello world"));
}

TEST(Sha256, ExactBlockBoundary) {
  const std::string block(64, 'x');
  Sha256 h;
  h.update(block);
  // Should equal the one-shot digest of the same content.
  EXPECT_EQ(Sha256::to_hex(h.finish()), Sha256::hex(block));
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(Sha256::hex("a"), Sha256::hex("b"));
}

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 h;
  h.update("data");
  h.finish();
  EXPECT_THROW(h.update("more"), CheckError);
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update("first");
  h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(Sha256::to_hex(h.finish()), Sha256::hex("abc"));
}

// The SHA-NI block must be bit-equal to the portable block; the NIST
// vectors above already run on whichever block the CPU dispatches to.
TEST(Sha256Isa, ShaNiBlockMatchesScalar) {
  if (!detail::sha256_shani_supported()) GTEST_SKIP() << "CPU lacks SHA-NI";
  std::mt19937_64 e(0x5a5a);
  for (int trial = 0; trial < 2000; ++trial) {
    std::uint32_t a[8], b[8];
    std::uint8_t block[64];
    for (auto& w : a) w = static_cast<std::uint32_t>(e());
    std::memcpy(b, a, sizeof(a));
    for (auto& byte : block) byte = static_cast<std::uint8_t>(e());
    detail::sha256_block_scalar(a, block);
    detail::sha256_block_shani(b, block);
    ASSERT_EQ(0, std::memcmp(a, b, sizeof(a))) << "trial " << trial;
  }
}

/// Reference digest: FIPS 180-4 padding over the portable block only.
Sha256::Digest scalar_digest(const std::vector<std::uint8_t>& msg) {
  std::uint32_t st[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::vector<std::uint8_t> m = msg;
  m.push_back(0x80);
  while (m.size() % 64 != 56) m.push_back(0);
  const std::uint64_t bits = msg.size() * 8;
  for (int i = 7; i >= 0; --i)
    m.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  for (std::size_t off = 0; off < m.size(); off += 64)
    detail::sha256_block_scalar(st, m.data() + off);
  Sha256::Digest d{};
  for (std::size_t i = 0; i < 32; ++i)
    d[i] = static_cast<std::uint8_t>(st[i / 4] >> (24 - 8 * (i % 4)));
  return d;
}

TEST(Sha256Isa, SplitUpdatesMatchScalarReference) {
  std::mt19937_64 e(0xd16e57);
  for (std::size_t len = 0; len <= 300; ++len) {
    std::vector<std::uint8_t> msg(len);
    for (auto& byte : msg) byte = static_cast<std::uint8_t>(e());
    Sha256 h;
    std::size_t off = 0;
    while (off < len) {
      const std::size_t take = std::min<std::size_t>(len - off, e() % 80);
      h.update(msg.data() + off, take);
      off += take;
    }
    ASSERT_EQ(h.finish(), scalar_digest(msg)) << "len " << len;
  }
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i)
    if (a.uniform() != b.uniform()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformWithinBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = r.uniform(-2.0f, 5.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasApproxMoments) {
  Rng r(5);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.normal(2.0f, 3.0f);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, NormalWithZeroStddevReturnsMean) {
  // std::normal_distribution requires stddev > 0; Rng::normal draws the
  // unit normal and scales it, so a zero spread returns the mean and
  // leaves the engine exactly where a unit draw leaves it.
  for (const std::uint64_t seed : {1ull, 42ull, 0x5eedull}) {
    Rng zero(seed), unit(seed);
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(zero.normal(-3.25f, 0.0f), -3.25f) << "draw " << i;
      unit.normal(0.0f, 1.0f);
    }
    EXPECT_EQ(zero.engine_state(), unit.engine_state());
    EXPECT_EQ(zero(), unit());
  }
}

TEST(Rng, InvertedBoundsThrow) {
  Rng r(6);
  EXPECT_THROW(r.uniform(1.0f, 0.0f), CheckError);
  EXPECT_THROW(r.uniform_int(5, 2), CheckError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(7);
  Rng child = a.fork();
  // Child stream should not replay the parent's next values.
  Rng b(7);
  b.fork();
  EXPECT_EQ(a.uniform(), b.uniform());  // parents stay in sync
  (void)child;
}

TEST(Rng, ShuffleKeepsElements) {
  Rng r(8);
  std::vector<int> v = {1, 2, 3, 4, 5};
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

// Rng is the mt19937_64 output sequence with a lazily computed prefix;
// everything below pins it bit-equal to a plain engine across the 156-draw
// boundary where the prefix hands over to a materialised engine.

std::vector<std::uint64_t> equality_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, ~0ull, 0x5eed};
  const Rng base(0xfeed);
  for (std::uint64_t i = 0; i < 1000; ++i)
    seeds.push_back(base.split(i).seed());
  return seeds;
}

std::string state_text(const std::mt19937_64& e) {
  std::ostringstream os;
  os << e;
  return os.str();
}

TEST(Rng, RawDrawsBitEqualToMt19937_64) {
  for (const std::uint64_t seed : equality_seeds()) {
    Rng r(seed);
    std::mt19937_64 e(seed);
    for (int i = 0; i <= 700; ++i)
      ASSERT_EQ(r(), e()) << "seed " << seed << " draw " << i;
  }
}

TEST(Rng, DistributionsMatchStdOnPlainEngine) {
  for (const std::uint64_t seed : equality_seeds()) {
    Rng r(seed);
    std::mt19937_64 e(seed);
    // Six rounds of mixed helpers cross the 156-draw boundary.
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(r.uniform(-1.0f, 3.0f),
                  std::uniform_real_distribution<float>(-1.0f, 3.0f)(e));
        ASSERT_EQ(r.normal(0.5f, 2.0f),
                  std::normal_distribution<float>(0.5f, 2.0f)(e));
        ASSERT_EQ(r.uniform_int(-3, 17),
                  std::uniform_int_distribution<int>(-3, 17)(e));
        ASSERT_EQ(r.bernoulli(0.3), std::bernoulli_distribution(0.3)(e));
      }
      std::vector<int> a(9), b(9);
      for (int i = 0; i < 9; ++i) a[i] = b[i] = i;
      r.shuffle(a);
      std::shuffle(b.begin(), b.end(), e);
      ASSERT_EQ(a, b) << "seed " << seed;
      Rng child = r.fork();
      const std::uint64_t child_seed = e();
      ASSERT_EQ(child.seed(), child_seed);
      ASSERT_EQ(child(), std::mt19937_64(child_seed)());
    }
  }
}

TEST(Rng, EngineStateMatchesEngineAfterAnyDrawCount) {
  for (const std::uint64_t seed : {0ull, 1ull, ~0ull, 0x5eedull}) {
    for (const int n : {0, 1, 155, 156, 157, 400}) {
      Rng r(seed);
      std::mt19937_64 e(seed);
      for (int i = 0; i < n; ++i) {
        r();
        e();
      }
      EXPECT_EQ(r.engine_state(), state_text(e))
          << "seed " << seed << " after " << n;
    }
  }
}

TEST(Rng, SetEngineStateContinuesTheSequence) {
  for (const int n : {0, 1, 10, 155, 156, 157, 400}) {
    Rng src(77);
    std::mt19937_64 e(77);
    for (int i = 0; i < n; ++i) {
      src();
      e();
    }
    Rng dst(12345);
    dst();  // mid-prefix state that the restore must fully replace
    ASSERT_TRUE(dst.set_engine_state(src.engine_state()));
    EXPECT_EQ(dst.engine_state(), state_text(e));
    for (int i = 0; i < 400; ++i) ASSERT_EQ(dst(), e()) << "after " << n;
  }
  Rng r(9);
  std::mt19937_64 e(9);
  r();
  e();
  EXPECT_FALSE(r.set_engine_state("not an engine"));
  for (int i = 0; i < 300; ++i) ASSERT_EQ(r(), e());  // unchanged on failure
}

TEST(Rng, CopyMidPrefixContinuesIdentically) {
  for (const int n : {0, 1, 50, 155, 156, 200}) {
    Rng a(31);
    for (int i = 0; i < n; ++i) a();
    Rng b = a;
    std::mt19937_64 e(31);
    e.discard(static_cast<unsigned long long>(n));
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t want = e();
      ASSERT_EQ(a(), want) << "original after " << n;
      ASSERT_EQ(b(), want) << "copied after " << n;
    }
  }
}

// ------------------------------------------------------------------ stats

TEST(Stats, SummaryOfKnownSample) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummaryEmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(summarize({1.0, 2.0, 3.0, 4.0}).median, 2.5);
}

TEST(Stats, PercentileEndpointsAndMiddle) {
  std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW(percentile({}, 50.0), CheckError);
  EXPECT_THROW(percentile({1.0}, 101.0), CheckError);
}

TEST(Stats, CdfMonotoneAndBounded) {
  EmpiricalCdf cdf({3.0, 1.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf(3.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf(99.0), 1.0);
}

TEST(Stats, CdfTableSpansRange) {
  EmpiricalCdf cdf({0.0, 10.0});
  const auto table = cdf.table(11);
  ASSERT_EQ(table.size(), 11u);
  EXPECT_DOUBLE_EQ(table.front().first, 0.0);
  EXPECT_DOUBLE_EQ(table.back().first, 10.0);
  EXPECT_DOUBLE_EQ(table.back().second, 1.0);
}

TEST(Stats, CdfEmptyThrows) {
  EXPECT_THROW(EmpiricalCdf({}), CheckError);
}

// -------------------------------------------------------------------- csv

TEST(Csv, PlainRows) {
  CsvWriter w;
  w.header({"a", "b"});
  w.row(1, 2.5);
  EXPECT_EQ(w.str(), "a,b\n1,2.5\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvWriter w;
  w.row(std::string("hello, world"), std::string("quote\"inside"));
  EXPECT_EQ(w.str(), "\"hello, world\",\"quote\"\"inside\"\n");
}

TEST(Csv, MixedTypes) {
  CsvWriter w;
  w.row("name", 42, 3.14);
  EXPECT_EQ(w.str(), "name,42,3.14\n");
}

}  // namespace
}  // namespace orev
