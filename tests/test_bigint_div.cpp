#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "backend/registry.hpp"
#include "bigint/biguint.hpp"
#include "bigint/div.hpp"
#include "bigint/mul.hpp"
#include "util/rng.hpp"

namespace hemul::bigint {
namespace {

TEST(DivSmall, KnownValues) {
  auto [q, r] = divmod_small(BigUInt{100}, 7);
  EXPECT_EQ(q, BigUInt{14});
  EXPECT_EQ(r, 2u);
  EXPECT_THROW(divmod_small(BigUInt{1}, 0), std::domain_error);
}

TEST(DivKnuth, TrivialCases) {
  const BigUInt a{100};
  const BigUInt b{7};
  EXPECT_EQ(a / b, BigUInt{14});
  EXPECT_EQ(a % b, BigUInt{2});
  EXPECT_EQ(b / a, BigUInt{});   // divisor larger than dividend
  EXPECT_EQ(b % a, b);
  EXPECT_EQ(a / a, BigUInt{1});  // equal operands
  EXPECT_EQ(a % a, BigUInt{});
  EXPECT_THROW(a / BigUInt{}, std::domain_error);
}

TEST(DivKnuth, PowerOfTwoDivisorsMatchShifts) {
  util::Rng rng(11);
  const BigUInt x = BigUInt::random_bits(rng, 2000);
  for (const std::size_t s : {1u, 63u, 64u, 65u, 700u}) {
    EXPECT_EQ(x / BigUInt::pow2(s), x >> s) << s;
  }
}

// The fundamental invariant a = q*b + r with 0 <= r < b, over a wide
// dividend/divisor size grid.
struct DivCase {
  std::size_t dividend_bits;
  std::size_t divisor_bits;
};

class DivInvariant : public ::testing::TestWithParam<DivCase> {};

TEST_P(DivInvariant, QuotientRemainderReconstruct) {
  const auto [na, nb] = GetParam();
  util::Rng rng(na * 1000 + nb);
  for (int i = 0; i < 10; ++i) {
    const BigUInt a = BigUInt::random_bits(rng, na);
    const BigUInt b = BigUInt::random_bits(rng, nb);
    const auto [q, r] = divmod_knuth(a, b);
    EXPECT_LT(r, b);
    EXPECT_EQ(mul_auto(q, b) + r, a);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeGrid, DivInvariant,
    ::testing::Values(DivCase{64, 64}, DivCase{128, 64}, DivCase{128, 65},
                      DivCase{256, 128}, DivCase{1000, 100}, DivCase{1000, 999},
                      DivCase{1000, 1000}, DivCase{1001, 1000}, DivCase{4096, 128},
                      DivCase{4096, 4000}, DivCase{10000, 5000}, DivCase{20000, 19999}));

TEST(DivKnuth, AddBackCornerCase) {
  // Classic Algorithm D stress: dividend/divisor patterns engineered so the
  // qhat estimate overshoots and step D6 (add back) must fire. The pattern
  // u = [0, all-ones, high-half] over v = [all-ones, high-half] is the
  // standard trigger (cf. Hacker's Delight 9-2 test vectors).
  const u64 ones = ~0ULL;
  const u64 high = 1ULL << 63;
  const BigUInt u = BigUInt::from_limbs({0, ones, high - 1});
  const BigUInt v = BigUInt::from_limbs({ones, high});
  const auto [q, r] = divmod_knuth(u, v);
  EXPECT_EQ(mul_auto(q, v) + r, u);
  EXPECT_LT(r, v);
}

TEST(DivKnuth, QhatSaturationCase) {
  // Top dividend digit equal to the top divisor digit drives qhat to the
  // 2^64-1 saturation path.
  const u64 top = 0x8000000000000000ULL;
  const BigUInt u = BigUInt::from_limbs({123, 456, top});
  const BigUInt v = BigUInt::from_limbs({789, top});
  const auto [q, r] = divmod_knuth(u, v);
  EXPECT_EQ(mul_auto(q, v) + r, u);
  EXPECT_LT(r, v);
}

TEST(DivKnuth, ExactDivision) {
  util::Rng rng(13);
  const BigUInt b = BigUInt::random_bits(rng, 777);
  const BigUInt q0 = BigUInt::random_bits(rng, 500);
  const BigUInt a = mul_auto(b, q0);
  const auto [q, r] = divmod_knuth(a, b);
  EXPECT_EQ(q, q0);
  EXPECT_TRUE(r.is_zero());
}

TEST(ModCentered, SmallValues) {
  const BigUInt m{10};
  // 3 mod 10 -> +3 ; 7 mod 10 -> -3 ; 5 mod 10 -> +5 (boundary inclusive).
  auto r3 = mod_centered(BigUInt{3}, m);
  EXPECT_EQ(r3.magnitude, BigUInt{3});
  EXPECT_FALSE(r3.negative);
  auto r7 = mod_centered(BigUInt{7}, m);
  EXPECT_EQ(r7.magnitude, BigUInt{3});
  EXPECT_TRUE(r7.negative);
  auto r5 = mod_centered(BigUInt{5}, m);
  EXPECT_EQ(r5.magnitude, BigUInt{5});
  EXPECT_FALSE(r5.negative);
}

TEST(ModCentered, ReconstructsResidue) {
  util::Rng rng(15);
  const BigUInt m = BigUInt::random_bits(rng, 300);
  for (int i = 0; i < 20; ++i) {
    const BigUInt a = BigUInt::random_bits(rng, 900);
    const auto c = mod_centered(a, m);
    const BigUInt plain = a % m;
    if (c.negative) {
      EXPECT_EQ(m - c.magnitude, plain);
    } else {
      EXPECT_EQ(c.magnitude, plain);
    }
    // Centered magnitude never exceeds m/2 (2*mag <= m).
    BigUInt twice = c.magnitude;
    twice <<= 1;
    EXPECT_LE(twice, m);
  }
}

// --- division dispatch: Knuth vs cached Barrett ------------------------------

/// Installs the backend registry's multiplication hook, so Barrett's
/// products run where they do in the library's users: SSA from
/// kSsaDispatchBits up.
void install_backend_dispatch() {
  (void)backend::Registry::instance();
  ASSERT_NE(mul_dispatch(), nullptr);
}

/// A random odd modulus with exactly `limbs` limbs (top bit set).
BigUInt odd_modulus(util::Rng& rng, std::size_t limbs) {
  BigUInt m = BigUInt::random_bits(rng, 64 * limbs);
  if (!m.is_odd()) m += BigUInt{1};
  return m;
}

/// `%`, `/` and divmod all agree with Knuth Algorithm D on x / m.
void expect_matches_knuth(const BigUInt& x, const BigUInt& m, const std::string& what) {
  const DivModResult expected = divmod_knuth(x, m);
  EXPECT_EQ(x % m, expected.remainder) << what;
  EXPECT_EQ(x / m, expected.quotient) << what;
  const DivModResult got = divmod(x, m);
  EXPECT_EQ(got.quotient, expected.quotient) << what;
  EXPECT_EQ(got.remainder, expected.remainder) << what;
}

struct ModulusSize {
  const char* name;
  std::size_t gamma_bits;      ///< the DGHV parameter set's x0 size
  std::size_t reducers_built;  ///< Barrett reducers the sweep builds
};

class DivDispatchSweep : public ::testing::TestWithParam<ModulusSize> {};

TEST_P(DivDispatchSweep, EveryOperatorMatchesKnuth) {
  install_backend_dispatch();
  const auto [name, gamma, reducers_built] = GetParam();
  util::Rng rng(gamma);
  const BigUInt x0 = odd_modulus(rng, gamma / 64);
  const BigUInt one{1};
  const BigUInt k = BigUInt::random_below(rng, x0);  // a long quotient
  const BigUInt a = BigUInt::random_below(rng, x0);
  const BigUInt b = BigUInt::random_below(rng, x0);
  const std::vector<std::pair<const char*, BigUInt>> dividends = {
      {"0", BigUInt{}},
      {"x0-1", x0 - one},
      {"(x0-1)^2", mul_auto(x0 - one, x0 - one)},
      {"k*x0", mul_auto(k, x0)},
      {"k*x0-1", mul_auto(k, x0) - one},
      {"x0*2^11", x0 << 11},       // an encryption before its reduction
      {"a*b", mul_auto(a, b)},     // a gate product
      {"x0^2", mul_auto(x0, x0)},  // >= m^2: Knuth fallback
      {"below x0", BigUInt::random_below(rng, x0)},
  };

  const ReciprocalCacheStats before = reciprocal_cache_stats();
  for (const auto& [label, x] : dividends) {
    expect_matches_knuth(x, x0, std::string(name) + ": " + label);
  }
  // From deep up, the modulus builds its reducer once, however many
  // divisions use it; toy stays on Knuth.
  EXPECT_EQ(x0.limb_count() >= kBarrettThresholdLimbs, reducers_built == 1) << name;
  EXPECT_EQ(reciprocal_cache_stats().misses - before.misses, reducers_built) << name;
}

// The DGHV parameter sets' x0 sizes (fhe::DghvParams toy / deep / medium /
// small_paper).
INSTANTIATE_TEST_SUITE_P(DghvModuli, DivDispatchSweep,
                         ::testing::Values(ModulusSize{"toy", 4096, 0},
                                           ModulusSize{"deep", 32768, 1},
                                           ModulusSize{"medium", 65536, 1},
                                           ModulusSize{"paper", 786432, 1}),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(DivDispatch, OnlyLongQuotientsBelowTheSquareTouchTheCache) {
  install_backend_dispatch();
  util::Rng rng(77);
  const std::size_t t = kBarrettThresholdLimbs;
  const BigUInt narrow = odd_modulus(rng, t - 1);
  const BigUInt m = odd_modulus(rng, t);
  const BigUInt other = odd_modulus(rng, t);

  const ReciprocalCacheStats start = reciprocal_cache_stats();
  const auto untouched = [&](const char* what) {
    const ReciprocalCacheStats now = reciprocal_cache_stats();
    EXPECT_EQ(now.hits, start.hits) << what;
    EXPECT_EQ(now.misses, start.misses) << what;
  };
  // Sub-threshold divisor, even with a full-length product.
  expect_matches_knuth(
      mul_auto(BigUInt::random_below(rng, narrow), BigUInt::random_below(rng, narrow)), narrow,
      "sub-threshold");
  untouched("sub-threshold divisor");
  // Short quotients: an encryption, a ciphertext sum, the longest short one.
  expect_matches_knuth(m << 11, m, "encrypt-shaped");
  expect_matches_knuth(BigUInt::random_below(rng, m) + BigUInt::random_below(rng, m), m, "sum");
  expect_matches_knuth(BigUInt::random_bits(rng, 64 * (2 * t - 1)), m, "short quotient");
  untouched("short quotient");
  // A dividend with more bits than m^2 can have.
  expect_matches_knuth(mul_auto(m, m) << 2, m, ">= m^2");
  untouched(">= m^2");

  // Gate products: each modulus's reducer is built once, then reused.
  for (const BigUInt* modulus : {&m, &other, &m, &other, &m}) {
    const BigUInt x = mul_auto(BigUInt::random_below(rng, *modulus),
                               BigUInt::random_below(rng, *modulus));
    expect_matches_knuth(x, *modulus, "gate product");
  }
  const ReciprocalCacheStats end = reciprocal_cache_stats();
  // expect_matches_knuth divides three times: 15 lookups, 2 builds.
  EXPECT_EQ(end.misses - start.misses, 2u);
  EXPECT_EQ(end.hits - start.hits, 13u);
  EXPECT_LE(end.entries, kReciprocalCacheCapacity);
}

TEST(DivDispatch, CacheStopsGrowingAtItsCapacity) {
  install_backend_dispatch();
  util::Rng rng(78);
  const ReciprocalCacheStats start = reciprocal_cache_stats();
  std::vector<BigUInt> moduli;
  for (std::size_t i = 0; i < kReciprocalCacheCapacity + 2; ++i) {
    moduli.push_back(odd_modulus(rng, kBarrettThresholdLimbs));
    const BigUInt x = BigUInt::random_below(rng, mul_auto(moduli.back(), moduli.back()));
    EXPECT_EQ(x % moduli.back(), divmod_knuth(x, moduli.back()).remainder) << i;
    EXPECT_LE(reciprocal_cache_stats().entries, kReciprocalCacheCapacity) << i;
  }
  const ReciprocalCacheStats full = reciprocal_cache_stats();
  EXPECT_EQ(full.misses - start.misses, kReciprocalCacheCapacity + 2);
  EXPECT_EQ(full.entries, kReciprocalCacheCapacity);

  // Least recently used goes first: the newest modulus is still cached,
  // the oldest was evicted and is built again.
  const BigUInt x = mul_auto(moduli.back() - BigUInt{1}, moduli.back() - BigUInt{1});
  EXPECT_EQ(x % moduli.back(), divmod_knuth(x, moduli.back()).remainder);
  EXPECT_EQ(reciprocal_cache_stats().misses, full.misses);
  const BigUInt y = mul_auto(moduli.front() - BigUInt{1}, moduli.front() - BigUInt{1});
  EXPECT_EQ(y % moduli.front(), divmod_knuth(y, moduli.front()).remainder);
  EXPECT_EQ(reciprocal_cache_stats().misses, full.misses + 1);
  EXPECT_EQ(reciprocal_cache_stats().entries, kReciprocalCacheCapacity);
}

TEST(DivDecimal, LargeRoundTrip) {
  // End-to-end decimal conversion uses division internally.
  util::Rng rng(19);
  const BigUInt x = BigUInt::random_bits(rng, 4000);
  EXPECT_EQ(BigUInt::from_dec(x.to_dec()), x);
}

}  // namespace
}  // namespace hemul::bigint
