#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "backend/registry.hpp"
#include "bigint/barrett.hpp"
#include "bigint/div.hpp"
#include "bigint/mul.hpp"
#include "ssa/multiply.hpp"
#include "ssa/params.hpp"
#include "util/rng.hpp"

namespace hemul::bigint {
namespace {

TEST(Barrett, RejectsTinyModulus) {
  EXPECT_THROW(BarrettReducer(BigUInt{0}), std::invalid_argument);
  EXPECT_THROW(BarrettReducer(BigUInt{1}), std::invalid_argument);
  EXPECT_NO_THROW(BarrettReducer(BigUInt{2}));
}

TEST(Barrett, SmallKnownValues) {
  const BarrettReducer red(BigUInt{97});
  EXPECT_EQ(red.reduce(BigUInt{0}), BigUInt{0});
  EXPECT_EQ(red.reduce(BigUInt{96}), BigUInt{96});
  EXPECT_EQ(red.reduce(BigUInt{97}), BigUInt{0});
  EXPECT_EQ(red.reduce(BigUInt{98}), BigUInt{1});
  EXPECT_EQ(red.reduce(BigUInt{96 * 96}), BigUInt{(96 * 96) % 97});
}

TEST(Barrett, InputBoundChecked) {
  const BarrettReducer red(BigUInt{97});
  EXPECT_THROW((void)red.reduce(BigUInt{97 * 97}), std::logic_error);
}

class BarrettSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BarrettSweep, ReduceMatchesDivision) {
  const std::size_t bits = GetParam();
  util::Rng rng(bits);
  for (int rep = 0; rep < 5; ++rep) {
    const BigUInt m = BigUInt::random_bits(rng, bits);
    if (m < BigUInt{2}) continue;
    const BarrettReducer red(m);
    // x uniform below m^2.
    const BigUInt x = BigUInt::random_below(rng, mul_auto(m, m));
    EXPECT_EQ(red.reduce(x), x % m);
  }
}

TEST_P(BarrettSweep, ModMulMatchesDivision) {
  const std::size_t bits = GetParam();
  util::Rng rng(bits ^ 0xB);
  const BigUInt m = BigUInt::random_bits(rng, bits);
  const BarrettReducer red(m);
  for (int rep = 0; rep < 5; ++rep) {
    const BigUInt a = BigUInt::random_below(rng, m);
    const BigUInt b = BigUInt::random_below(rng, m);
    EXPECT_EQ(red.mod_mul(a, b), mul_auto(a, b) % m);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, BarrettSweep,
                         ::testing::Values(2, 63, 64, 65, 128, 1000, 4096, 10000));

TEST(Barrett, EdgeResiduesNearCorrection) {
  // Values just below m^2 exercise the final correction loop.
  util::Rng rng(42);
  const BigUInt m = BigUInt::random_bits(rng, 256);
  const BarrettReducer red(m);
  const BigUInt m2 = mul_auto(m, m);
  for (u64 delta = 1; delta <= 5; ++delta) {
    const BigUInt x = m2 - BigUInt{delta};
    EXPECT_EQ(red.reduce(x), x % m);
  }
}

TEST(Barrett, ModPow) {
  const BarrettReducer red(BigUInt{1000000007});
  // 2^10 = 1024; 3^0 = 1; 5^1 = 5.
  EXPECT_EQ(red.mod_pow(BigUInt{2}, BigUInt{10}), BigUInt{1024});
  EXPECT_EQ(red.mod_pow(BigUInt{3}, BigUInt{0}), BigUInt{1});
  EXPECT_EQ(red.mod_pow(BigUInt{5}, BigUInt{1}), BigUInt{5});
  // Fermat: a^(p-1) = 1 mod prime p.
  EXPECT_EQ(red.mod_pow(BigUInt{123456}, BigUInt{1000000006}), BigUInt{1});
}

TEST(Barrett, ModPowLarge) {
  util::Rng rng(7);
  const BigUInt m = BigUInt::random_bits(rng, 512);
  const BarrettReducer red(m);
  const BigUInt a = BigUInt::random_below(rng, m);
  // a^16 via mod_pow vs iterated squaring through plain division.
  BigUInt expected = a;
  for (int i = 0; i < 4; ++i) expected = mul_auto(expected, expected) % m;
  EXPECT_EQ(red.mod_pow(a, BigUInt{16}), expected);
}

TEST(Barrett, DefaultMultiplierReachesSsaAboveTheDispatchPoint) {
  // The registry installs bigint's dispatch hook; from kSsaDispatchBits up
  // the reducer's mul_auto products run on the SSA/NTT multiplier.
  (void)backend::Registry::instance();
  ASSERT_NE(mul_dispatch(), nullptr);
  util::Rng rng(9);
  const BigUInt m = BigUInt::random_bits(rng, backend::kSsaDispatchBits + 1000);
  const BarrettReducer red(m);
  const BigUInt a = BigUInt::random_below(rng, m);
  const BigUInt b = BigUInt::random_below(rng, m);
  EXPECT_EQ(red.mod_mul(a, b), divmod_knuth(mul_auto(a, b), m).remainder);
  // mod_mul = 1 product + 2 reduction multiplications.
  EXPECT_EQ(red.multiplications_used(), 3u);
}

TEST(Barrett, DivmodReturnsTheQuotientToo) {
  util::Rng rng(13);
  const BigUInt m = BigUInt::random_bits(rng, 700);
  const BarrettReducer red(m);
  EXPECT_EQ(red.modulus_squared(), mul_schoolbook(m, m));
  for (const BigUInt& x : {BigUInt{}, m - BigUInt{1}, m, mul_auto(m, m) - BigUInt{1},
                           BigUInt::random_below(rng, mul_auto(m, m))}) {
    const DivModResult expected = divmod_knuth(x, m);
    const DivModResult got = red.divmod(x);
    EXPECT_EQ(got.quotient, expected.quotient);
    EXPECT_EQ(got.remainder, expected.remainder);
  }
  EXPECT_THROW((void)red.divmod(mul_auto(m, m)), std::logic_error);
}

TEST(Barrett, ConcurrentDivisionsShareOneReducerPerModulus) {
  // Four threads divide at once through the division cache, at the
  // smallest size that takes the Barrett branch: threads 0 and 1 share one
  // modulus (and so one reducer and its counter), threads 2 and 3 have
  // their own.
  (void)backend::Registry::instance();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  util::Rng rng(21);
  std::vector<BigUInt> moduli;
  for (int i = 0; i < 3; ++i) {
    BigUInt m = BigUInt::random_bits(rng, 64 * kBarrettThresholdLimbs);
    if (!m.is_odd()) m += BigUInt{1};
    moduli.push_back(std::move(m));
  }
  const auto modulus_of = [&](int t) -> const BigUInt& { return moduli[t < 2 ? 0 : t - 1]; };

  std::vector<std::vector<BigUInt>> dividends(kThreads);
  std::vector<std::vector<BigUInt>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    const BigUInt& m = modulus_of(t);
    for (int i = 0; i < kPerThread; ++i) {
      dividends[t].push_back(
          mul_auto(BigUInt::random_below(rng, m), BigUInt::random_below(rng, m)));
      expected[t].push_back(divmod_knuth(dividends[t].back(), m).remainder);
    }
  }

  const ReciprocalCacheStats before = reciprocal_cache_stats();
  std::vector<std::vector<BigUInt>> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (const BigUInt& x : dividends[t]) results[t].push_back(x % modulus_of(t));
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(results[t], expected[t]) << "thread " << t;
  const ReciprocalCacheStats after = reciprocal_cache_stats();
  EXPECT_EQ(after.misses - before.misses, 3u) << "each modulus's reducer is built exactly once";
  EXPECT_EQ(after.hits - before.hits, static_cast<u64>(kThreads * kPerThread) - 3);
  EXPECT_LE(after.entries, kReciprocalCacheCapacity);
}

TEST(Barrett, MuLowIsThePrecomputedDivisionLessTwoToTheL) {
  const BigUInt m = BigUInt::from_dec("123456789123456789");
  const std::size_t bits = m.bit_length();
  const BarrettReducer red(m);
  EXPECT_EQ(red.prepared_mu_low().value(), BigUInt::pow2(2 * bits) / m - BigUInt::pow2(bits));
  EXPECT_EQ(red.prepared_modulus().value(), m);

  // m = 2^(L-1) is the one modulus with mu = 2^(L+1); mu_lo is capped
  // below 2^L so both products stay L bits wide, and reduce stays exact.
  const BarrettReducer pow2(BigUInt::pow2(40));
  EXPECT_EQ(pow2.prepared_mu_low().value(), BigUInt::pow2(41) - BigUInt{1});
  for (const BigUInt& x : {BigUInt::pow2(80) - BigUInt{1}, BigUInt::pow2(79) + BigUInt{12345},
                           BigUInt::pow2(40)}) {
    const DivModResult got = pow2.divmod(x);
    EXPECT_EQ(got.quotient, x >> 40);
    EXPECT_EQ(got.remainder, x - ((x >> 40) << 40));
  }
}

TEST(Barrett, ReduceMatchesKnuthOnEdgeDividends) {
  // Moduli whose bit length is not a multiple of 64 (an x0 of gamma - 1
  // bits, the smallest size of the division's Barrett branch) and ones on
  // either side of the SSA dispatch point. reduce() checks internally that
  // the quotient estimate needs at most 3 corrections and throws otherwise.
  (void)backend::Registry::instance();
  util::Rng rng(31);
  for (const std::size_t bits : {std::size_t{1000}, 64 * (kBarrettThresholdLimbs - 1) + 1,
                                 std::size_t{32767}, std::size_t{65535}}) {
    BigUInt m = BigUInt::random_bits(rng, bits);  // top bit set
    if (!m.is_odd()) m += BigUInt{1};
    ASSERT_EQ(m.bit_length(), bits);
    const BarrettReducer red(m);
    const BigUInt one{1};
    const BigUInt k = BigUInt::random_below(rng, m);
    for (const BigUInt& x : {BigUInt{}, mul_auto(m - one, m - one), mul_auto(k, m),
                             mul_auto(k, m) - one, mul_auto(m, m) - one,
                             BigUInt::random_below(rng, mul_auto(m, m))}) {
      const DivModResult expected = divmod_knuth(x, m);
      const DivModResult got = red.divmod(x);
      EXPECT_EQ(got.quotient, expected.quotient) << bits << " bits";
      EXPECT_EQ(got.remainder, expected.remainder) << bits << " bits";
      EXPECT_EQ(red.reduce(x), expected.remainder) << bits << " bits";
    }
  }
}

TEST(Barrett, PaperSizeProductsRunOnTheGateTransform) {
  // At gamma = 786,432 both reduction products have 786,432-bit operands,
  // so both prepared spectra use the gate's own 64K-point transform.
  (void)backend::Registry::instance();
  constexpr std::size_t kGamma = 786432;
  util::Rng rng(kGamma);
  BigUInt m = BigUInt::random_bits(rng, kGamma);
  if (!m.is_odd()) m += BigUInt{1};
  const BarrettReducer red(m);

  const u64 gate_transform = ssa::SsaParams::for_bits(kGamma).transform_size;
  EXPECT_EQ(gate_transform, 65536u);
  for (const PreparedOperand* prepared : {&red.prepared_modulus(), &red.prepared_mu_low()}) {
    const auto* spectrum = dynamic_cast<const ssa::PreparedSpectrum*>(prepared);
    ASSERT_NE(spectrum, nullptr);
    EXPECT_EQ(spectrum->params().transform_size, gate_transform);
  }

  const BigUInt x = mul_auto(BigUInt::random_below(rng, m), BigUInt::random_below(rng, m));
  const DivModResult got = red.divmod(x);
  EXPECT_EQ(mul_auto(got.quotient, m) + got.remainder, x);
  EXPECT_LT(got.remainder, m);
}

}  // namespace
}  // namespace hemul::bigint
