#include <gtest/gtest.h>

#include "backend/ssa_backend.hpp"
#include "bigint/mul.hpp"
#include "ssa/batch.hpp"
#include "ssa/multiply.hpp"
#include "ssa/pack.hpp"
#include "ssa/params.hpp"
#include "ssa/resident.hpp"
#include "ssa/workspace.hpp"
#include "util/rng.hpp"

namespace hemul::ssa {
namespace {

using bigint::BigUInt;
using fp::Fp;
using fp::FpVec;

TEST(SsaParams, PaperConfiguration) {
  const SsaParams p = SsaParams::paper();
  EXPECT_EQ(p.coeff_bits, 24u);
  EXPECT_EQ(p.num_coeffs, 32768u);
  EXPECT_EQ(p.transform_size, 65536u);
  EXPECT_EQ(p.max_operand_bits(), 786432u);
}

TEST(SsaParams, ForBitsPicksExactConfigurations) {
  for (const std::size_t bits : {1u, 64u, 1000u, 10000u, 100000u, 786432u, 1000000u}) {
    const SsaParams p = SsaParams::for_bits(bits);
    EXPECT_GE(p.max_operand_bits(), bits);
    EXPECT_NO_THROW(p.validate());
  }
  EXPECT_THROW(SsaParams::for_bits(0), std::invalid_argument);
}

TEST(SsaParams, ForBitsHeadroomShrinksTheConvolutionBudget) {
  // Headroom h demands n * (2^m - 1)^2 < p / 2^h: the picked geometry must
  // stay exact with the stricter budget, and enough headroom must force a
  // smaller coefficient width (or larger transform) than the h = 0 pick.
  for (const unsigned headroom : {0u, kResidentHeadroomBits, 12u}) {
    const SsaParams p = SsaParams::for_bits(4096, headroom);
    EXPECT_GE(p.max_operand_bits(), 4096u) << headroom;
    EXPECT_NO_THROW(p.validate()) << headroom;
    const u128 max_coeff = (u128{1} << p.coeff_bits) - 1;
    EXPECT_LT(u128{p.num_coeffs} * max_coeff * max_coeff,
              u128{fp::kModulus} >> headroom)
        << headroom;
  }
}

TEST(SsaParams, ForProductsFitsTheLargestFold) {
  // for_products(bits, k) is the widest m with k * n * (2^m - 1)^2 < p:
  // one product reproduces for_bits(bits), the paper's operands get the
  // paper's geometry, and the headroom geometry admits at least 2^h
  // products.
  EXPECT_EQ(SsaParams::for_products(786432, 1).transform_size, SsaParams::paper().transform_size);
  EXPECT_EQ(SsaParams::for_products(786432, 1).coeff_bits, SsaParams::paper().coeff_bits);
  EXPECT_EQ(SsaParams::for_bits(786432, kResidentHeadroomBits).transform_size, 131072u);
  for (const std::size_t bits : {1u, 417u, 4096u, 32768u, 786432u}) {
    const SsaParams one = SsaParams::for_products(bits, 1);
    EXPECT_EQ(one.coeff_bits, SsaParams::for_bits(bits).coeff_bits) << bits;
    EXPECT_EQ(one.transform_size, SsaParams::for_bits(bits).transform_size) << bits;
    const u64 cap = SsaParams::for_bits(bits, kResidentHeadroomBits).max_products();
    EXPECT_GE(cap, u64{1} << kResidentHeadroomBits) << bits;
    for (const u64 k : {u64{2}, u64{23}, cap}) {
      const SsaParams p = SsaParams::for_products(bits, k);
      EXPECT_GE(p.max_products(), k) << bits << " x" << k;
      EXPECT_GE(p.max_operand_bits(), bits) << bits << " x" << k;
      if (p.coeff_bits < 26) {
        SsaParams wider = p;
        wider.coeff_bits += 1;
        wider.num_coeffs = (bits + wider.coeff_bits - 1) / wider.coeff_bits;
        EXPECT_LT(wider.max_products(), k) << bits << " x" << k;
      }
    }
  }
  EXPECT_THROW(SsaParams::for_products(0, 1), std::invalid_argument);
  EXPECT_THROW(SsaParams::for_products(4096, 0), std::invalid_argument);
  EXPECT_THROW(SsaParams::for_products(4096, ~u64{0}), std::invalid_argument);
}

TEST(SsaParams, ValidateCatchesInexactness) {
  SsaParams p = SsaParams::paper();
  p.coeff_bits = 31;  // 2^15 * (2^31-1)^2 >> p: convolution would overflow
  EXPECT_THROW(p.validate(), std::logic_error);
}

TEST(SsaParams, ValidateCatchesMissingHeadroom) {
  SsaParams p = SsaParams::paper();
  p.num_coeffs = 65536;  // no 2x padding: cyclic wraparound would corrupt
  EXPECT_THROW(p.validate(), std::logic_error);
}

TEST(Pack, DecomposesKnownPattern) {
  // 24-bit groups of 0x[c2][c1][c0] with c_i = i+1.
  const SsaParams p = SsaParams::paper();
  const BigUInt x = BigUInt::from_hex("000003" "000002" "000001");
  const FpVec v = pack(x, p);
  EXPECT_EQ(v[0], Fp{1});
  EXPECT_EQ(v[1], Fp{2});
  EXPECT_EQ(v[2], Fp{3});
  for (std::size_t i = 3; i < 64; ++i) EXPECT_EQ(v[i], fp::kZero);
  EXPECT_EQ(v.size(), 65536u);
}

TEST(Pack, RejectsOversizedOperand) {
  const SsaParams p = SsaParams::for_bits(100);
  util::Rng rng(1);
  EXPECT_THROW(pack(BigUInt::random_bits(rng, p.max_operand_bits() + 1), p),
               std::logic_error);
}

TEST(Pack, CarryRecoverInvertsPackForInRangeCoeffs) {
  const SsaParams p = SsaParams::for_bits(3000);
  util::Rng rng(2);
  const BigUInt x = BigUInt::random_bits(rng, 3000);
  EXPECT_EQ(carry_recover(pack(x, p), p.coeff_bits), x);
}

TEST(CarryRecover, PropagatesLongCarryChains) {
  // Coefficients of 2^m - 1 everywhere force carries through every group.
  const std::size_t m = 24;
  const std::size_t n = 100;
  FpVec coeffs(n, Fp::from_canonical((1ULL << m) - 1));
  // sum_i (2^m - 1) 2^(m i) = 2^(m n) - 1.
  EXPECT_EQ(carry_recover(coeffs, m), BigUInt::pow2(m * n) - BigUInt{1});
}

TEST(CarryRecover, HandlesLargeOverlappingCoefficients) {
  // Convolution coefficients can be up to ~2^63; neighbours overlap by 40
  // bits for m = 24.
  FpVec coeffs(3, Fp::from_canonical(0x7FFF'FFFF'FFFF'FFFFULL));
  const BigUInt expected = (BigUInt::from_hex("7fffffffffffffff")) +
                           (BigUInt::from_hex("7fffffffffffffff") << 24) +
                           (BigUInt::from_hex("7fffffffffffffff") << 48);
  EXPECT_EQ(carry_recover(coeffs, 24), expected);
}

TEST(SsaParams, ForBitsClampsTinyOperandsToTheSmallestFourStepSplit) {
  // 1..26-bit operands pack into one coefficient; the transform still gets
  // the 4 points a 2 x 2 four-step split needs.
  for (const std::size_t bits : {1u, 13u, 26u}) {
    const SsaParams p = SsaParams::for_bits(bits);
    EXPECT_EQ(p.num_coeffs, 1u) << bits;
    EXPECT_EQ(p.transform_size, 4u) << bits;
  }
  SsaParams p = SsaParams::for_bits(1);
  p.transform_size = 2;
  EXPECT_THROW(p.validate(), std::logic_error);
}

/// Operand sizes at the small end of the single engine: 1 and 26 bits
/// (one coefficient, clamped to 4 points), 27 (two coefficients), 100, 416
/// (the largest 32-point geometry) and 417 (the smallest 64-point one).
constexpr std::size_t kTinyBits[] = {1, 26, 27, 100, 416, 417};

// Multiplication correctness across sizes.
class SsaMultiply : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SsaMultiply, MatchesSchoolbook) {
  const std::size_t bits = GetParam();
  util::Rng rng(bits);
  const SsaParams params = SsaParams::for_bits(bits);
  for (int i = 0; i < 3; ++i) {
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits);
    EXPECT_EQ(multiply(a, b, params), bigint::mul_schoolbook(a, b));
    EXPECT_EQ(square(a, params), bigint::mul_schoolbook(a, a));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SsaMultiply,
                         ::testing::Values(1, 26, 27, 100, 416, 417, 1000, 4096, 10000,
                                           30000));

TEST(SsaTinyOperands, BatchedPreparedAndBackendPathsMatchSchoolbook) {
  // Tiny operands run four-step at 4-32 points (64 at 417 bits). The
  // batched, prepared and backend entry points must agree with schoolbook
  // multiplication there; SsaMultiply covers multiply/square and
  // test_ntt_four_step the spectrum domain at the same sizes.
  for (const std::size_t bits : kTinyBits) {
    util::Rng rng(0x7E57 + bits);
    const SsaParams params = SsaParams::for_bits(bits);
    EXPECT_GE(params.transform_size, 4u) << bits;
    EXPECT_LE(params.transform_size, bits <= 416 ? 32u : 64u) << bits;

    // All-ones operands pin every coefficient at its maximum.
    const BigUInt ones = BigUInt::pow2(bits) - BigUInt{1};
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits);
    for (const auto& [x, y] : {std::pair{a, b}, std::pair{ones, ones}, std::pair{a, ones}}) {
      const BigUInt expected = bigint::mul_schoolbook(x, y);

      const PreparedSpectrum prepared(x, params);
      EXPECT_EQ(prepared.multiply(y), expected) << bits;
      EXPECT_EQ(prepared.multiply(x), bigint::mul_schoolbook(x, x)) << bits;

      const std::vector<std::pair<BigUInt, BigUInt>> jobs = {{x, y}, {x, x}, {y, x}};
      const std::vector<BigUInt> products = multiply_batch(jobs, params);
      ASSERT_EQ(products.size(), jobs.size());
      for (std::size_t k = 0; k < jobs.size(); ++k) {
        EXPECT_EQ(products[k], bigint::mul_schoolbook(jobs[k].first, jobs[k].second))
            << bits << " job " << k;
      }

      backend::SsaBackend engine;
      EXPECT_EQ(engine.multiply(x, y), expected) << bits;
      EXPECT_EQ(engine.square(y), bigint::mul_schoolbook(y, y)) << bits;
    }
  }
}

TEST(SsaMultiply, EdgeValues) {
  const SsaParams p = SsaParams::for_bits(1000);
  const BigUInt one{1};
  const BigUInt big = BigUInt::pow2(1000) - BigUInt{1};
  EXPECT_EQ(multiply(BigUInt{}, big, p), BigUInt{});
  EXPECT_EQ(multiply(big, BigUInt{}, p), BigUInt{});
  EXPECT_EQ(multiply(one, big, p), big);
  EXPECT_EQ(multiply(big, big, p),
            BigUInt::pow2(2000) - BigUInt::pow2(1001) + BigUInt{1});
}

TEST(SsaMultiply, PaperSizeFullMultiplication) {
  // The headline workload: two 786,432-bit operands through the paper's
  // exact parameterization (m=24, 64K-point transform), validated against
  // Karatsuba.
  const SsaParams params = SsaParams::paper();
  util::Rng rng(786432);
  const BigUInt a = BigUInt::random_bits(rng, 786432);
  const BigUInt b = BigUInt::random_bits(rng, 786432);
  SsaStats stats;
  const BigUInt product = multiply(a, b, params, &stats);
  EXPECT_EQ(product, bigint::mul_karatsuba(a, b));
  // A product of two n-bit numbers has 2n-1 or 2n bits.
  EXPECT_GE(product.bit_length(), 2u * 786432 - 1);
  EXPECT_LE(product.bit_length(), 2u * 786432);
  EXPECT_EQ(stats.pointwise_muls, 65536u);  // paper: 65536-component dot product
  EXPECT_EQ(stats.transform_count, 3u);     // two forward + one inverse
}

TEST(SsaMultiply, AutoWrapperPicksWorkingParams) {
  util::Rng rng(61);
  const BigUInt a = BigUInt::random_bits(rng, 2500);
  const BigUInt b = BigUInt::random_bits(rng, 700);
  EXPECT_EQ(mul_ssa(a, b), bigint::mul_schoolbook(a, b));
  EXPECT_EQ(mul_ssa(BigUInt{}, a), BigUInt{});
}

TEST(SsaSquare, MatchesMultiply) {
  util::Rng rng(70);
  for (const std::size_t bits : {500u, 3000u, 20000u}) {
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const SsaParams params = SsaParams::for_bits(bits);
    const BigUInt expected = bigint::mul_schoolbook(a, a);
    EXPECT_EQ(square(a, params), expected) << bits;
    EXPECT_EQ(multiply(a, a, params), expected) << bits;
  }
}

TEST(SsaSquare, TransformCountIsTwo) {
  util::Rng rng(71);
  const BigUInt a = BigUInt::random_bits(rng, 5000);
  const SsaParams params = SsaParams::for_bits(5000);
  SsaStats mul_stats;
  SsaStats sq_stats;
  (void)multiply(a, a, params, &mul_stats);
  (void)square(a, params, &sq_stats);
  EXPECT_EQ(mul_stats.transform_count, 3u);
  EXPECT_EQ(sq_stats.transform_count, 2u);  // the saved forward transform
}

TEST(SsaSquare, ZeroAndEdges) {
  const SsaParams params = SsaParams::for_bits(1000);
  EXPECT_EQ(square(BigUInt{}, params), BigUInt{});
  EXPECT_EQ(square(BigUInt{1}, params), BigUInt{1});
  const BigUInt ones = BigUInt::pow2(1000) - BigUInt{1};
  EXPECT_EQ(square(ones, params), BigUInt::pow2(2000) - BigUInt::pow2(1001) + BigUInt{1});
}

TEST(SsaStatsAccounting, BatchTransformCountReflectsCacheHits) {
  // A batch of one operand against N others runs N+1 forwards + N
  // inverses -- not the naive 3N.
  util::Rng rng(81);
  const BigUInt shared = BigUInt::random_bits(rng, 6000);
  std::vector<std::pair<BigUInt, BigUInt>> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.emplace_back(shared, BigUInt::random_bits(rng, 6000));
  }
  const SsaParams params = SsaParams::for_bits(6000);
  BatchStats stats;
  const auto products = multiply_batch(jobs, params, &stats);
  EXPECT_EQ(stats.forward_transforms, 6u);
  EXPECT_EQ(stats.inverse_transforms, 5u);
  EXPECT_EQ(stats.transform_count(), 11u);  // 2N+1, not 3N = 15
  EXPECT_EQ(stats.spectrum_cache_hits, 4u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(products[i], bigint::mul_schoolbook(jobs[i].first, jobs[i].second));
  }
}

TEST(SpectrumDomain, LazyBoundTrackingSurvivesAdversarialAccumulation) {
  // All-ones operands pin every packed coefficient at 2^m - 1, the worst
  // case for the lazy coefficient bound. With kResidentHeadroomBits of
  // headroom the domain must accept a deep stack of pointwise-accumulated
  // products, refuse exactly when the tracked bound would reach p, and
  // materialize the exact integer sum from the redundant spectrum.
  const SsaParams params = SsaParams::for_bits(1024, kResidentHeadroomBits);
  Workspace workspace;
  const SpectrumDomain domain(params, workspace);

  const BigUInt ones = BigUInt::pow2(1024) - BigUInt(1);
  Spectrum sa, sb;
  domain.enter(sa, ones);
  domain.enter(sb, ones);
  EXPECT_EQ(sa.coeff_bound, domain.operand_bound());
  ASSERT_TRUE(domain.can_multiply(sa, sb));

  Spectrum product;
  domain.multiply(product, sa, sb);
  const u128 product_bound =
      sa.coeff_bound * sb.coeff_bound * u128{std::min(sa.degree, sb.degree)};
  EXPECT_EQ(product.coeff_bound, product_bound);
  EXPECT_LT(product_bound, u128{fp::kModulus} >> kResidentHeadroomBits);

  // Stack products until the tracked bound refuses; the refusal must
  // come from the bound alone (headroom guarantees >= 2^h - 1 addends).
  Spectrum acc;
  u64 accumulated = 0;
  while (domain.can_accumulate(acc, product)) {
    domain.accumulate(acc, product);
    ++accumulated;
    ASSERT_EQ(acc.coeff_bound, u128{accumulated} * product_bound);
    ASSERT_LT(accumulated, u64{1} << 20) << "bound tracking never refused";
  }
  EXPECT_GE(accumulated, (u64{1} << kResidentHeadroomBits) - 1);
  EXPECT_GE(acc.coeff_bound + product.coeff_bound, u128{fp::kModulus});

  const BigUInt one_product = bigint::mul_schoolbook(ones, ones);
  BigUInt expected;
  for (u64 k = 0; k < accumulated; ++k) expected += one_product;
  BigUInt materialized;
  domain.leave(materialized, acc);
  EXPECT_EQ(materialized, expected);
}

TEST(SsaMultiply, IntoVariantReusesOutputAndAliasesSafely) {
  util::Rng rng(82);
  const BigUInt a = BigUInt::random_bits(rng, 5000);
  const BigUInt b = BigUInt::random_bits(rng, 5000);
  const SsaParams params = SsaParams::for_bits(5000);
  Workspace workspace;

  BigUInt out;
  multiply_into(out, a, b, params, workspace);
  EXPECT_EQ(out, bigint::mul_schoolbook(a, b));

  // Aliasing: accumulate into one of the operands (a ladder step).
  BigUInt acc = a;
  multiply_into(acc, acc, b, params, workspace);
  EXPECT_EQ(acc, out);

  // Zero short-circuit clears a reused output.
  multiply_into(out, BigUInt{}, b, params, workspace);
  EXPECT_EQ(out, BigUInt{});
}

TEST(SsaMultiply, CommutesAndSquares) {
  util::Rng rng(62);
  const BigUInt a = BigUInt::random_bits(rng, 8000);
  const BigUInt b = BigUInt::random_bits(rng, 8000);
  EXPECT_EQ(mul_ssa(a, b), mul_ssa(b, a));
  EXPECT_EQ(mul_ssa(a, a), bigint::mul_karatsuba(a, a));
}

}  // namespace
}  // namespace hemul::ssa
