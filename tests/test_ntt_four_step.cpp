#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bigint/mul.hpp"
#include "ntt/four_step.hpp"
#include "ntt/mixed_radix.hpp"
#include "ntt/reference.hpp"
#include "ssa/multiply.hpp"
#include "ssa/pack.hpp"
#include "ssa/params.hpp"
#include "ssa/resident.hpp"
#include "ssa/workspace.hpp"
#include "util/rng.hpp"

namespace hemul::ntt {
namespace {

using bigint::BigUInt;
using fp::Fp;
using fp::FpVec;

FpVec random_vec(util::Rng& rng, std::size_t n) {
  FpVec v(n);
  for (auto& x : v) x = Fp{rng.next()};
  return v;
}

/// Worst case for the redundant representation: every input pinned at the
/// largest canonical value p - 1.
FpVec adversarial_vec(std::size_t n) { return FpVec(n, Fp::from_canonical(fp::kModulus - 1)); }

// ---- natural-order golden parity -----------------------------------------

class FourStepVsReference : public ::testing::TestWithParam<u64> {};

TEST_P(FourStepVsReference, ForwardMatchesDirectDft) {
  const u64 n = GetParam();
  const FourStepNtt engine(n);
  ASSERT_EQ(engine.n1() * engine.n2(), n);
  util::Rng rng(n);
  FpVec data = random_vec(rng, n);
  const FpVec expected = dft_reference(data, engine.root());
  FpVec scratch;
  engine.forward(data, scratch);
  EXPECT_EQ(data, expected);
}

TEST_P(FourStepVsReference, ForwardMatchesMixedRadixBitExactly) {
  // Same root hierarchy => directly comparable natural-order spectra from
  // the independent mixed-radix engine on its pure radix-2 plan.
  const u64 n = GetParam();
  const FourStepNtt four(n);
  const MixedRadixNtt& mixed = shared_mixed_radix(NttPlan::pure_radix2(n));
  ASSERT_EQ(four.root(), mixed.root());
  util::Rng rng(n + 1);
  FpVec a = random_vec(rng, n);
  const FpVec expected = mixed.forward(a);
  FpVec scratch;
  four.forward(a, scratch);
  EXPECT_EQ(a, expected);
}

TEST_P(FourStepVsReference, RoundTrip) {
  const u64 n = GetParam();
  const FourStepNtt engine(n);
  util::Rng rng(n + 7);
  const FpVec orig = random_vec(rng, n);
  FpVec data = orig;
  FpVec scratch;
  engine.forward(data, scratch);
  EXPECT_NE(data, orig);
  engine.inverse(data, scratch);
  EXPECT_EQ(data, orig);
}

TEST_P(FourStepVsReference, SpectrumRoundTrip) {
  const u64 n = GetParam();
  const FourStepNtt engine(n);
  util::Rng rng(n + 13);
  const FpVec orig = random_vec(rng, n);
  FpVec data = orig;
  FpVec scratch;
  engine.forward_spectrum(data, scratch);
  engine.inverse_from_spectrum(data, scratch);
  EXPECT_EQ(data, orig);
}

TEST_P(FourStepVsReference, AdversarialMaxValueRoundTrip) {
  // All-(p-1) inputs stress the lazy-reduction bounds of every pass.
  const u64 n = GetParam();
  const FourStepNtt engine(n);
  const FpVec orig = adversarial_vec(n);
  FpVec data = orig;
  FpVec scratch;
  engine.forward_spectrum(data, scratch);
  engine.inverse_from_spectrum(data, scratch);
  EXPECT_EQ(data, orig);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FourStepVsReference,
                         ::testing::Values(4, 8, 16, 64, 256, 1024, 4096));

// ---- non-square splits ---------------------------------------------------

class FourStepSplits : public ::testing::TestWithParam<std::pair<u64, u64>> {};

TEST_P(FourStepSplits, ForwardMatchesReferenceAndRoundTrips) {
  const auto [n1, n2] = GetParam();
  const u64 n = n1 * n2;
  const FourStepNtt engine(n1, n2);
  EXPECT_EQ(engine.n1(), n1);
  EXPECT_EQ(engine.n2(), n2);
  util::Rng rng(n1 * 31 + n2);
  const FpVec orig = random_vec(rng, n);

  FpVec data = orig;
  FpVec scratch;
  engine.forward(data, scratch);
  EXPECT_EQ(data, dft_reference(orig, engine.root()));
  engine.inverse(data, scratch);
  EXPECT_EQ(data, orig);

  data = orig;
  engine.forward_spectrum(data, scratch);
  engine.inverse_from_spectrum(data, scratch);
  EXPECT_EQ(data, orig);
}

TEST_P(FourStepSplits, ConvolveMatchesReference) {
  const auto [n1, n2] = GetParam();
  const u64 n = n1 * n2;
  const FourStepNtt engine(n1, n2);
  util::Rng rng(n1 * 37 + n2);
  const FpVec a = random_vec(rng, n);
  const FpVec b = random_vec(rng, n);
  const FpVec expected = cyclic_convolve_reference(a, b);

  FpVec fa = a, fb = b, scratch;
  engine.convolve_into(fa, fb, scratch);
  EXPECT_EQ(fa, expected);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FourStepSplits,
                         ::testing::Values(std::pair<u64, u64>{2, 8},
                                           std::pair<u64, u64>{8, 2},
                                           std::pair<u64, u64>{4, 16},
                                           std::pair<u64, u64>{16, 4},
                                           std::pair<u64, u64>{128, 16},
                                           std::pair<u64, u64>{16, 128},
                                           std::pair<u64, u64>{2, 2048}));

TEST(FourStepInputChecks, RejectsBadSizesSplitsAndLengths) {
  for (const u64 n : {0u, 1u, 2u, 48u}) {
    EXPECT_THROW(FourStepNtt{n}, std::logic_error) << "n = " << n;
  }
  EXPECT_THROW(FourStepNtt(3, 16), std::logic_error);
  EXPECT_THROW(FourStepNtt(1, 64), std::logic_error);

  const FourStepNtt engine(16);
  FpVec wrong(8, fp::kZero);
  FpVec scratch;
  EXPECT_THROW(engine.forward(wrong, scratch), std::logic_error);
}

// ---- convolution parity --------------------------------------------------

TEST(FourStepConvolve, MatchesReferenceAcrossSizes) {
  for (const u64 n : {16u, 256u, 1024u, 4096u}) {
    const FourStepNtt engine(n);
    util::Rng rng(n + 3);
    const FpVec a = random_vec(rng, n);
    const FpVec b = random_vec(rng, n);
    FpVec fa = a, fb = b, scratch;
    engine.convolve_into(fa, fb, scratch);
    EXPECT_EQ(fa, cyclic_convolve_reference(a, b)) << "n = " << n;
  }
}

TEST(FourStepConvolve, AdversarialMaxValueOperands) {
  for (const u64 n : {1024u, 2048u}) {
    const FourStepNtt engine(n);
    const FpVec a = adversarial_vec(n);
    const FpVec expected = cyclic_convolve_reference(a, a);
    FpVec fa = a, fb = a, scratch;
    engine.convolve_into(fa, fb, scratch);
    EXPECT_EQ(fa, expected) << "n = " << n;

    fa = a;
    engine.convolve_square_into(fa, scratch);
    EXPECT_EQ(fa, expected) << "square n = " << n;
  }
}

TEST(FourStepConvolve, FromSpectraMatchesDirect) {
  const u64 n = 1024;
  const FourStepNtt engine(n);
  util::Rng rng(5);
  const FpVec a = random_vec(rng, n);
  const FpVec b = random_vec(rng, n);

  FpVec fa = a, fb = b, scratch;
  engine.forward_spectrum(fa, scratch);
  engine.forward_spectrum(fb, scratch);
  FpVec out;
  engine.convolve_from_spectra(out, fa, fb, scratch);

  FpVec direct_a = a, direct_b = b;
  engine.convolve_into(direct_a, direct_b, scratch);
  EXPECT_EQ(out, direct_a);
}

// ---- ssa routing ---------------------------------------------------------

/// The ssa size list: 1..417-bit operands exercise the smallest four-step
/// splits (4-64 points), then larger geometries.
constexpr std::size_t kSsaBits[] = {1, 26, 27, 100, 416, 417, 1000, 4096, 20000};

/// The product through the O(n^2) reference convolution, independent of
/// the four-step engine.
BigUInt reference_product(const BigUInt& a, const BigUInt& b, const ssa::SsaParams& params) {
  return ssa::carry_recover(
      cyclic_convolve_reference(ssa::pack(a, params), ssa::pack(b, params)), params.coeff_bits);
}

TEST(SsaFourStep, MultiplyMatchesReferenceConvolution) {
  for (const std::size_t bits : kSsaBits) {
    util::Rng rng(bits);
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits);
    const ssa::SsaParams params = ssa::SsaParams::for_bits(bits);
    const FourStepNtt& engine = shared_four_step(params.transform_size);
    ASSERT_GE(engine.n1(), 2u) << bits;
    ASSERT_GE(engine.n2(), 2u) << bits;

    const BigUInt product = ssa::multiply(a, b, params);
    EXPECT_EQ(product, reference_product(a, b, params)) << bits;
    EXPECT_EQ(product, bigint::mul_schoolbook(a, b)) << bits;
    EXPECT_EQ(ssa::square(a, params), reference_product(a, a, params)) << bits;
  }
}

TEST(SsaFourStep, AdversarialAllOnesOperands) {
  for (const std::size_t bits : kSsaBits) {
    const BigUInt ones = BigUInt::pow2(bits) - BigUInt(1);
    const ssa::SsaParams params = ssa::SsaParams::for_bits(bits);
    EXPECT_EQ(ssa::multiply(ones, ones, params), bigint::mul_schoolbook(ones, ones)) << bits;
  }
}

TEST(SsaFourStep, SpectrumDomainRoundTrips) {
  for (const std::size_t bits : kSsaBits) {
    const ssa::SsaParams params = ssa::SsaParams::for_bits(bits, ssa::kResidentHeadroomBits);
    ssa::Workspace workspace;
    const ssa::SpectrumDomain domain(params, workspace);

    util::Rng rng(23 + bits);
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits);
    ssa::Spectrum sa, sb;
    domain.enter(sa, a);
    domain.enter(sb, b);
    ASSERT_TRUE(domain.can_multiply(sa, sb)) << bits;
    ssa::Spectrum product;
    domain.multiply(product, sa, sb);

    // Lazy accumulate twice, then leave: 2ab, exactly.
    ssa::Spectrum acc;
    ASSERT_TRUE(domain.can_accumulate(acc, product)) << bits;
    domain.accumulate(acc, product);
    ASSERT_TRUE(domain.can_accumulate(acc, product)) << bits;
    domain.accumulate(acc, product);
    BigUInt materialized;
    domain.leave(materialized, acc);
    const BigUInt ab = bigint::mul_schoolbook(a, b);
    EXPECT_EQ(materialized, ab + ab) << bits;
  }
}

}  // namespace
}  // namespace hemul::ntt
