#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bigint/biguint.hpp"
#include "bigint/mul.hpp"
#include "util/rng.hpp"

namespace hemul::bigint {
namespace {

TEST(MulSchoolbook, KnownValues) {
  EXPECT_EQ(mul_schoolbook(BigUInt{6}, BigUInt{7}), BigUInt{42});
  EXPECT_EQ(mul_schoolbook(BigUInt{}, BigUInt{7}), BigUInt{});
  EXPECT_EQ(mul_schoolbook(BigUInt{7}, BigUInt{}), BigUInt{});
  EXPECT_EQ(mul_schoolbook(BigUInt{1}, BigUInt{7}), BigUInt{7});
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  const BigUInt max64 = BigUInt::from_hex("ffffffffffffffff");
  EXPECT_EQ(mul_schoolbook(max64, max64),
            BigUInt::pow2(128) - BigUInt::pow2(65) + BigUInt{1});
}

TEST(MulSchoolbook, PowersOfTwo) {
  for (std::size_t i : {0u, 1u, 63u, 64u, 100u}) {
    for (std::size_t j : {0u, 1u, 63u, 64u, 100u}) {
      EXPECT_EQ(mul_schoolbook(BigUInt::pow2(i), BigUInt::pow2(j)), BigUInt::pow2(i + j));
    }
  }
}

TEST(MulSchoolbook, DecimalCrossCheck) {
  const BigUInt a = BigUInt::from_dec("123456789012345678901234567890");
  const BigUInt b = BigUInt::from_dec("987654321098765432109876543210");
  EXPECT_EQ(mul_schoolbook(a, b).to_dec(),
            "121932631137021795226185032733622923332237463801111263526900");
}

// Karatsuba and Toom-3 must agree with schoolbook across a size sweep that
// straddles their recursion thresholds.
class MulAlgorithms : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MulAlgorithms, KaratsubaMatchesSchoolbook) {
  const std::size_t bits = GetParam();
  util::Rng rng(bits * 31 + 1);
  for (int i = 0; i < 3; ++i) {
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits);
    EXPECT_EQ(mul_karatsuba(a, b), mul_schoolbook(a, b));
  }
}

TEST_P(MulAlgorithms, Toom3MatchesSchoolbook) {
  const std::size_t bits = GetParam();
  util::Rng rng(bits * 37 + 2);
  for (int i = 0; i < 3; ++i) {
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits);
    EXPECT_EQ(mul_toom3(a, b), mul_schoolbook(a, b));
  }
}

TEST_P(MulAlgorithms, UnbalancedOperands) {
  const std::size_t bits = GetParam();
  util::Rng rng(bits * 41 + 3);
  const BigUInt a = BigUInt::random_bits(rng, bits);
  const BigUInt b = BigUInt::random_bits(rng, bits / 3 + 1);
  const BigUInt expected = mul_schoolbook(a, b);
  EXPECT_EQ(mul_karatsuba(a, b), expected);
  EXPECT_EQ(mul_toom3(a, b), expected);
  EXPECT_EQ(mul_auto(a, b), expected);
}

INSTANTIATE_TEST_SUITE_P(BitSizes, MulAlgorithms,
                         ::testing::Values(64, 128, 1000, 1536, 2048, 4096, 4160, 5120, 8192,
                                           16384, 20000, 40000));

TEST(MulAlgorithms, ThresholdBoundaries) {
  // Exercise operand sizes right at the dispatcher thresholds.
  util::Rng rng(17);
  for (const std::size_t limbs :
       {kKaratsubaThresholdLimbs - 1, kKaratsubaThresholdLimbs, kKaratsubaThresholdLimbs + 1,
        kToom3ThresholdLimbs - 1, kToom3ThresholdLimbs, kToom3ThresholdLimbs + 1}) {
    const BigUInt a = BigUInt::random_bits(rng, limbs * 64);
    const BigUInt b = BigUInt::random_bits(rng, limbs * 64);
    EXPECT_EQ(mul_auto(a, b), mul_schoolbook(a, b)) << limbs << " limbs";
  }
}

TEST(MulAlgorithms, ShortTimesLongShapes) {
  // The classical dispatcher picks its algorithm from the shorter operand:
  // schoolbook up to kKaratsubaThresholdLimbs, otherwise blocks of the long
  // operand as long as the short one (keygen's q_i * p is 12,264 x 25).
  util::Rng rng(29);
  for (const std::size_t long_limbs : {512u, 12264u}) {
    std::vector<u64> limbs(long_limbs);
    for (u64& limb : limbs) limb = rng.next() | 1;
    // Zero blocks in the middle: their products must add nothing.
    std::fill(limbs.begin() + 100, limbs.begin() + 300, 0);
    const BigUInt longer = BigUInt::from_limbs(std::move(limbs));
    for (const std::size_t short_limbs : {1u, 4u, 25u, 64u, 80u, 100u}) {
      const BigUInt shorter = BigUInt::random_bits(rng, 64 * short_limbs);
      const BigUInt expected = mul_schoolbook(shorter, longer);
      EXPECT_EQ(mul_auto_classical(shorter, longer), expected)
          << short_limbs << " x " << long_limbs << " limbs";
      EXPECT_EQ(mul_auto_classical(longer, shorter), expected)
          << long_limbs << " x " << short_limbs << " limbs";
    }
  }
}

TEST(MulProperties, SquareOfSumIdentity) {
  // (a+b)^2 = a^2 + 2ab + b^2 exercises add/mul interplay.
  util::Rng rng(23);
  const BigUInt a = BigUInt::random_bits(rng, 5000);
  const BigUInt b = BigUInt::random_bits(rng, 5000);
  const BigUInt lhs = mul_auto(a + b, a + b);
  const BigUInt ab = mul_auto(a, b);
  EXPECT_EQ(lhs, mul_auto(a, a) + (ab << 1) + mul_auto(b, b));
}

TEST(MulProperties, Distributivity) {
  util::Rng rng(29);
  const BigUInt a = BigUInt::random_bits(rng, 3000);
  const BigUInt b = BigUInt::random_bits(rng, 2500);
  const BigUInt c = BigUInt::random_bits(rng, 2000);
  EXPECT_EQ(mul_auto(a, b + c), mul_auto(a, b) + mul_auto(a, c));
}

TEST(MulProperties, Associativity) {
  util::Rng rng(31);
  const BigUInt a = BigUInt::random_bits(rng, 1200);
  const BigUInt b = BigUInt::random_bits(rng, 1100);
  const BigUInt c = BigUInt::random_bits(rng, 1000);
  EXPECT_EQ(mul_auto(mul_auto(a, b), c), mul_auto(a, mul_auto(b, c)));
}

TEST(MulEdgeCases, AllOnesPatterns) {
  // Operands of all-ones maximize internal carries in every algorithm.
  // 4,160 and 5,120 bits (65 and 80 limbs) sit just above
  // kKaratsubaThresholdLimbs: Karatsuba splits them once, into schoolbook.
  for (const std::size_t bits : {64u, 127u, 1536u, 4096u, 4160u, 5120u, 12000u}) {
    const BigUInt ones = BigUInt::pow2(bits) - BigUInt{1};
    const BigUInt expected = mul_schoolbook(ones, ones);
    EXPECT_EQ(mul_karatsuba(ones, ones), expected);
    EXPECT_EQ(mul_toom3(ones, ones), expected);
    // (2^n - 1)^2 = 2^(2n) - 2^(n+1) + 1
    EXPECT_EQ(expected, BigUInt::pow2(2 * bits) - BigUInt::pow2(bits + 1) + BigUInt{1});
  }
}

TEST(MulEdgeCases, SparseOperands) {
  // Mostly-zero limbs stress the Toom-3 signed interpolation.
  BigUInt a = BigUInt::pow2(40000) + BigUInt{1};
  BigUInt b = BigUInt::pow2(35000) + BigUInt::pow2(17);
  const BigUInt expected =
      BigUInt::pow2(75000) + BigUInt::pow2(40017) + BigUInt::pow2(35000) + BigUInt::pow2(17);
  EXPECT_EQ(mul_toom3(a, b), expected);
  EXPECT_EQ(mul_karatsuba(a, b), expected);
}

/// Checks add_into(acc, x, offset) against operator+ on a shifted copy, and
/// against operator- (an independent borrow loop, since operator+ itself
/// runs through add_into).
void expect_add_into(std::vector<u64> acc, const std::vector<u64>& x, std::size_t offset) {
  const BigUInt before = BigUInt::from_limbs(acc);
  const BigUInt shifted = BigUInt::from_limbs(x) << (64 * offset);
  const BigUInt expected = before + shifted;
  add_into(acc, x, offset);
  const BigUInt got = BigUInt::from_limbs(acc);
  EXPECT_EQ(got, expected) << x.size() << " limbs at offset " << offset;
  EXPECT_EQ(got - shifted, before) << x.size() << " limbs at offset " << offset;
}

std::vector<u64> random_limbs(util::Rng& rng, std::size_t n) {
  std::vector<u64> limbs(n);
  for (u64& limb : limbs) limb = rng.next();
  return limbs;
}

TEST(AddInto, MatchesShiftedAddAtRandomOffsets) {
  util::Rng rng(41);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t acc_limbs = rng.next() % 40;
    const std::size_t x_limbs = rng.next() % 40;
    const std::size_t offset = rng.next() % 24;
    expect_add_into(random_limbs(rng, acc_limbs), random_limbs(rng, x_limbs), offset);
  }
}

TEST(AddInto, EmptyOperandsAndShortAccumulators) {
  util::Rng rng(43);
  // An empty operand leaves the buffer exactly as it was, zero limbs and all.
  std::vector<u64> acc = {5, 0, 0};
  add_into(acc, {}, 7);
  EXPECT_EQ(acc, (std::vector<u64>{5, 0, 0}));
  // An empty accumulator becomes the shifted operand.
  const std::vector<u64> x = random_limbs(rng, 9);
  std::vector<u64> empty;
  add_into(empty, x, 3);
  ASSERT_EQ(empty.size(), 12u);
  EXPECT_TRUE(std::all_of(empty.begin(), empty.begin() + 3, [](u64 v) { return v == 0; }));
  EXPECT_TRUE(std::equal(x.begin(), x.end(), empty.begin() + 3));
  // Accumulators shorter than the operand, and shorter than its offset.
  expect_add_into(random_limbs(rng, 2), random_limbs(rng, 17), 0);
  expect_add_into(random_limbs(rng, 5), random_limbs(rng, 17), 4);
  expect_add_into(random_limbs(rng, 3), random_limbs(rng, 6), 11);
}

TEST(AddInto, AllOnesCarryChain) {
  const u64 ones = ~u64{0};
  // A carry out of the operand's top limb ripples through every all-ones
  // limb above it and appends one limb.
  for (const std::size_t offset : {0u, 1u, 5u}) {
    std::vector<u64> acc(64, ones);
    add_into(acc, std::vector<u64>{1}, offset);
    ASSERT_EQ(acc.size(), 65u) << offset;
    const BigUInt expected = BigUInt::pow2(64 * 64) + BigUInt::pow2(64 * offset) - BigUInt{1};
    EXPECT_EQ(BigUInt::from_limbs(acc), expected) << offset;
    expect_add_into(std::vector<u64>(64, ones), std::vector<u64>(64 - offset, ones), offset);
    expect_add_into(std::vector<u64>(8, ones), std::vector<u64>(32, ones), offset);
  }
  // A spare zero limb takes the carry without growing the buffer.
  std::vector<u64> sized(33, ones);
  sized.back() = 0;
  const u64* data = sized.data();
  add_into(sized, std::vector<u64>(32, ones), 0);
  EXPECT_EQ(sized.size(), 33u);
  EXPECT_EQ(sized.data(), data);
  EXPECT_EQ(sized.back(), 1u);
}

TEST(AddInto, OperatorPlusEqualsRunsTheKernel) {
  util::Rng rng(47);
  const BigUInt a = BigUInt::random_bits(rng, 3000);
  BigUInt doubled = a;
  doubled += doubled;  // the operand is the whole accumulator
  EXPECT_EQ(doubled, a << 1);
  BigUInt sum = a;
  sum += BigUInt{};
  EXPECT_EQ(sum, a);
  BigUInt grown{1};
  grown += BigUInt::pow2(4000) - BigUInt{1};
  EXPECT_EQ(grown, BigUInt::pow2(4000));
  EXPECT_EQ(grown.limb_count(), 4000u / 64 + 1);
}

}  // namespace
}  // namespace hemul::bigint
