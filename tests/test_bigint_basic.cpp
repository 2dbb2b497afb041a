#include <gtest/gtest.h>

#include <vector>

#include "bigint/biguint.hpp"
#include "bigint/mul.hpp"
#include "util/rng.hpp"

namespace hemul::bigint {
namespace {

TEST(BigUIntBasics, ZeroRepresentation) {
  const BigUInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.limb_count(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_dec(), "0");
  EXPECT_EQ(BigUInt{0}, z);
}

TEST(BigUIntBasics, FromLimbsTrimsTrailingZeros) {
  const BigUInt x = BigUInt::from_limbs({5, 0, 0});
  EXPECT_EQ(x.limb_count(), 1u);
  EXPECT_EQ(x, BigUInt{5});
}

TEST(BigUIntBasics, BitLength) {
  EXPECT_EQ(BigUInt{1}.bit_length(), 1u);
  EXPECT_EQ(BigUInt{255}.bit_length(), 8u);
  EXPECT_EQ(BigUInt{256}.bit_length(), 9u);
  EXPECT_EQ(BigUInt::pow2(64).bit_length(), 65u);
  EXPECT_EQ(BigUInt::pow2(786431).bit_length(), 786432u);
}

TEST(BigUIntBasics, BitAccess) {
  const BigUInt x = BigUInt::from_hex("8000000000000001");
  EXPECT_TRUE(x.bit(0));
  EXPECT_FALSE(x.bit(1));
  EXPECT_TRUE(x.bit(63));
  EXPECT_FALSE(x.bit(64));
  EXPECT_FALSE(x.bit(100000));
}

TEST(BigUIntBasics, Comparisons) {
  const BigUInt a{10};
  const BigUInt b{20};
  const BigUInt c = BigUInt::pow2(64);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_GT(c, a);
  EXPECT_EQ(a, BigUInt{10});
  EXPECT_NE(a, b);
}

TEST(BigUIntBasics, ToU64) {
  EXPECT_EQ(BigUInt{12345}.to_u64(), 12345u);
  EXPECT_EQ(BigUInt{}.to_u64(), 0u);
  EXPECT_THROW((void)BigUInt::pow2(64).to_u64(), std::overflow_error);
}

TEST(BigUIntAdd, CarriesAcrossLimbs) {
  const BigUInt max64 = BigUInt::from_hex("ffffffffffffffff");
  EXPECT_EQ(max64 + BigUInt{1}, BigUInt::pow2(64));
  const BigUInt max128 = BigUInt::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ(max128 + BigUInt{1}, BigUInt::pow2(128));
}

TEST(BigUIntSub, BorrowsAcrossLimbs) {
  EXPECT_EQ(BigUInt::pow2(128) - BigUInt{1},
            BigUInt::from_hex("ffffffffffffffffffffffffffffffff"));
  EXPECT_EQ(BigUInt{5} - BigUInt{5}, BigUInt{});
}

TEST(BigUIntSub, ThrowsOnUnderflow) {
  EXPECT_THROW(BigUInt{1} - BigUInt{2}, std::underflow_error);
}

TEST(BigUIntShift, LeftThenRightRoundTrips) {
  util::Rng rng(3);
  const BigUInt x = BigUInt::random_bits(rng, 300);
  for (const std::size_t s : {0u, 1u, 63u, 64u, 65u, 128u, 191u}) {
    EXPECT_EQ((x << s) >> s, x) << "shift " << s;
  }
}

TEST(BigUIntShift, ShiftEqualsPow2Multiply) {
  util::Rng rng(4);
  const BigUInt x = BigUInt::random_bits(rng, 200);
  EXPECT_EQ(x << 5, mul_schoolbook(x, BigUInt{32}));
  EXPECT_EQ(x << 64, mul_schoolbook(x, BigUInt::pow2(64)));
}

TEST(BigUIntShift, SweepMatchesPow2Multiply) {
  // Every bit offset 0-129 and whole-limb multiples up to 17 limbs, on
  // zero, single-limb, top-bit-only, all-ones and random operands: x << s
  // equals x * 2^s (schoolbook) and shifts back.
  util::Rng rng(5);
  const std::vector<BigUInt> values = {BigUInt{},
                                       BigUInt{1},
                                       BigUInt::pow2(63),
                                       BigUInt::random_bits(rng, 64),
                                       BigUInt::random_bits(rng, 700),
                                       BigUInt::pow2(640) - BigUInt{1}};
  std::vector<std::size_t> shifts;
  for (std::size_t s = 0; s <= 129; ++s) shifts.push_back(s);
  for (const std::size_t limbs : {3u, 4u, 5u, 8u, 17u}) shifts.push_back(64 * limbs);

  for (const BigUInt& x : values) {
    for (const std::size_t s : shifts) {
      const BigUInt shifted = x << s;
      EXPECT_EQ(shifted, mul_schoolbook(x, BigUInt::pow2(s))) << x.to_hex() << " << " << s;
      EXPECT_EQ(shifted >> s, x) << x.to_hex() << " << " << s;
    }
  }
}

TEST(BigUIntShift, RightShiftBelowZeroBits) {
  EXPECT_EQ(BigUInt{5} >> 3, BigUInt{});
  EXPECT_EQ(BigUInt{5} >> 100, BigUInt{});
}

TEST(BigUIntHex, RoundTrip) {
  const char* cases[] = {"0", "1", "f", "deadbeef", "123456789abcdef0123456789abcdef"};
  for (const char* c : cases) {
    EXPECT_EQ(BigUInt::from_hex(c).to_hex(), c);
  }
}

TEST(BigUIntHex, RejectsInvalid) {
  EXPECT_THROW(BigUInt::from_hex(""), std::invalid_argument);
  EXPECT_THROW(BigUInt::from_hex("xyz"), std::invalid_argument);
}

TEST(BigUIntDec, KnownValues) {
  EXPECT_EQ(BigUInt{12345}.to_dec(), "12345");
  EXPECT_EQ(BigUInt::from_dec("340282366920938463463374607431768211456"),
            BigUInt::pow2(128));
  EXPECT_EQ(BigUInt::pow2(128).to_dec(), "340282366920938463463374607431768211456");
}

TEST(BigUIntDec, RoundTripRandom) {
  util::Rng rng(5);
  for (const std::size_t bits : {1u, 64u, 65u, 300u, 1000u}) {
    const BigUInt x = BigUInt::random_bits(rng, bits);
    EXPECT_EQ(BigUInt::from_dec(x.to_dec()), x);
  }
}

TEST(BigUIntDec, RejectsInvalid) {
  EXPECT_THROW(BigUInt::from_dec(""), std::invalid_argument);
  EXPECT_THROW(BigUInt::from_dec("12a"), std::invalid_argument);
}

TEST(BigUIntRandom, ExactBitLength) {
  util::Rng rng(6);
  for (const std::size_t bits : {1u, 2u, 63u, 64u, 65u, 1000u, 786432u}) {
    EXPECT_EQ(BigUInt::random_bits(rng, bits).bit_length(), bits);
  }
}

TEST(BigUIntRandom, BelowStaysBelow) {
  util::Rng rng(7);
  const BigUInt bound = BigUInt::from_hex("100000000000000000001");
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(BigUInt::random_below(rng, bound), bound);
  }
}

class AddSubProperties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AddSubProperties, AlgebraHolds) {
  util::Rng rng(GetParam());
  const std::size_t bits = GetParam() * 97 + 5;
  for (int i = 0; i < 30; ++i) {
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits / 2 + 1);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
    EXPECT_EQ(a - a, BigUInt{});
    EXPECT_GE(a + b, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AddSubProperties, ::testing::Values(1, 2, 5, 13, 29));

}  // namespace
}  // namespace hemul::bigint
