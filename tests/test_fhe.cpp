#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "bigint/mul.hpp"
#include "fhe/dghv.hpp"
#include "util/rng.hpp"

namespace hemul::fhe {
namespace {

using bigint::BigUInt;

TEST(DghvParams, PresetsValidate) {
  EXPECT_NO_THROW(DghvParams::toy().validate());
  EXPECT_NO_THROW(DghvParams::medium().validate());
  EXPECT_NO_THROW(DghvParams::small_paper().validate());
}

TEST(DghvParams, PaperSettingUsesAcceleratorOperandSize) {
  // The whole point of the workload: ciphertexts are 786,432-bit integers.
  EXPECT_EQ(DghvParams::small_paper().gamma, 786432u);
}

TEST(DghvParams, ValidationCatchesBadConfigs) {
  DghvParams p = DghvParams::toy();
  p.tau = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = DghvParams::toy();
  p.eta = p.gamma;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = DghvParams::toy();
  p.rho = p.eta;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Dghv, KeyGenerationStructure) {
  const Dghv scheme(DghvParams::toy(), 1);
  const auto& pk = scheme.public_key();
  // A tenant key has no public elements; build_public_key makes them.
  EXPECT_TRUE(pk.x.empty());
  EXPECT_EQ(scheme.build_public_key(1).x.size(), DghvParams::toy().tau);
  EXPECT_TRUE(pk.x0.is_odd());
  EXPECT_EQ(pk.x0.bit_length(), DghvParams::toy().gamma);
  EXPECT_TRUE(scheme.secret_key().is_odd());
  EXPECT_EQ(scheme.secret_key().bit_length(), DghvParams::toy().eta);
  // x0 is an exact multiple of p (CMNT variant).
  EXPECT_TRUE((pk.x0 % scheme.secret_key()).is_zero());
}

class DghvRoundTrip : public ::testing::TestWithParam<u64> {};

TEST_P(DghvRoundTrip, EncryptDecrypt) {
  Dghv scheme(DghvParams::toy(), GetParam());
  for (int i = 0; i < 20; ++i) {
    const bool m = (i % 2) == 0;
    const Ciphertext c = scheme.encrypt(m);
    EXPECT_EQ(scheme.decrypt(c), m);
    EXPECT_LT(c.value, scheme.public_key().x0);
  }
}

TEST_P(DghvRoundTrip, CiphertextsAreRandomized) {
  Dghv scheme(DghvParams::toy(), GetParam() ^ 0xAA);
  const Ciphertext c1 = scheme.encrypt(true);
  const Ciphertext c2 = scheme.encrypt(true);
  EXPECT_NE(c1.value, c2.value);  // fresh randomness per encryption
}

INSTANTIATE_TEST_SUITE_P(Seeds, DghvRoundTrip, ::testing::Values(1, 2, 3, 99));

TEST(Dghv, HomomorphicXor) {
  Dghv scheme(DghvParams::toy(), 7);
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      const Ciphertext ca = scheme.encrypt(a);
      const Ciphertext cb = scheme.encrypt(b);
      EXPECT_EQ(scheme.decrypt(scheme.add(ca, cb)), a != b) << a << " " << b;
    }
  }
}

TEST(Dghv, HomomorphicAnd) {
  Dghv scheme(DghvParams::toy(), 8);
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      const Ciphertext ca = scheme.encrypt(a);
      const Ciphertext cb = scheme.encrypt(b);
      EXPECT_EQ(scheme.decrypt(scheme.multiply(ca, cb)), a && b) << a << " " << b;
    }
  }
}

TEST(Dghv, CompositeCircuit) {
  // Majority-of-three: maj(a,b,c) = ab ^ bc ^ ca.
  Dghv scheme(DghvParams::toy(), 9);
  for (int bits = 0; bits < 8; ++bits) {
    const bool a = bits & 1;
    const bool b = bits & 2;
    const bool c = bits & 4;
    const Ciphertext ca = scheme.encrypt(a);
    const Ciphertext cb = scheme.encrypt(b);
    const Ciphertext cc = scheme.encrypt(c);
    const Ciphertext result = scheme.add(
        scheme.add(scheme.multiply(ca, cb), scheme.multiply(cb, cc)),
        scheme.multiply(cc, ca));
    const bool expected = (a && b) != ((b && c) != (c && a));
    EXPECT_EQ(scheme.decrypt(result), expected) << bits;
  }
}

TEST(Dghv, NoiseGrowthTrackedAndBounded) {
  Dghv scheme(DghvParams::toy(), 10);
  Ciphertext c = scheme.encrypt(true);
  const double fresh = c.noise_bits;
  EXPECT_GE(static_cast<double>(scheme.measured_noise_bits(c)), 1.0);
  EXPECT_LE(static_cast<double>(scheme.measured_noise_bits(c)), fresh + 1);

  // Multiply until the model says stop; decryption must stay correct.
  const unsigned depth = NoiseModel::max_mult_depth(scheme.params());
  EXPECT_GE(depth, 2u);
  for (unsigned level = 0; level < depth; ++level) {
    c = scheme.multiply(c, c);  // squaring: plaintext stays 1
    EXPECT_TRUE(NoiseModel::decryptable(scheme.params(), c.noise_bits));
    EXPECT_TRUE(scheme.decrypt(c)) << "level " << level;
    EXPECT_LE(static_cast<double>(scheme.measured_noise_bits(c)), c.noise_bits + 1);
  }
}

TEST(Dghv, NoiseModelAlgebra) {
  EXPECT_DOUBLE_EQ(NoiseModel::after_add(10, 12), 13.0);
  EXPECT_DOUBLE_EQ(NoiseModel::after_mult(10, 12), 23.0);
  EXPECT_TRUE(NoiseModel::decryptable(DghvParams::toy(), 100.0));
  EXPECT_FALSE(NoiseModel::decryptable(DghvParams::toy(), 126.5));
}

TEST(Dghv, CustomMultiplierBackend) {
  Dghv scheme(DghvParams::toy(), 11);
  unsigned calls = 0;
  scheme.set_backend(std::make_shared<backend::FunctionBackend>(
      [&calls](const bigint::BigUInt& a, const bigint::BigUInt& b) {
        ++calls;
        return bigint::mul_schoolbook(a, b);
      }));
  const Ciphertext ca = scheme.encrypt(true);
  const Ciphertext cb = scheme.encrypt(true);
  EXPECT_TRUE(scheme.decrypt(scheme.multiply(ca, cb)));
  EXPECT_EQ(calls, 1u);
}

TEST(Dghv, MediumParametersWork) {
  Dghv scheme(DghvParams::medium(), 12);
  const Ciphertext ca = scheme.encrypt(true);
  const Ciphertext cb = scheme.encrypt(false);
  EXPECT_TRUE(scheme.decrypt(ca));
  EXPECT_FALSE(scheme.decrypt(cb));
  EXPECT_FALSE(scheme.decrypt(scheme.multiply(ca, cb)));
  EXPECT_TRUE(scheme.decrypt(scheme.add(ca, cb)));
}

TEST(Dghv, DeterministicForSeed) {
  Dghv s1(DghvParams::toy(), 42);
  Dghv s2(DghvParams::toy(), 42);
  EXPECT_EQ(s1.public_key().x0, s2.public_key().x0);
  EXPECT_EQ(s1.encrypt(true).value, s2.encrypt(true).value);
}

TEST(Dghv, RebuiltContextChecksThatPDividesX0) {
  const Dghv keys(DghvParams::toy(), 3);
  EXPECT_NO_THROW(Dghv(keys.public_key(), keys.secret_key(), 1));
  EXPECT_ANY_THROW(Dghv(keys.public_key(), keys.secret_key() + BigUInt{2}, 1));
  EXPECT_ANY_THROW(Dghv(keys.public_key(), keys.secret_key() + BigUInt{1}, 1));  // even
}

/// A gamma-bit odd modulus: EvalKey::add only needs x0, not a key pair.
BigUInt random_modulus(util::Rng& rng, std::size_t gamma) {
  BigUInt x0 = BigUInt::pow2(gamma - 1) + BigUInt::random_bits(rng, gamma - 1);
  if (!x0.is_odd()) x0 += BigUInt{1};
  return x0;
}

TEST(EvalKeyAdd, MatchesModularReductionAtEverySize) {
  util::Rng rng(31);
  for (const DghvParams& params : {DghvParams::toy(), DghvParams::deep(),
                                   DghvParams::small_paper()}) {
    const BigUInt x0 = random_modulus(rng, params.gamma);
    const EvalKey key(params, x0);
    const BigUInt top = x0 - BigUInt{1};
    const BigUInt a = BigUInt::random_below(rng, x0);
    std::vector<std::pair<BigUInt, BigUInt>> cases = {
        {BigUInt{}, BigUInt{}},                   // zero operands
        {BigUInt{}, top},                         // zero plus the largest
        {a, BigUInt{}},                           // zero on the right
        {a, BigUInt::random_below(rng, x0 - a)},  // sum < x0
        {a, x0 - a},                              // sum == x0
        {top, top},                               // sum == 2*x0 - 2
        {top, BigUInt{1}},                        // sum == x0 again
    };
    for (int i = 0; i < 8; ++i) {
      cases.emplace_back(BigUInt::random_below(rng, x0), BigUInt::random_below(rng, x0));
    }
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const auto& [lhs, rhs] = cases[k];
      const Ciphertext sum = key.add({lhs, 1.0}, {rhs, 2.0});
      EXPECT_EQ(sum.value, (lhs + rhs) % x0) << "gamma " << params.gamma << ", case " << k;
      EXPECT_EQ(sum.noise_bits, NoiseModel::after_add(1.0, 2.0));
    }
  }
}

TEST(EvalKeyAdd, RefusesOperandsThatAreNotReduced) {
  util::Rng rng(32);
  const BigUInt x0 = random_modulus(rng, DghvParams::toy().gamma);
  const EvalKey key(DghvParams::toy(), x0);
  const Ciphertext reduced{x0 - BigUInt{1}, 1.0};
  EXPECT_THROW((void)key.add({x0, 1.0}, reduced), std::logic_error);
  EXPECT_THROW((void)key.add(reduced, {x0 + BigUInt{5}, 1.0}), std::logic_error);
  EXPECT_NO_THROW((void)key.add(reduced, reduced));
}

/// Secret-key encryption from a mirror of the scheme's rng: q below
/// q0 = x0 / p, then r, then c = q*p + 2r + m.
BigUInt reference_secret_encrypt(const PublicKey& pk, const BigUInt& p, util::Rng& rng,
                                 bool message) {
  const BigUInt q = BigUInt::random_below(rng, pk.x0 / p);
  const BigUInt r = BigUInt::random_bits(rng, pk.params.rho);
  return q * p + (r << 1) + BigUInt{message ? 1u : 0u};
}

TEST(DghvEncrypt, MatchesTheSecretKeyFormula) {
  for (const DghvParams& params : {DghvParams::toy(), DghvParams::deep(), DghvParams::medium(),
                                   DghvParams::small_paper()}) {
    const Dghv keys(params, 5);
    for (const u64 seed : {1u, 2u, 99u}) {
      Dghv scheme(keys.public_key(), keys.secret_key(), seed);
      util::Rng mirror(seed);
      for (int i = 0; i < 4; ++i) {
        const bool m = (i % 2) == 0;
        EXPECT_EQ(scheme.encrypt(m).value,
                  reference_secret_encrypt(keys.public_key(), keys.secret_key(), mirror, m))
            << "gamma " << params.gamma << ", seed " << seed << ", encryption " << i;
      }
    }
  }
}

TEST(DghvEncrypt, PublicElementsAreEncryptionsOfZeroFromTheirOwnStream) {
  const DghvParams params = DghvParams::toy();
  Dghv a(params, 21);
  Dghv b(params, 21);
  const PublicKey pk = b.build_public_key(77);
  EXPECT_EQ(pk.x0, b.x0());
  util::Rng mirror(77);
  for (const BigUInt& xi : pk.x) {
    EXPECT_EQ(xi, reference_secret_encrypt(pk, b.secret_key(), mirror, false));
  }
  EXPECT_EQ(b.build_public_key(77).x, pk.x);  // same key and seed, same elements
  // Building the elements draws nothing from the encryption rng.
  EXPECT_EQ(a.encrypt(true).value, b.encrypt(true).value);
}

/// Fresh ciphertexts of both encryption paths lie below x0, decrypt, and
/// carry no more noise than NoiseModel::fresh predicts; the AND of two of
/// them stays under after_mult.
void expect_fresh_noise_sound(const DghvParams& params, u64 seed, int count) {
  Dghv scheme(params, seed);
  const PublicKey pk = scheme.build_public_key(seed + 1);
  util::Rng public_rng(seed + 2);
  const double fresh = NoiseModel::fresh(params);
  for (const bool secret : {true, false}) {
    const char* path = secret ? "secret-key" : "public-key";
    std::vector<Ciphertext> cts;
    for (int i = 0; i < count; ++i) {
      const bool m = (i % 2) == 0;
      cts.push_back(secret ? scheme.encrypt(m) : encrypt_public(pk, public_rng, m));
      const Ciphertext& c = cts.back();
      EXPECT_LT(c.value, scheme.x0()) << path << " gamma " << params.gamma;
      EXPECT_EQ(scheme.decrypt(c), m) << path << " gamma " << params.gamma;
      EXPECT_EQ(c.noise_bits, fresh);
      EXPECT_LE(static_cast<double>(scheme.measured_noise_bits(c)), fresh)
          << path << " gamma " << params.gamma;
    }
    const Ciphertext product = scheme.multiply(cts[0], cts[1]);
    EXPECT_FALSE(scheme.decrypt(product));  // 1 AND 0
    EXPECT_LE(static_cast<double>(scheme.measured_noise_bits(product)),
              NoiseModel::after_mult(fresh, fresh))
        << path << " gamma " << params.gamma;
  }
}

TEST(DghvNoise, FreshNoiseIsUnderTheModelOnBothPaths) {
  for (const DghvParams& params : {DghvParams::toy(), DghvParams::medium(), DghvParams::deep()}) {
    for (const u64 seed : {3u, 4u}) expect_fresh_noise_sound(params, seed, 8);
  }
}

TEST(DghvNoise, FreshNoiseIsUnderTheModelOnBothPathsAtPaperSize) {
  expect_fresh_noise_sound(DghvParams::small_paper(), 6, 2);
}

/// The textbook subset sum, one term at a time from a mirror of the
/// encryptor's rng: r, then one flip per x_i, then
/// (m + 2r + 2 sum x_i) mod x0.
BigUInt reference_encrypt(const PublicKey& pk, util::Rng& rng, bool message) {
  const BigUInt r = BigUInt::random_bits(rng, pk.params.rho);
  BigUInt sum;
  for (const BigUInt& xi : pk.x) {
    if (rng.flip()) sum += xi;
  }
  return (BigUInt{message ? 1u : 0u} + (r << 1) + (sum << 1)) % pk.x0;
}

/// Encrypts `count` alternating bits with encrypt_public on Rng(seed) and
/// checks each against reference_encrypt on a mirror Rng(seed).
/// Consecutive encryptions only agree if both consume the same number of
/// draws.
void expect_encrypt_matches_formula(const PublicKey& pk, u64 seed, int count) {
  util::Rng rng(seed);
  util::Rng mirror(seed);
  for (int i = 0; i < count; ++i) {
    const bool m = (i % 2) == 0;
    EXPECT_EQ(encrypt_public(pk, rng, m).value, reference_encrypt(pk, mirror, m))
        << "gamma " << pk.params.gamma << ", seed " << seed << ", encryption " << i;
  }
}

TEST(DghvEncrypt, MatchesTheSubsetSumFormula) {
  for (const DghvParams& params : {DghvParams::toy(), DghvParams::deep(), DghvParams::medium()}) {
    const Dghv keys(params, 5);
    const PublicKey pk = keys.build_public_key(5);
    for (const u64 seed : {1u, 2u, 99u}) {
      expect_encrypt_matches_formula(pk, seed, 6);
    }
  }
}

TEST(DghvEncrypt, MatchesTheSubsetSumFormulaAtPaperSize) {
  const Dghv keys(DghvParams::small_paper(), 7);
  expect_encrypt_matches_formula(keys.build_public_key(7), 1, 2);
}

TEST(DghvEncrypt, PublicEncryptionNeedsTheElements) {
  util::Rng rng(1);
  EXPECT_ANY_THROW((void)encrypt_public(Dghv(DghvParams::toy(), 1).public_key(), rng, true));
}

TEST(DghvEncrypt, CarryRipplesIntoTheTopLimb) {
  // p = 2^eta - 1 and q0 = 2^(gamma-eta) - 1 give an x0 whose top limbs are
  // all ones; with every x_i = x0 - 1 a sum of two terms already carries
  // out of x0's top limb.
  PublicKey pk;
  pk.params = DghvParams::toy();
  const BigUInt p = BigUInt::pow2(pk.params.eta) - BigUInt{1};
  const BigUInt q0 = BigUInt::pow2(pk.params.gamma - pk.params.eta) - BigUInt{1};
  pk.x0 = q0 * p;
  ASSERT_EQ(pk.x0.bit_length(), pk.params.gamma);
  ASSERT_EQ(pk.x0.limbs().back(), ~u64{0});
  pk.x.assign(pk.params.tau, pk.x0 - BigUInt{1});
  ASSERT_GT((pk.x[0] + pk.x[0]).limb_count(), pk.x0.limb_count());
  for (const u64 seed : {1u, 2u, 99u}) expect_encrypt_matches_formula(pk, seed, 4);
}

}  // namespace
}  // namespace hemul::fhe
