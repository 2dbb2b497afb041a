#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "backend/classical.hpp"
#include "backend/hw_backend.hpp"
#include "backend/registry.hpp"
#include "backend/ssa_backend.hpp"
#include "bigint/mul.hpp"
#include "fhe/dghv.hpp"
#include "util/rng.hpp"

namespace hemul::backend {
namespace {

using bigint::BigUInt;

std::vector<MulJob> shared_operand_jobs(util::Rng& rng, std::size_t n, std::size_t bits) {
  const BigUInt a = BigUInt::random_bits(rng, bits);
  std::vector<MulJob> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.emplace_back(a, BigUInt::random_bits(rng, bits));
  }
  return jobs;
}

TEST(Registry, ListsBuiltinBackends) {
  const std::vector<std::string> names = Registry::instance().names();
  for (const char* expected :
       {"schoolbook", "karatsuba", "toom3", "classical", "ssa", "hw", "auto"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing builtin backend " << expected;
  }
  EXPECT_GE(names.size(), 3u);
}

TEST(Registry, UnknownNameThrowsWithListing) {
  try {
    (void)make_backend("no-such-engine");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-engine"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ssa"), std::string::npos);
  }
}

TEST(Registry, CustomRegistrationRoundTrip) {
  Registry::instance().add("test-counting", [] {
    return std::make_shared<FunctionBackend>(
        [](const BigUInt& a, const BigUInt& b) { return bigint::mul_schoolbook(a, b); },
        "test-counting");
  });
  const auto backend = make_backend("test-counting");
  EXPECT_EQ(backend->name(), "test-counting");
  EXPECT_EQ(backend->multiply(BigUInt{6}, BigUInt{7}), BigUInt{42});
}

TEST(Backends, ParityOnRandomizedOperands) {
  util::Rng rng(0xBAC0);
  // Software backends at a spread of sizes; the reference is schoolbook.
  for (const char* name : {"schoolbook", "karatsuba", "toom3", "classical", "ssa", "auto"}) {
    const auto backend = make_backend(name);
    for (const std::size_t bits : {1u, 63u, 64u, 1537u, 5000u, 20011u}) {
      const BigUInt a = BigUInt::random_bits(rng, bits);
      const BigUInt b = BigUInt::random_bits(rng, bits);
      EXPECT_EQ(backend->multiply(a, b), bigint::mul_schoolbook(a, b))
          << name << " at " << bits << " bits";
    }
  }
}

TEST(Backends, ZeroAndOneEdgeCases) {
  util::Rng rng(0xED6E);
  const BigUInt a = BigUInt::random_bits(rng, 3000);
  for (const std::string& name : Registry::instance().names()) {
    const auto backend = make_backend(name);
    EXPECT_EQ(backend->multiply(a, BigUInt{}), BigUInt{}) << name;
    EXPECT_EQ(backend->multiply(BigUInt{}, a), BigUInt{}) << name;
    EXPECT_EQ(backend->multiply(BigUInt{}, BigUInt{}), BigUInt{}) << name;
    EXPECT_EQ(backend->multiply(a, BigUInt{1}), a) << name;
    EXPECT_EQ(backend->multiply(BigUInt{1}, a), a) << name;
    EXPECT_EQ(backend->square(a), bigint::mul_schoolbook(a, a)) << name;
  }
}

TEST(Backends, SsaMaxOperandBoundary) {
  const ssa::SsaParams params = ssa::SsaParams::for_bits(4096);
  SsaBackend fixed(params);
  const std::size_t max_bits = fixed.limits().max_operand_bits;
  ASSERT_GT(max_bits, 0u);

  util::Rng rng(0xB0DE);
  const BigUInt a = BigUInt::random_bits(rng, max_bits);
  const BigUInt b = BigUInt::random_bits(rng, max_bits);
  EXPECT_EQ(fixed.multiply(a, b), bigint::mul_schoolbook(a, b));

  const BigUInt too_big = BigUInt::random_bits(rng, max_bits + 1);
  EXPECT_THROW((void)fixed.multiply(too_big, b), std::logic_error);
}

TEST(Backends, HwLimitsMatchPaperConfiguration) {
  HwBackend hw;
  EXPECT_EQ(hw.limits().max_operand_bits, 786432u);
  EXPECT_TRUE(hw.limits().caches_spectra);
  EXPECT_TRUE(hw.limits().reports_hw_cycles);

  util::Rng rng(0x4A11);
  const BigUInt a = BigUInt::random_bits(rng, 30000);
  const BigUInt b = BigUInt::random_bits(rng, 30000);
  EXPECT_EQ(hw.multiply(a, b), bigint::mul_schoolbook(a, b));
  ASSERT_TRUE(hw.last_report().has_value());
  EXPECT_NEAR(hw.last_report()->total_time_us(), 122.88, 0.01);
}

TEST(Backends, BatchEqualsPerCallMultiply) {
  util::Rng rng(0xBA7C);
  for (const char* name : {"classical", "ssa", "auto"}) {
    const auto backend = make_backend(name);
    std::vector<MulJob> jobs = shared_operand_jobs(rng, 5, 4000);
    jobs.emplace_back(BigUInt{}, BigUInt::random_bits(rng, 4000));  // zero
    jobs.emplace_back(BigUInt{1}, BigUInt::random_bits(rng, 4000)); // one

    BatchStats stats;
    const std::vector<BigUInt> batched = backend->multiply_batch(jobs, &stats);
    ASSERT_EQ(batched.size(), jobs.size()) << name;
    EXPECT_EQ(stats.jobs, jobs.size()) << name;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(batched[i], backend->multiply(jobs[i].first, jobs[i].second))
          << name << " job " << i;
    }
  }
}

TEST(Backends, SsaBatchCachesRepeatedSpectra) {
  util::Rng rng(0x5CA1);
  constexpr std::size_t kJobs = 6;
  const std::vector<MulJob> jobs = shared_operand_jobs(rng, kJobs, 8000);

  SsaBackend ssa_backend;
  BatchStats stats;
  const std::vector<BigUInt> products = ssa_backend.multiply_batch(jobs, &stats);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(products[i], bigint::mul_schoolbook(jobs[i].first, jobs[i].second));
  }
  // The shared operand is transformed once: N+1 forwards instead of 2N.
  EXPECT_EQ(stats.forward_transforms, kJobs + 1);
  EXPECT_EQ(stats.spectrum_cache_hits, kJobs - 1);
  EXPECT_EQ(stats.inverse_transforms, kJobs);
}

TEST(Backends, SsaBatchSquareJobTransformsOnce) {
  util::Rng rng(0x50AE);
  const BigUInt a = BigUInt::random_bits(rng, 6000);
  const std::vector<MulJob> jobs = {{a, a}};

  SsaBackend ssa_backend;
  BatchStats stats;
  const std::vector<BigUInt> products = ssa_backend.multiply_batch(jobs, &stats);
  EXPECT_EQ(products[0], bigint::mul_schoolbook(a, a));
  EXPECT_EQ(stats.forward_transforms, 1u);
  EXPECT_EQ(stats.spectrum_cache_hits, 1u);
}

TEST(Backends, SsaBatchDistinctOperandsSkipTheCache) {
  util::Rng rng(0xD157);
  std::vector<MulJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.emplace_back(BigUInt::random_bits(rng, 6000), BigUInt::random_bits(rng, 6000));
  }

  SsaBackend ssa_backend;
  BatchStats stats;
  const std::vector<BigUInt> products = ssa_backend.multiply_batch(jobs, &stats);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(products[i], bigint::mul_schoolbook(jobs[i].first, jobs[i].second));
  }
  // All operands are single-use: every spectrum is computed, none cached.
  EXPECT_EQ(stats.forward_transforms, 2 * jobs.size());
  EXPECT_EQ(stats.spectrum_cache_hits, 0u);
}

TEST(Backends, HwBatchCachingBeatsIndependentMultiplies) {
  util::Rng rng(0x33AA);
  constexpr std::size_t kJobs = 4;
  const std::vector<MulJob> jobs = shared_operand_jobs(rng, kJobs, 50000);

  HwBackend hw;
  BatchStats stats;
  const std::vector<BigUInt> products = hw.multiply_batch(jobs, &stats);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(products[i], bigint::mul_karatsuba(jobs[i].first, jobs[i].second));
  }
  EXPECT_EQ(stats.forward_transforms, kJobs + 1);
  EXPECT_EQ(stats.spectrum_cache_hits, kJobs - 1);
  EXPECT_GT(stats.total_cycles, 0u);

  // N independent multiplies run 3N transforms; the cached batch runs
  // (N+1) + N. The modeled cycle count must reflect the saving.
  hw::MultiplyReport single;
  (void)hw.accelerator().multiply(jobs[0].first, jobs[0].second, &single);
  EXPECT_LT(stats.total_cycles, kJobs * single.total_cycles);
}

TEST(Dispatch, OperatorStarRoutesThroughInstalledHook) {
  // Linking the backend layer installs the registry's auto policy.
  ASSERT_NE(bigint::mul_dispatch(), nullptr);

  static std::atomic<int> calls{0};
  const bigint::MulDispatchFn previous = bigint::mul_dispatch();
  bigint::set_mul_dispatch([](const BigUInt& a, const BigUInt& b) {
    ++calls;
    return bigint::mul_auto_classical(a, b);
  });

  util::Rng rng(0xD15);
  const BigUInt a = BigUInt::random_bits(rng, 700);
  const BigUInt b = BigUInt::random_bits(rng, 700);
  const BigUInt product = a * b;
  EXPECT_GE(calls.load(), 1);
  EXPECT_EQ(product, bigint::mul_schoolbook(a, b));

  bigint::set_mul_dispatch(previous);
}

TEST(Dispatch, ShortTimesLongProductsAreBitExact) {
  // The auto policy runs SSA only when the shorter operand reaches
  // kSsaDispatchBits too; below it the classical dispatcher's blocks take
  // the product. Both sides of that rule must stay bit-exact.
  util::Rng rng(0x5107);
  const auto automatic = make_backend("auto");
  const BigUInt longer = BigUInt::random_bits(rng, 64 * 12264);
  for (const std::size_t short_bits :
       {std::size_t{64}, std::size_t{64 * 25}, kSsaDispatchBits - 1, kSsaDispatchBits}) {
    const BigUInt shorter = BigUInt::random_bits(rng, short_bits);
    const BigUInt expected = bigint::mul_schoolbook(shorter, longer);
    EXPECT_EQ(shorter * longer, expected) << short_bits << " bits";
    EXPECT_EQ(longer * shorter, expected) << short_bits << " bits";
    EXPECT_EQ(automatic->multiply(shorter, longer), expected) << short_bits << " bits";
  }
}

TEST(Dispatch, PreparedOperandsKeepSpectraOnlyWhereSsaRuns) {
  util::Rng rng(0x9E9);
  const std::size_t wide = 2 * kSsaDispatchBits;
  const BigUInt value = BigUInt::random_bits(rng, wide);
  const BigUInt other = BigUInt::random_bits(rng, wide);

  const auto spectral = bigint::prepare_operand(value, wide);
  const auto* spectrum = dynamic_cast<const ssa::PreparedSpectrum*>(spectral.get());
  ASSERT_NE(spectrum, nullptr);
  EXPECT_EQ(spectrum->params().transform_size, ssa::SsaParams::for_bits(wide).transform_size);
  EXPECT_EQ(spectral->multiply(other), bigint::mul_schoolbook(value, other));
  EXPECT_EQ(spectral->multiply(BigUInt{}), BigUInt{});

  // A narrow partner keeps the product classical: no spectrum.
  const auto plain = bigint::prepare_operand(value, kSsaDispatchBits - 1);
  EXPECT_EQ(dynamic_cast<const ssa::PreparedSpectrum*>(plain.get()), nullptr);
  const BigUInt narrow = BigUInt::random_bits(rng, kSsaDispatchBits - 1);
  EXPECT_EQ(plain->multiply(narrow), bigint::mul_schoolbook(value, narrow));
}

TEST(Fhe, DghvRunsOnExplicitBackends) {
  for (const char* name : {"classical", "ssa"}) {
    fhe::Dghv scheme(fhe::DghvParams::toy(), 7, make_backend(name));
    const auto one = scheme.encrypt(true);
    const auto zero = scheme.encrypt(false);
    EXPECT_TRUE(scheme.decrypt(scheme.multiply(one, one))) << name;
    EXPECT_FALSE(scheme.decrypt(scheme.multiply(one, zero))) << name;

    const std::vector<std::pair<fhe::Ciphertext, fhe::Ciphertext>> jobs = {
        {one, one}, {one, zero}, {zero, zero}};
    const std::vector<fhe::Ciphertext> products = scheme.multiply_batch(jobs);
    ASSERT_EQ(products.size(), 3u) << name;
    EXPECT_TRUE(scheme.decrypt(products[0])) << name;
    EXPECT_FALSE(scheme.decrypt(products[1])) << name;
    EXPECT_FALSE(scheme.decrypt(products[2])) << name;
  }
}

TEST(Fhe, SetBackendAcceptsFunctionBackend) {
  fhe::Dghv scheme(fhe::DghvParams::toy(), 9);
  static std::atomic<int> calls{0};
  calls = 0;
  // A bare multiplication function plugs in through FunctionBackend.
  scheme.set_backend(std::make_shared<FunctionBackend>(
      [](const BigUInt& a, const BigUInt& b) {
        ++calls;
        return bigint::mul_schoolbook(a, b);
      }));
  const auto c = scheme.multiply(scheme.encrypt(true), scheme.encrypt(true));
  EXPECT_TRUE(scheme.decrypt(c));
  EXPECT_GE(calls.load(), 1);
  EXPECT_EQ(scheme.engine()->name(), "custom");
}

TEST(SsaBackendStats, CumulativeTransformCountMatchesExecutedTransforms) {
  // 3 transforms per multiply, 2 per square: repeating a product repeats
  // its transforms.
  util::Rng rng(0x57A7);
  const BigUInt a = BigUInt::random_bits(rng, 6000);
  const BigUInt b = BigUInt::random_bits(rng, 6000);

  SsaBackend plain;
  const BigUInt first = plain.multiply(a, b);
  const BigUInt second = plain.multiply(a, b);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, bigint::mul_schoolbook(a, b));
  (void)plain.square(a);
  EXPECT_EQ(plain.stats().transform_count, 8u);  // 3 + 3 + 2
}

}  // namespace
}  // namespace hemul::backend
