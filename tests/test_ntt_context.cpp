// The process-wide mixed-radix plan cache and the redundant-representation
// kernels every transform runs on: edge-value exactness of the lazy scalar
// primitives, spectrum accumulation on adversarial redundant inputs, and
// plan-cache identity and stability.

#include <gtest/gtest.h>

#include "fp/kernels.hpp"
#include "ntt/four_step.hpp"
#include "ntt/mixed_radix.hpp"
#include "util/rng.hpp"

namespace hemul::ntt {
namespace {

using fp::Fp;
using fp::FpVec;

TEST(FpKernels, LazyScalarPrimitivesAreExactAtTheEdges) {
  // The redundant-representation helpers must be exact for EVERY u64
  // input, including the double-wrap corners within epsilon of 2^64.
  const u64 edges[] = {0,
                       1,
                       2,
                       fp::kEpsilon - 1,
                       fp::kEpsilon,
                       fp::kEpsilon + 1,
                       fp::kModulus - 2,
                       fp::kModulus - 1,
                       fp::kModulus,
                       fp::kModulus + 1,
                       0x8000'0000'0000'0000ULL,
                       0xFFFF'FFFF'0000'0000ULL,
                       ~u64{0} - 1,
                       ~u64{0}};
  for (const u64 a : edges) {
    for (const u64 b : edges) {
      const Fp fa = Fp::from_u128(a);
      const Fp fb = Fp::from_u128(b);
      EXPECT_EQ(fp::canonical_u64(fp::add_lazy(a, b)), (fa + fb).value()) << a << "+" << b;
      EXPECT_EQ(fp::canonical_u64(fp::sub_lazy(a, b)), (fa - fb).value()) << a << "-" << b;
      EXPECT_EQ(fp::canonical_u64(fp::mul_lazy(a, b)), (fa * fb).value()) << a << "*" << b;
    }
  }
}

TEST(FpKernels, PointwiseAddAccumulatesAdversarialRedundantSpectra) {
  // The spectrum-domain accumulation primitive takes redundant inputs
  // anywhere in [0, 2^64) and produces redundant outputs. Hammer it with
  // all-(p-1), p, and near-2^64 lanes across sizes covering both the SIMD
  // body and the scalar tail, checking every lane against an independently
  // tracked canonical sum after 64 stacked accumulations.
  util::Rng rng(0xADD5);
  const u64 adversarial[] = {fp::kModulus - 1, fp::kModulus, ~u64{0},
                             0x8000'0000'0000'0000ULL};
  for (const u64 n : {4ULL, 8ULL, 64ULL, 257ULL}) {
    FpVec acc(n, fp::kZero);
    std::vector<u64> expected(n, 0);
    for (unsigned round = 0; round < 64; ++round) {
      FpVec b(n);
      for (u64 i = 0; i < n; ++i) {
        b[i] = Fp{round % 2 == 0 ? adversarial[(round + i) % 4] : rng.next()};
      }
      fp::pointwise_add(acc.data(), b.data(), n);
      for (u64 i = 0; i < n; ++i) {
        expected[i] =
            fp::canonical_u64(fp::add_lazy(expected[i], fp::canonical_u64(b[i].value())));
      }
    }
    for (u64 i = 0; i < n; ++i) {
      EXPECT_EQ(fp::canonical_u64(acc[i].value()), expected[i]) << n << ":" << i;
    }
  }
}

TEST(MixedRadixCache, SamePlanYieldsSameEngine) {
  const MixedRadixNtt& a = shared_mixed_radix(NttPlan::from_radices({4, 4}));
  const MixedRadixNtt& b = shared_mixed_radix(NttPlan::from_radices({4, 4}));
  EXPECT_EQ(&a, &b);
  // Same size, different staging: distinct engines.
  const MixedRadixNtt& c = shared_mixed_radix(NttPlan::from_radices({2, 2, 4}));
  EXPECT_NE(&a, &c);
  EXPECT_EQ(c.plan().describe(), "2*2*4");
}

TEST(SharedCaches, LockFreeLookupsReturnStableReferences) {
  const FourStepNtt& f1 = shared_four_step(256);
  const MixedRadixNtt& m1 = shared_mixed_radix(NttPlan::uniform(4, 256));
  // Populating other sizes must not move previously returned engines.
  for (u64 n = 4; n <= 8192; n <<= 1) (void)shared_four_step(n);
  (void)shared_mixed_radix(NttPlan::pure_radix2(512));
  EXPECT_EQ(&f1, &shared_four_step(256));
  EXPECT_EQ(&m1, &shared_mixed_radix(NttPlan::uniform(4, 256)));
}

}  // namespace
}  // namespace hemul::ntt
