// The mixed-radix plan engine (paper Eq. 1-3): plan factories, parity
// against the O(n^2) reference DFT and the independent four-step engine
// across plans and sizes, the full 64K paper plan, adversarial values that
// stress the deferred-reduction paths, and the shift/DSP op counts the
// hardware model is compared against.

#include <gtest/gtest.h>

#include "fp/roots.hpp"
#include "ntt/four_step.hpp"
#include "ntt/mixed_radix.hpp"
#include "ntt/reference.hpp"
#include "util/rng.hpp"

namespace hemul::ntt {
namespace {

using fp::Fp;
using fp::FpVec;

FpVec random_vec(util::Rng& rng, std::size_t n) {
  FpVec v(n);
  for (auto& x : v) x = Fp{rng.next()};
  return v;
}

/// The four-step engine's natural-order forward: an independent transform
/// on the same root hierarchy, so its spectra are directly comparable.
FpVec four_step_forward(const FpVec& data) {
  FpVec out = data;
  FpVec scratch;
  shared_four_step(data.size()).forward(out, scratch);
  return out;
}

/// e if x = 2^e with e in [0, 192), else -1: which twiddles a shifter bank
/// can apply.
int pow2_exponent(Fp x) {
  Fp probe = fp::kOne;
  for (int e = 0; e < 192; ++e) {
    if (probe == x) return e;
    probe *= fp::kTwo;
  }
  return -1;
}

TEST(NttPlan, FactoryValidation) {
  EXPECT_EQ(NttPlan::paper_64k().size, 65536u);
  EXPECT_EQ(NttPlan::paper_64k().describe(), "64*64*16");
  EXPECT_EQ(NttPlan::pure_radix2(8).stage_count(), 3u);
  EXPECT_EQ(NttPlan::uniform(16, 4096).stage_count(), 3u);
  EXPECT_THROW(NttPlan::from_radices({}), std::invalid_argument);
  EXPECT_THROW(NttPlan::from_radices({3}), std::invalid_argument);
  EXPECT_THROW(NttPlan::from_radices({1}), std::invalid_argument);
  EXPECT_THROW(NttPlan::uniform(16, 100), std::invalid_argument);
}

TEST(NttPlan, SubFftCounts) {
  const NttPlan plan = NttPlan::paper_64k();
  // Paper Section V: 1024 radix-64 FFTs in each of the first two stages,
  // 4096 radix-16 FFTs in the third.
  EXPECT_EQ(plan.sub_ffts_in_stage(0), 1024u);
  EXPECT_EQ(plan.sub_ffts_in_stage(1), 1024u);
  EXPECT_EQ(plan.sub_ffts_in_stage(2), 4096u);
}

struct PlanCase {
  std::vector<u32> radices;
  u64 seed;
};

class MixedRadixVsReference : public ::testing::TestWithParam<PlanCase> {};

TEST_P(MixedRadixVsReference, ForwardMatchesDirectDftOnRandomSweep) {
  const auto& param = GetParam();
  const MixedRadixNtt& engine = shared_mixed_radix(NttPlan::from_radices(param.radices));
  util::Rng rng(param.seed);
  for (int round = 0; round < 4; ++round) {
    const FpVec data = random_vec(rng, engine.plan().size);
    EXPECT_EQ(engine.forward(data), dft_reference(data, engine.root())) << "round " << round;
  }
}

TEST_P(MixedRadixVsReference, RoundTripsAndMatchesFourStep) {
  const auto& param = GetParam();
  const MixedRadixNtt& engine = shared_mixed_radix(NttPlan::from_radices(param.radices));
  const u64 n = engine.plan().size;
  util::Rng rng(param.seed + 1000);
  const FpVec data = random_vec(rng, n);
  const FpVec spectrum = engine.forward(data);
  EXPECT_EQ(engine.inverse(spectrum), data);
  if (n >= 4) {  // four-step needs n1, n2 >= 2
    EXPECT_EQ(spectrum, four_step_forward(data));
  }
}

// Pure radix-2 and uniform radix-4 across sizes, the paper's radices at
// reduced sizes (the full {64,64,16} plan is checked against four-step
// below, where the O(n^2) reference is too slow), ragged mixed plans and a
// generic (non-shift) sub-root.
INSTANTIATE_TEST_SUITE_P(
    Plans, MixedRadixVsReference,
    ::testing::Values(PlanCase{{2}, 1}, PlanCase{{4}, 2}, PlanCase{{2, 2}, 3},
                      PlanCase{{2, 2, 2}, 4},
                      PlanCase{{2, 2, 2, 2, 2, 2}, 5},           // pure radix-2, n=64
                      PlanCase{{2, 2, 2, 2, 2, 2, 2, 2, 2}, 6},  // pure radix-2, n=512
                      PlanCase{{4, 4}, 7}, PlanCase{{4, 4, 4}, 8},
                      PlanCase{{4, 4, 4, 4}, 9},                 // uniform radix-4, n=256
                      PlanCase{{4, 4, 4, 4, 4}, 10},             // uniform radix-4, n=1024
                      PlanCase{{8, 8}, 11}, PlanCase{{16, 16}, 12}, PlanCase{{64}, 13},
                      PlanCase{{64, 4}, 14}, PlanCase{{4, 64}, 15},
                      PlanCase{{64, 16}, 16},                    // paper radices, n=1024
                      PlanCase{{16, 64}, 17}, PlanCase{{8, 16, 2}, 18},
                      PlanCase{{8, 2, 32}, 19}, PlanCase{{16, 8, 8}, 20},
                      PlanCase{{128, 4}, 21}));                  // generic (non-shift) DFT root

TEST(MixedRadix, Paper64kPlanMatchesFourStepAndRoundTrips) {
  // The full 64K-point paper plan against the independent four-step
  // engine: identical aligned roots guarantee identical spectra.
  const MixedRadixNtt& engine = shared_mixed_radix(NttPlan::paper_64k());
  ASSERT_EQ(engine.root(), shared_four_step(65536).root());
  EXPECT_EQ(engine.root().pow(65536 / 64), fp::kOmega64);
  util::Rng rng(64);
  const FpVec data = random_vec(rng, 65536);
  const FpVec spectrum = engine.forward(data);
  EXPECT_EQ(spectrum, four_step_forward(data));
  EXPECT_EQ(engine.inverse(spectrum), data);
}

TEST(MixedRadix, EquivalentPlansGiveIdenticalSpectra) {
  util::Rng rng(77);
  const FpVec data = random_vec(rng, 4096);
  const FpVec a = shared_mixed_radix(NttPlan::pure_radix2(4096)).forward(data);
  const FpVec b = shared_mixed_radix(NttPlan::uniform(16, 4096)).forward(data);
  const FpVec c = shared_mixed_radix(NttPlan::from_radices({64, 64})).forward(data);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(MixedRadix, AdversarialValuesStressDeferredReduction) {
  // All coefficients at p-1 (and alternating 0 / p-1) maximize every
  // butterfly sum and subtraction, hammering the deferred-reduction paths
  // of this engine and the redundant representation of four-step.
  for (const u64 n : {16ULL, 256ULL, 4096ULL}) {
    FpVec all_max(n, Fp::from_canonical(fp::kModulus - 1));
    FpVec alternating(n, fp::kZero);
    for (u64 i = 0; i < n; i += 2) alternating[i] = Fp::from_canonical(fp::kModulus - 1);

    const MixedRadixNtt& engine = shared_mixed_radix(NttPlan::pure_radix2(n));
    for (const FpVec& data : {all_max, alternating}) {
      const FpVec expected = dft_reference(data, engine.root());
      const FpVec spectrum = engine.forward(data);
      EXPECT_EQ(spectrum, expected) << n;
      EXPECT_EQ(four_step_forward(data), expected) << n;
      EXPECT_EQ(engine.inverse(spectrum), data) << n;
    }
  }
}

TEST(MixedRadix, ShiftOnlyButterfliesInPaperPlan) {
  // Architectural core of the paper: with the aligned root hierarchy, every
  // radix-64/16 butterfly multiplication is a shift; only inter-stage
  // twiddles need generic (DSP) multipliers. The hardware-model comparisons
  // rely on exactly these counts.
  const MixedRadixNtt& engine = shared_mixed_radix(NttPlan::paper_64k());
  util::Rng rng(31);
  const FpVec data = random_vec(rng, 65536);
  NttOpCounts counts;
  (void)engine.forward(data, &counts);
  // Butterfly muls: N/64*64^2 twice + N/16*16^2 once = 2*64N + 16N.
  EXPECT_EQ(counts.shift_muls, 2u * 64 * 65536 + 16u * 65536);
  // Generic muls: (r-1)*M per decomposition level:
  // top level (r=16, M=4096) + 16 x (r=64, M=64).
  EXPECT_EQ(counts.generic_muls, 15u * 4096 + 16u * 63 * 64);
}

TEST(MixedRadix, SubRootsArePowersOfTwo) {
  // omega_64 = 8 = 2^3 (paper Eq. 3), and the exponent scan is exact.
  EXPECT_EQ(pow2_exponent(fp::kOne), 0);
  EXPECT_EQ(pow2_exponent(fp::kTwo), 1);
  EXPECT_EQ(pow2_exponent(fp::kOmega64), 3);
  EXPECT_EQ(pow2_exponent(fp::kTwo.pow(191)), 191);
  EXPECT_EQ(pow2_exponent(Fp{12345}), -1);
}

TEST(MixedRadix, InverseRootIsStillPowerOfTwo) {
  // 8^{-1} = 2^189, so inverse-transform butterflies stay shift-only.
  EXPECT_EQ(pow2_exponent(fp::kOmega64.inv()), 189);
}

}  // namespace
}  // namespace hemul::ntt
