#include <gtest/gtest.h>

#include "bigint/mul.hpp"
#include "hw/accel/accelerator.hpp"
#include "ntt/mixed_radix.hpp"
#include "ssa/multiply.hpp"
#include "ssa/pack.hpp"
#include "util/rng.hpp"

namespace hemul::hw {
namespace {

using bigint::BigUInt;
using fp::Fp;
using fp::FpVec;

FpVec random_vec(util::Rng& rng, std::size_t n) {
  FpVec v(n);
  for (auto& x : v) x = Fp{rng.next()};
  return v;
}

// ---------------------------------------------------------------------------
// Distributed NTT: functional equivalence.
// ---------------------------------------------------------------------------

struct DistCase {
  std::vector<u32> radices;
  unsigned pes;
};

class DistributedVsSoftware : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedVsSoftware, ForwardMatchesMixedRadix) {
  const auto& param = GetParam();
  DistributedNttConfig config;
  config.plan = ntt::NttPlan::from_radices(param.radices);
  config.num_pes = param.pes;
  DistributedNtt engine(config);
  const ntt::MixedRadixNtt& software = ntt::shared_mixed_radix(config.plan);

  util::Rng rng(param.pes * 100 + param.radices[0]);
  const FpVec data = random_vec(rng, config.plan.size);
  NttRunReport report;
  EXPECT_EQ(engine.forward(data, &report), software.forward(data));
  EXPECT_TRUE(report.exchanges_single_partner);
  EXPECT_EQ(report.memory_conflict_cycles, 0u);
}

TEST_P(DistributedVsSoftware, InverseRoundTrips) {
  const auto& param = GetParam();
  DistributedNttConfig config;
  config.plan = ntt::NttPlan::from_radices(param.radices);
  config.num_pes = param.pes;
  DistributedNtt engine(config);

  util::Rng rng(param.pes * 100 + 7);
  const FpVec data = random_vec(rng, config.plan.size);
  EXPECT_EQ(engine.inverse(engine.forward(data)), data);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DistributedVsSoftware,
    ::testing::Values(DistCase{{16, 16}, 1}, DistCase{{16, 16}, 2},
                      DistCase{{64, 16}, 2}, DistCase{{64, 64}, 2},
                      DistCase{{16, 16, 16}, 4}, DistCase{{64, 64, 16}, 1},
                      DistCase{{64, 64, 16}, 2}, DistCase{{64, 64, 16}, 4},
                      DistCase{{16, 16, 16, 16}, 8}));

TEST(DistributedNtt, Paper64kConfigBitExact) {
  DistributedNtt engine(DistributedNttConfig{});  // 4 PEs, 64*64*16
  const ntt::MixedRadixNtt& software = ntt::shared_mixed_radix(ntt::NttPlan::paper_64k());
  util::Rng rng(42);
  const FpVec data = random_vec(rng, 65536);
  EXPECT_EQ(engine.forward(data), software.forward(data));
}

TEST(DistributedNtt, PaperCycleModel) {
  // Section V: T_FFT = 2*(8*1024)/4 + 2*4096/4 = 6144 cycles = 30.72 us.
  DistributedNtt engine(DistributedNttConfig{});
  util::Rng rng(43);
  NttRunReport report;
  (void)engine.forward(random_vec(rng, 65536), &report);

  ASSERT_EQ(report.stages.size(), 3u);
  EXPECT_EQ(report.stages[0].compute_cycles, 2048u);  // 256 FFT-64 x 8
  EXPECT_EQ(report.stages[1].compute_cycles, 2048u);
  EXPECT_EQ(report.stages[2].compute_cycles, 2048u);  // 1024 FFT-16 x 2
  EXPECT_EQ(report.total_cycles, 6144u);
  EXPECT_EQ(report.schedule, "C0 X0 C1 X1 C2");

  // Each exchange moves half of each PE's 16K words: 4 x 8K = 32K total,
  // hidden behind the next compute stage (1024 < 2048 cycles).
  EXPECT_EQ(report.stages[0].exchange_words, 32768u);
  EXPECT_EQ(report.stages[0].exchange_cycles, 1024u);
  EXPECT_EQ(report.total_cycles_no_overlap, 6144u + 2048u);
}

TEST(DistributedNtt, ExchangeDimensionsDistinct) {
  DistributedNtt engine(DistributedNttConfig{});
  util::Rng rng(44);
  NttRunReport report;
  (void)engine.forward(random_vec(rng, 65536), &report);
  EXPECT_NE(report.stages[0].exchange_dim, report.stages[1].exchange_dim);
  EXPECT_TRUE(report.exchanges_single_partner);
}

TEST(DistributedNtt, SingleNodeHasNoExchanges) {
  DistributedNttConfig config;
  config.num_pes = 1;
  DistributedNtt engine(config);
  util::Rng rng(45);
  NttRunReport report;
  (void)engine.forward(random_vec(rng, 65536), &report);
  EXPECT_EQ(report.exchange_total_words, 0u);
  // All compute serializes on one PE: 4x the paper's per-stage cycles.
  EXPECT_EQ(report.total_cycles, 4u * 6144);
}

TEST(DistributedNtt, ScheduleLegalityEnforced) {
  DistributedNttConfig config;
  config.num_pes = 8;  // d=3 but l=3: illegal per the paper's l > d rule
  EXPECT_THROW(DistributedNtt{config}, std::invalid_argument);
}

TEST(DistributedNtt, RejectsUnsupportedRadices) {
  DistributedNttConfig config;
  config.plan = ntt::NttPlan::pure_radix2(65536);
  EXPECT_THROW(DistributedNtt{config}, std::invalid_argument);
}

TEST(DistributedNtt, FuzzRandomPlansAndPeCounts) {
  // Random hardware-implementable plans (radices in {8,16,32,64}, size up
  // to 32K) with random legal PE counts: the distributed engine must stay
  // bit-exact against the software mixed-radix engine and keep all its
  // structural invariants.
  util::Rng rng(0xF0221E);
  const u32 radix_choices[] = {8, 16, 32, 64};
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<u32> radices;
    u64 size = 1;
    const unsigned stages = 2 + static_cast<unsigned>(rng.below(2));  // 2..3
    for (unsigned s = 0; s < stages; ++s) {
      const u32 r = radix_choices[rng.below(4)];
      radices.push_back(r);
      size *= r;
    }
    if (size > 32768) continue;

    DistributedNttConfig config;
    config.plan = ntt::NttPlan::from_radices(radices);
    const unsigned max_p = 1u << (stages - 1);
    unsigned pes = 1u << rng.below(3);
    while (pes > max_p || config.plan.size / config.plan.radices[0] % pes != 0) pes /= 2;
    config.num_pes = std::max(1u, pes);

    DistributedNtt engine(config);
    const ntt::MixedRadixNtt& software = ntt::shared_mixed_radix(config.plan);
    FpVec data = random_vec(rng, config.plan.size);
    NttRunReport report;
    EXPECT_EQ(engine.forward(data, &report), software.forward(data))
        << "plan " << config.plan.describe() << " P=" << config.num_pes;
    EXPECT_TRUE(report.exchanges_single_partner);
    EXPECT_EQ(report.memory_conflict_cycles, 0u);
    EXPECT_EQ(engine.inverse(engine.forward(data)), data);
  }
}

TEST(DistributedNtt, LinearityThroughTheFullMachine) {
  DistributedNtt engine(DistributedNttConfig{});
  util::Rng rng(0x11AE);
  const FpVec a = random_vec(rng, 65536);
  const FpVec b = random_vec(rng, 65536);
  FpVec ab(65536);
  for (std::size_t i = 0; i < ab.size(); ++i) ab[i] = a[i] + b[i];
  const FpVec fa = engine.forward(a);
  const FpVec fb = engine.forward(b);
  const FpVec fab = engine.forward(ab);
  for (std::size_t i = 0; i < ab.size(); ++i) EXPECT_EQ(fab[i], fa[i] + fb[i]);
}

TEST(DistributedNtt, BaselineUnitProducesSameSpectra) {
  DistributedNttConfig opt_config;
  DistributedNttConfig base_config;
  base_config.unit = FftUnitKind::kBaseline;
  DistributedNtt opt(opt_config);
  DistributedNtt base(base_config);
  util::Rng rng(46);
  const FpVec data = random_vec(rng, 65536);
  EXPECT_EQ(opt.forward(data), base.forward(data));
}

TEST(DistributedNtt, Figure2DataDistribution) {
  // The paper's Fig. 2 for the 64*64*16 plan on 4 PEs: stage 1 over n3
  // (keyed on untransformed n2/n1 bits), exchange to k3, stage 2 over n2,
  // exchange to k2, stage 3 over n1.
  DistributedNtt engine(DistributedNttConfig{});
  const std::string fig2 = engine.describe_distribution();
  EXPECT_NE(fig2.find("C0: radix-64 FFTs over n3"), std::string::npos) << fig2;
  EXPECT_NE(fig2.find("C1: radix-64 FFTs over n2"), std::string::npos);
  EXPECT_NE(fig2.find("C2: radix-16 FFTs over n1"), std::string::npos);
  EXPECT_NE(fig2.find("n2[5] -> k3[5]"), std::string::npos);
  EXPECT_NE(fig2.find("n1[3] -> k2[5]"), std::string::npos);
  // Two exchanges, along distinct dimensions.
  EXPECT_NE(fig2.find("X0"), std::string::npos);
  EXPECT_NE(fig2.find("X1"), std::string::npos);
}

TEST(DistributedNtt, KeyScheduleNeverTouchesActiveDigit) {
  // The structural invariant behind stage locality, for several configs.
  for (const unsigned pes : {1u, 2u, 4u}) {
    DistributedNttConfig config;
    config.num_pes = pes;
    DistributedNtt engine(config);
    const auto schedule = engine.key_schedule();
    for (unsigned s = 0; s < schedule.size(); ++s) {
      for (const auto& bit : schedule[s]) {
        EXPECT_NE(bit.stage_var, s) << "P=" << pes << " stage " << s;
      }
    }
  }
}

TEST(DistributedNtt, TwiddleProductsAccounted) {
  DistributedNtt engine(DistributedNttConfig{});
  util::Rng rng(47);
  NttRunReport report;
  (void)engine.forward(random_vec(rng, 65536), &report);
  // Twiddles applied to every output of stages 0 and 1: 2 x 65536.
  EXPECT_EQ(report.twiddle_products, 2u * 65536);
}

// ---------------------------------------------------------------------------
// Pointwise + carry recovery units.
// ---------------------------------------------------------------------------

TEST(PointwiseUnit, ProductAndCycleModel) {
  PointwiseUnit unit(32);
  util::Rng rng(48);
  const FpVec a = random_vec(rng, 65536);
  const FpVec b = random_vec(rng, 65536);
  PointwiseUnit::Report report;
  const FpVec c = unit.multiply(a, b, &report);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(c[i], a[i] * b[i]);
  // Section V: T_DOTPROD = 65536/32 = 2048 cycles = 10.24 us.
  EXPECT_EQ(report.cycles, 2048u);
  EXPECT_EQ(report.products, 65536u);
  EXPECT_EQ(unit.dsp_blocks(), 256u);
}

TEST(PointwiseUnit, Validation) {
  EXPECT_THROW(PointwiseUnit(0), std::invalid_argument);
  PointwiseUnit unit(4);
  const FpVec a(8, fp::kOne);
  const FpVec b(4, fp::kOne);
  EXPECT_THROW(unit.multiply(a, b), std::logic_error);
}

TEST(CarryRecoveryUnit, MatchesSoftwareAndCycleModel) {
  CarryRecoveryUnit unit(16);
  util::Rng rng(49);
  FpVec coeffs(65536);
  for (auto& c : coeffs) c = Fp::from_canonical(rng.below(1ULL << 48));
  CarryRecoveryUnit::Report report;
  const BigUInt result = unit.recover(coeffs, 24, &report);
  EXPECT_EQ(result, ssa::carry_recover(coeffs, 24));
  // Section V: ~20 us at 200 MHz = 4096 cycles.
  EXPECT_EQ(report.cycles, 4096u);
}

// ---------------------------------------------------------------------------
// Full accelerator.
// ---------------------------------------------------------------------------

TEST(HwAccelerator, PaperMultiplicationBitExact) {
  HwAccelerator accel(AcceleratorConfig::paper());
  util::Rng rng(50);
  const BigUInt a = BigUInt::random_bits(rng, 786432);
  const BigUInt b = BigUInt::random_bits(rng, 786432);
  MultiplyReport report;
  const BigUInt product = accel.multiply(a, b, &report);
  EXPECT_EQ(product, ssa::multiply(a, b, ssa::SsaParams::paper()));

  // Section V timing: 3 FFTs + dot product + carry = 122.88 us.
  EXPECT_EQ(report.forward_a.total_cycles, 6144u);
  EXPECT_EQ(report.fft_cycles, 3u * 6144);
  EXPECT_EQ(report.pointwise.cycles, 2048u);
  EXPECT_EQ(report.carry.cycles, 4096u);
  EXPECT_EQ(report.total_cycles, 24576u);
  EXPECT_NEAR(report.total_time_us(), 122.88, 0.01);
  EXPECT_NEAR(report.fft_time_us(), 30.72, 0.01);
}

TEST(HwAccelerator, SquaringFastPath) {
  // Squaring reuses the single forward spectrum: 2 transforms instead of 3,
  // 92.16 us instead of 122.88 us at the paper's operating point.
  HwAccelerator accel(AcceleratorConfig::paper());
  util::Rng rng(53);
  const BigUInt a = BigUInt::random_bits(rng, 400000);
  MultiplyReport report;
  const BigUInt sq = accel.square(a, &report);
  EXPECT_EQ(sq, bigint::mul_karatsuba(a, a));
  EXPECT_EQ(report.fft_cycles, 2u * 6144);
  EXPECT_EQ(report.total_cycles, 2u * 6144 + 2048 + 4096);
  EXPECT_NEAR(report.total_time_us(), 92.16, 0.01);
}

TEST(HwAccelerator, SquareMatchesMultiplyBySelf) {
  HwAccelerator accel(AcceleratorConfig::paper());
  util::Rng rng(54);
  const BigUInt a = BigUInt::random_bits(rng, 10000);
  EXPECT_EQ(accel.square(a), accel.multiply(a, a));
}

TEST(HwAccelerator, SmallOperandsAndEdgeCases) {
  HwAccelerator accel(AcceleratorConfig::paper());
  util::Rng rng(51);
  const BigUInt a = BigUInt::random_bits(rng, 1000);
  const BigUInt b = BigUInt::random_bits(rng, 500);
  EXPECT_EQ(accel.multiply(a, b), bigint::mul_schoolbook(a, b));
  EXPECT_EQ(accel.multiply(BigUInt{}, a), BigUInt{});
  EXPECT_EQ(accel.multiply(BigUInt{1}, a), a);
}

TEST(HwAccelerator, NttAccessRoundTrip) {
  HwAccelerator accel(AcceleratorConfig::paper());
  util::Rng rng(52);
  const FpVec data = random_vec(rng, 65536);
  EXPECT_EQ(accel.ntt_inverse(accel.ntt_forward(data)), data);
}

TEST(HwAccelerator, ConfigMismatchRejected) {
  AcceleratorConfig config = AcceleratorConfig::paper();
  config.ssa = ssa::SsaParams::for_bits(1000);  // transform size != plan size
  EXPECT_THROW(HwAccelerator{config}, std::logic_error);
}

}  // namespace
}  // namespace hemul::hw
