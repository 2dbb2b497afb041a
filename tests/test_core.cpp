#include <gtest/gtest.h>

#include "bigint/mul.hpp"
#include "core/accelerator.hpp"
#include "util/rng.hpp"

namespace hemul::core {
namespace {

using bigint::BigUInt;

TEST(Config, PaperDefaults) {
  const Config config = Config::paper();
  EXPECT_EQ(config.backend_name, "hw");
  EXPECT_EQ(config.hardware.ntt.num_pes, 4u);
  EXPECT_DOUBLE_EQ(config.hardware.clock_ns, 5.0);
  EXPECT_EQ(config.hardware.ntt.plan.describe(), "64*64*16");
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, MismatchDetected) {
  Config config = Config::paper();
  config.hardware.ssa = ssa::SsaParams::for_bits(1000);
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Accelerator, HardwareAndSoftwareBackendsAgree) {
  Config hw_config = Config::paper();
  Config sw_config = Config::paper();
  sw_config.backend_name = "ssa";
  Accelerator hw(hw_config);
  Accelerator sw(sw_config);

  util::Rng rng(1);
  const BigUInt a = BigUInt::random_bits(rng, 50000);
  const BigUInt b = BigUInt::random_bits(rng, 50000);
  const MultiplyResult rh = hw.multiply(a, b);
  const MultiplyResult rs = sw.multiply(a, b);
  EXPECT_EQ(rh.product, rs.product);
  EXPECT_EQ(rh.product, bigint::mul_karatsuba(a, b));
  EXPECT_TRUE(rh.hw_report.has_value());
  EXPECT_FALSE(rs.hw_report.has_value());
}

TEST(Accelerator, ReportsPaperTiming) {
  Accelerator accel;
  util::Rng rng(2);
  const BigUInt a = BigUInt::random_bits(rng, 786432);
  const BigUInt b = BigUInt::random_bits(rng, 786432);
  const MultiplyResult r = accel.multiply(a, b);
  ASSERT_TRUE(r.hw_report.has_value());
  EXPECT_NEAR(r.hw_report->total_time_us(), 122.88, 0.01);
  // The closed-form model and the cycle-accurate simulation must agree.
  EXPECT_NEAR(r.modeled_time_us, r.hw_report->total_time_us(), 0.01);
}

TEST(Accelerator, NttRoundTripThroughFacade) {
  Accelerator accel;
  util::Rng rng(3);
  fp::FpVec data(65536);
  for (auto& x : data) x = fp::Fp{rng.next()};
  hw::NttRunReport report;
  const fp::FpVec spectrum = accel.ntt_forward(data, &report);
  EXPECT_EQ(report.total_cycles, 6144u);
  EXPECT_EQ(accel.ntt_inverse(spectrum), data);
}

TEST(Accelerator, SoftwareBackendRejectsNttAccess) {
  Config config = Config::paper();
  config.backend_name = "ssa";
  Accelerator accel(config);
  fp::FpVec data(65536, fp::kZero);
  EXPECT_THROW((void)accel.ntt_forward(data), std::logic_error);
}

TEST(Accelerator, ResourceReportMatchesTableOne) {
  Accelerator accel;
  const hw::ResourceComparison resources = accel.resources();
  EXPECT_EQ(resources.proposed.alms, 104000u);
  EXPECT_EQ(resources.baseline.alms, 231000u);
}

TEST(Accelerator, PerformanceReportMatchesSectionV) {
  Accelerator accel;
  const hw::PerfBreakdown perf = accel.performance();
  EXPECT_NEAR(perf.fft_us(), 30.72, 1e-9);
  EXPECT_NEAR(perf.mult_us(), 122.88, 1e-9);
}

TEST(Accelerator, TwoPeConfiguration) {
  Config config = Config::paper();
  config.hardware.ntt.num_pes = 2;
  Accelerator accel(config);
  const hw::PerfBreakdown perf = accel.performance();
  EXPECT_NEAR(perf.fft_us(), 61.44, 1e-9);  // half the PEs, twice the time

  util::Rng rng(4);
  const BigUInt a = BigUInt::random_bits(rng, 10000);
  const BigUInt b = BigUInt::random_bits(rng, 10000);
  EXPECT_EQ(accel.multiply(a, b).product, bigint::mul_schoolbook(a, b));
}

}  // namespace
}  // namespace hemul::core
