#include "hw/accel/accelerator.hpp"

#include "ssa/batch.hpp"
#include "ssa/pack.hpp"
#include "util/check.hpp"

namespace hemul::hw {

using bigint::BigUInt;
using fp::FpVec;

AcceleratorConfig AcceleratorConfig::paper() {
  AcceleratorConfig config;
  config.ntt = DistributedNttConfig{};  // 4 PEs, plan 64*64*16, optimized unit
  config.clock_ns = 5.0;
  config.pointwise_multipliers = 32;
  config.carry_lanes = 16;
  config.ssa = ssa::SsaParams::paper();
  return config;
}

HwAccelerator::HwAccelerator(AcceleratorConfig config)
    : config_(std::move(config)),
      ntt_(config_.ntt),
      pointwise_(config_.pointwise_multipliers),
      carry_(config_.carry_lanes) {
  HEMUL_CHECK_MSG(config_.ssa.transform_size == config_.ntt.plan.size,
                  "SSA parameters must match the NTT plan size");
  config_.ssa.validate();
}

BigUInt HwAccelerator::multiply(const BigUInt& a, const BigUInt& b, MultiplyReport* report) {
  MultiplyReport local;
  local.clock_ns = config_.clock_ns;

  ssa::pack_into(a, config_.ssa, workspace_.pack_a);
  ssa::pack_into(b, config_.ssa, workspace_.pack_b);

  const FpVec fa = ntt_.forward(workspace_.pack_a, &local.forward_a);
  const FpVec fb = ntt_.forward(workspace_.pack_b, &local.forward_b);
  const FpVec fc = pointwise_.multiply(fa, fb, &local.pointwise);
  const FpVec pc = ntt_.inverse(fc, &local.inverse_c);
  BigUInt product = carry_.recover(pc, config_.ssa.coeff_bits, &local.carry);

  local.fft_cycles = local.forward_a.total_cycles + local.forward_b.total_cycles +
                     local.inverse_c.total_cycles;
  local.total_cycles = local.fft_cycles + local.pointwise.cycles + local.carry.cycles;

  if (report != nullptr) *report = std::move(local);
  return product;
}

std::vector<BigUInt> HwAccelerator::multiply_batch(
    std::span<const std::pair<BigUInt, BigUInt>> operands, BatchReport* report) {
  std::vector<BigUInt> products;
  products.reserve(operands.size());

  BatchReport local;
  local.clock_ns = config_.clock_ns;
  local.operations = operands.size();

  for (std::size_t i = 0; i < operands.size(); ++i) {
    MultiplyReport op_report;
    products.push_back(multiply(operands[i].first, operands[i].second, &op_report));
    if (i == 0) {
      local.first_latency_cycles = op_report.total_cycles;
      // Steady state: the FFT engine (3 transforms) plus the dot product
      // (which shares the PE multipliers) bound the initiation interval;
      // carry recovery overlaps on its own adder.
      local.interval_cycles = op_report.fft_cycles + op_report.pointwise.cycles;
    }
  }
  if (!operands.empty()) {
    local.total_cycles =
        local.first_latency_cycles + (operands.size() - 1) * local.interval_cycles;
  }
  if (report != nullptr) *report = local;
  return products;
}

std::vector<BigUInt> HwAccelerator::multiply_batch_cached(
    std::span<const std::pair<BigUInt, BigUInt>> operands, BatchReport* report) {
  std::vector<BigUInt> products;
  products.reserve(operands.size());

  BatchReport local;
  local.clock_ns = config_.clock_ns;
  local.operations = operands.size();

  u64 fft_engine_cycles = 0;  // transforms + dot products (shared multipliers)
  u64 last_carry_cycles = 0;  // only the tail's carry recovery is exposed

  const auto forward = [&](const BigUInt& operand, FpVec& dst) {
    NttRunReport fwd;
    ssa::pack_into(operand, config_.ssa, workspace_.pack_a);
    dst = ntt_.forward(workspace_.pack_a, &fwd);
    fft_engine_cycles += fwd.total_cycles;
  };
  ssa::BatchSpectrumProvider spectra(operands, forward);

  for (std::size_t i = 0; i < operands.size(); ++i) {
    FpVec scratch_a;
    FpVec scratch_b;
    const FpVec& fa = spectra.get(operands[i].first, scratch_a);
    const FpVec& fb = spectra.get(operands[i].second, scratch_b);

    PointwiseUnit::Report pw;
    const FpVec fc = pointwise_.multiply(fa, fb, &pw);
    NttRunReport inv;
    const FpVec pc = ntt_.inverse(fc, &inv);
    CarryRecoveryUnit::Report carry;
    products.push_back(carry_.recover(pc, config_.ssa.coeff_bits, &carry));

    fft_engine_cycles += pw.cycles + inv.total_cycles;
    last_carry_cycles = carry.cycles;
    if (i == 0) local.first_latency_cycles = fft_engine_cycles + carry.cycles;
  }

  // Double-buffered streaming: every transform and dot product serializes
  // on the PE array, while each job's carry recovery overlaps the next
  // job's transforms on its dedicated adder -- only the tail's is exposed.
  local.forward_transforms = spectra.forward_transforms();
  local.spectrum_cache_hits = spectra.cache_hits();
  local.total_cycles = fft_engine_cycles + last_carry_cycles;
  if (operands.size() > 1) {
    local.interval_cycles =
        (local.total_cycles - local.first_latency_cycles) / (operands.size() - 1);
  }
  if (report != nullptr) *report = local;
  return products;
}

BigUInt HwAccelerator::square(const BigUInt& a, MultiplyReport* report) {
  MultiplyReport local;
  local.clock_ns = config_.clock_ns;

  ssa::pack_into(a, config_.ssa, workspace_.pack_a);
  const FpVec fa = ntt_.forward(workspace_.pack_a, &local.forward_a);
  const FpVec fc = pointwise_.multiply(fa, fa, &local.pointwise);
  const FpVec pc = ntt_.inverse(fc, &local.inverse_c);
  BigUInt product = carry_.recover(pc, config_.ssa.coeff_bits, &local.carry);

  local.fft_cycles = local.forward_a.total_cycles + local.inverse_c.total_cycles;
  local.total_cycles = local.fft_cycles + local.pointwise.cycles + local.carry.cycles;

  if (report != nullptr) *report = std::move(local);
  return product;
}

FpVec HwAccelerator::ntt_forward(const FpVec& data, NttRunReport* report) {
  return ntt_.forward(data, report);
}

FpVec HwAccelerator::ntt_inverse(const FpVec& data, NttRunReport* report) {
  return ntt_.inverse(data, report);
}

}  // namespace hemul::hw
