#include "core/accelerator.hpp"

#include "backend/hw_backend.hpp"
#include "backend/registry.hpp"
#include "backend/ssa_backend.hpp"
#include "util/check.hpp"

namespace hemul::core {

Accelerator::Accelerator(Config config) : config_(std::move(config)) {
  config_.validate();
  const std::string& name = config_.backend_name;
  if (name == "hw") {
    // Instantiated directly (not via the registry) so it runs with this
    // facade's hardware configuration rather than the paper default.
    auto hw = std::make_shared<backend::HwBackend>(config_.hardware);
    hw_backend_ = hw.get();
    backend_ = std::move(hw);
  } else if (name == "ssa") {
    backend_ = std::make_shared<backend::SsaBackend>(config_.hardware.ssa);
  } else {
    backend_ = backend::make_backend(name);
  }
}

Accelerator::Accelerator(Accelerator&&) noexcept = default;
Accelerator& Accelerator::operator=(Accelerator&&) noexcept = default;
Accelerator::~Accelerator() = default;

MultiplyResult Accelerator::multiply(const bigint::BigUInt& a, const bigint::BigUInt& b) {
  MultiplyResult result;

  const hw::PerfBreakdown perf = performance();
  result.modeled_time_us = perf.mult_us();

  result.product = backend_->multiply(a, b);
  if (hw_backend_ != nullptr) result.hw_report = hw_backend_->last_report();
  return result;
}

BatchResult Accelerator::multiply_batch(std::span<const backend::MulJob> jobs) {
  BatchResult result;
  result.products = backend_->multiply_batch(jobs, &result.stats);
  return result;
}

fp::FpVec Accelerator::ntt_forward(const fp::FpVec& data, hw::NttRunReport* report) {
  HEMUL_CHECK_MSG(hw_backend_ != nullptr, "NTT access requires the simulated-hardware backend");
  return hw_backend_->accelerator().ntt_forward(data, report);
}

fp::FpVec Accelerator::ntt_inverse(const fp::FpVec& data, hw::NttRunReport* report) {
  HEMUL_CHECK_MSG(hw_backend_ != nullptr, "NTT access requires the simulated-hardware backend");
  return hw_backend_->accelerator().ntt_inverse(data, report);
}

hw::ResourceComparison Accelerator::resources() const {
  hw::ResourceComparison comparison = hw::ResourceComparison::paper();
  hw::AccelParams params = hw::AccelParams::paper();
  params.num_pes = config_.hardware.ntt.num_pes;
  if (config_.hardware.ntt.unit == hw::FftUnitKind::kBaseline) {
    params.pe.fft = hw::Fft64UnitParams::baseline();
  }
  comparison.proposed = hw::accelerator_cost(params);
  return comparison;
}

hw::PerfBreakdown Accelerator::performance() const {
  hw::PerfParams params;
  params.clock_ns = config_.hardware.clock_ns;
  params.num_pes = config_.hardware.ntt.num_pes;
  params.plan = config_.hardware.ntt.plan;
  params.pointwise_multipliers = config_.hardware.pointwise_multipliers;
  params.carry_lanes = config_.hardware.carry_lanes;
  return evaluate_perf(params);
}

}  // namespace hemul::core
