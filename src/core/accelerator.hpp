#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "backend/backend.hpp"
#include "core/config.hpp"
#include "hw/perf/perf_model.hpp"
#include "hw/resources/report.hpp"

namespace hemul::backend {
class HwBackend;
}

namespace hemul::core {

/// Result of one multiplication through the facade.
struct MultiplyResult {
  bigint::BigUInt product;
  /// Cycle-accurate report (present for the simulated-hardware backend).
  std::optional<hw::MultiplyReport> hw_report;
  /// Closed-form Section V latency estimate for this configuration (us).
  double modeled_time_us = 0.0;
};

/// Result of one batched multiplication through the facade.
struct BatchResult {
  std::vector<bigint::BigUInt> products;
  /// Transform/cache accounting (cycle fields filled by "hw").
  backend::BatchStats stats;
};

/// The paper's hardware view: a thin facade over a pluggable multiplier
/// backend (see backend::Registry), with the paper's simulated accelerator
/// as the default engine -- multiply with a cycle report, the 64K-point
/// NTT, modeled resources and performance. Concurrent lanes are
/// core::Scheduler; circuit evaluation is fhe::Evaluator.
///
/// Typical use:
///   core::Accelerator accel;                       // paper configuration
///   auto r = accel.multiply(a, b);                 // 786,432-bit operands
///   r.product, r.hw_report->total_time_us()
///
/// Any registered engine can be selected by name:
///   core::Config config;
///   config.backend_name = "ssa";                   // or "classical", ...
///   core::Accelerator sw(config);
class Accelerator {
 public:
  explicit Accelerator(Config config = Config::paper());
  Accelerator(Accelerator&&) noexcept;
  Accelerator& operator=(Accelerator&&) noexcept;
  ~Accelerator();

  /// Multiplies two operands of up to config().hardware.ssa operand bits.
  MultiplyResult multiply(const bigint::BigUInt& a, const bigint::BigUInt& b);

  /// Multiplies a batch of jobs with double-buffered streaming; engines
  /// that cache forward spectra (hw, ssa) charge a repeated operand's
  /// transform once per batch, so N products against one ciphertext cost
  /// N+1 transforms instead of 3N.
  BatchResult multiply_batch(std::span<const backend::MulJob> jobs);

  /// Forward / inverse 64K-point NTT on the simulated hardware.
  fp::FpVec ntt_forward(const fp::FpVec& data, hw::NttRunReport* report = nullptr);
  fp::FpVec ntt_inverse(const fp::FpVec& data, hw::NttRunReport* report = nullptr);

  /// Modeled resource usage (Table I) for the current configuration.
  [[nodiscard]] hw::ResourceComparison resources() const;

  /// Closed-form performance model (Section V) for the configuration.
  [[nodiscard]] hw::PerfBreakdown performance() const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// The engine multiplications dispatch through.
  [[nodiscard]] backend::MultiplierBackend& backend() noexcept { return *backend_; }

 private:
  Config config_;
  std::shared_ptr<backend::MultiplierBackend> backend_;
  /// Set when backend_ is the simulated hardware (cycle reports, NTT access).
  backend::HwBackend* hw_backend_ = nullptr;
};

}  // namespace hemul::core
