#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bigint/biguint.hpp"

namespace hemul::backend {

/// Capability/limit description of a multiplier backend, queried by the
/// layers above it (core facade, FHE scheme, CLI) before submitting work.
struct BackendLimits {
  /// Largest exact operand in bits; 0 means unlimited (the backend adapts
  /// its parameters to the operand size).
  std::size_t max_operand_bits = 0;
  /// multiply_batch caches forward NTT spectra of repeated operands, so a
  /// batch sharing one operand costs N+1 transforms instead of 3N.
  bool caches_spectra = false;
  /// The backend models hardware and fills cycle counts in BatchStats /
  /// exposes per-multiply cycle reports.
  bool reports_hw_cycles = false;
};

/// Execution statistics of one multiply_batch call.
struct BatchStats {
  u64 jobs = 0;
  u64 forward_transforms = 0;   ///< forward NTTs actually executed
  u64 inverse_transforms = 0;   ///< one per product on NTT backends
  u64 spectrum_cache_hits = 0;  ///< forward transforms avoided by the cache
  u64 total_cycles = 0;         ///< modeled cycles (hardware backends only)
  double clock_ns = 0.0;

  [[nodiscard]] double total_time_us() const noexcept {
    return static_cast<double>(total_cycles) * clock_ns / 1000.0;
  }
};

/// One batched multiplication job: a pair of operands.
using MulJob = std::pair<bigint::BigUInt, bigint::BigUInt>;

/// Abstract ultralong-integer multiplier.
///
/// This is the seam the whole stack dispatches through: classical bigint
/// algorithms, the software SSA/NTT path and the simulated FPGA accelerator
/// all implement it, and fhe::Dghv / core::Accelerator / the examples pick
/// an engine by name from the Registry rather than hardwiring a call path
/// (the FAB/Medha layering: scheduling above, arithmetic units below).
class MultiplierBackend {
 public:
  virtual ~MultiplierBackend() = default;

  /// Registry key / display name, e.g. "ssa" or "hw".
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual BackendLimits limits() const = 0;

  /// The exact product a*b. Operands must respect limits().
  [[nodiscard]] virtual bigint::BigUInt multiply(const bigint::BigUInt& a,
                                                 const bigint::BigUInt& b) = 0;

  /// Squaring; NTT backends override with the one-forward-transform fast
  /// path (paper: 2 instead of 3 transforms).
  [[nodiscard]] virtual bigint::BigUInt square(const bigint::BigUInt& a) {
    return multiply(a, a);
  }

  /// Multiplies a batch of jobs, bit-exact against per-call multiply().
  /// The base implementation loops; spectrum-caching backends override it
  /// to amortize forward transforms of repeated operands.
  virtual std::vector<bigint::BigUInt> multiply_batch(std::span<const MulJob> jobs,
                                                      BatchStats* stats = nullptr);
};

/// Adapts an arbitrary multiplication function to the backend interface
/// (plug it in with fhe::Dghv::set_backend; tests use it to inject
/// counting/faulting multipliers).
class FunctionBackend final : public MultiplierBackend {
 public:
  using MulFn = std::function<bigint::BigUInt(const bigint::BigUInt&, const bigint::BigUInt&)>;

  explicit FunctionBackend(MulFn fn, std::string name = "custom")
      : fn_(std::move(fn)), name_(std::move(name)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] BackendLimits limits() const override { return {}; }
  [[nodiscard]] bigint::BigUInt multiply(const bigint::BigUInt& a,
                                         const bigint::BigUInt& b) override {
    return fn_(a, b);
  }

 private:
  MulFn fn_;
  std::string name_;
};

}  // namespace hemul::backend
