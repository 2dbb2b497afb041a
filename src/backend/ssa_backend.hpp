#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "backend/backend.hpp"
#include "ssa/multiply.hpp"
#include "ssa/params.hpp"
#include "ssa/resident.hpp"
#include "ssa/workspace.hpp"

namespace hemul::backend {

/// Software Schonhage-Strassen/NTT backend (src/ssa), registered as "ssa".
///
/// Default-constructed it adapts its parameters to each call (any operand
/// size); constructed with fixed SsaParams it becomes one accelerator
/// instance with a hard operand limit, matching the hardware's behavior.
/// multiply_batch runs the spectrum-caching batch executor (ssa/batch.hpp).
///
/// Every call runs in a reusable ssa::Workspace: the scheduler injects one
/// per PE lane via set_workspace(); otherwise the calling thread's arena is
/// used. Either way, steady-state calls are allocation-free apart from the
/// returned products. A backend instance must not be called concurrently
/// from multiple threads (see CONTRIBUTING.md on workspace ownership).
class SsaBackend final : public MultiplierBackend {
 public:
  SsaBackend() = default;
  explicit SsaBackend(ssa::SsaParams params) : fixed_params_(params) {}

  [[nodiscard]] std::string name() const override { return "ssa"; }
  [[nodiscard]] BackendLimits limits() const override;
  [[nodiscard]] bigint::BigUInt multiply(const bigint::BigUInt& a,
                                         const bigint::BigUInt& b) override;
  [[nodiscard]] bigint::BigUInt square(const bigint::BigUInt& a) override;
  std::vector<bigint::BigUInt> multiply_batch(std::span<const MulJob> jobs,
                                              BatchStats* stats = nullptr) override;

  /// Dedicated buffer arena for this instance (the scheduler gives each PE
  /// lane its own, so lanes never contend); without one, the calling
  /// thread's arena is used.
  void set_workspace(std::shared_ptr<ssa::Workspace> workspace) {
    workspace_ = std::move(workspace);
  }

  // ---- spectrum-resident entry points --------------------------------
  // The evaluator's wavefront loop splits the 3-transform multiply into
  // its phases so intermediate spectra can stay resident across gates:
  // forward once per distinct operand wire, pointwise per AND gate, one
  // inverse per wire that actually leaves the domain. All three run in
  // this instance's workspace and book into stats().

  /// Forward spectrum of `value` under `params` (an operand spectrum).
  [[nodiscard]] ssa::SpectrumHandle forward_spectrum(const bigint::BigUInt& value,
                                                     const ssa::SsaParams& params);

  /// Pointwise product of two operand spectra (a product spectrum).
  [[nodiscard]] ssa::SpectrumHandle multiply_spectra(const ssa::SpectrumHandle& a,
                                                     const ssa::SpectrumHandle& b,
                                                     const ssa::SsaParams& params);

  /// The exact integer a resident spectrum stands for (inverse + carry
  /// recovery; the spectrum is not consumed).
  [[nodiscard]] bigint::BigUInt materialize_spectrum(const ssa::Spectrum& spectrum,
                                                     const ssa::SsaParams& params);

  /// Cumulative transform statistics across this instance's calls.
  /// transform_count reflects transforms actually executed: 3 per
  /// multiply, 2 per square, the batch provider's count per batch and one
  /// per spectrum forward or materialization. Thread-safe (the registry's
  /// shared "auto" instance is reachable from concurrent sessions).
  [[nodiscard]] ssa::SsaStats stats() const;

 private:
  /// Fixed parameters, or parameters sized for `bits`-bit operands.
  [[nodiscard]] ssa::SsaParams params_for(std::size_t bits) const;

  [[nodiscard]] ssa::Workspace& workspace() {
    return workspace_ != nullptr ? *workspace_ : ssa::thread_workspace();
  }

  void accumulate(const ssa::SsaStats& call_stats);

  std::optional<ssa::SsaParams> fixed_params_;
  std::shared_ptr<ssa::Workspace> workspace_;
  /// Guards stats_ only: calls themselves need per-instance (or per-lane)
  /// serialization because of the workspace, but the shared "auto"
  /// engine's inner SsaBackend can see concurrent callers, each on its own
  /// thread workspace.
  mutable std::mutex stats_mutex_;
  ssa::SsaStats stats_;
};

}  // namespace hemul::backend
