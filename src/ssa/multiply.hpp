#pragma once

#include "bigint/biguint.hpp"
#include "bigint/mul.hpp"
#include "fp/fp64.hpp"
#include "ssa/params.hpp"
#include "ssa/resident.hpp"
#include "ssa/workspace.hpp"

namespace hemul::ssa {

/// Operation statistics of SSA multiplications, mirroring the work the
/// accelerator schedules on hardware.
///
/// transform_count counts transforms *actually executed*: 3 for a full
/// multiplication (two forward + one inverse), 2 for a squaring or a product
/// by a PreparedSpectrum (its operand's forward is already held).
struct SsaStats {
  u64 pointwise_muls = 0;   ///< component-wise products (paper: 65536)
  u64 transform_count = 0;  ///< forward + inverse NTTs actually run

  SsaStats& operator+=(const SsaStats& o) noexcept {
    pointwise_muls += o.pointwise_muls;
    transform_count += o.transform_count;
    return *this;
  }
};

/// Schonhage-Strassen multiplication (paper Section III):
/// pack -> NTT(a), NTT(b) -> component-wise product -> inverse NTT ->
/// carry recovery, on the four-step NTT (ntt::FourStepNtt) and entirely
/// within the given workspace's buffers and the process-wide shared engine
/// cache: steady state runs allocation-free and setup-free. The product is
/// written into `out`, reusing its limb storage (out may alias a or b).
/// Exact for operands up to params.max_operand_bits().
void multiply_into(bigint::BigUInt& out, const bigint::BigUInt& a, const bigint::BigUInt& b,
                   const SsaParams& params, Workspace& workspace,
                   SsaStats* stats = nullptr);

/// Allocating wrapper over multiply_into (thread-local workspace; the only
/// steady-state allocation is the returned product's limb vector).
bigint::BigUInt multiply(const bigint::BigUInt& a, const bigint::BigUInt& b,
                         const SsaParams& params, SsaStats* stats = nullptr);

/// Convenience wrapper choosing parameters from the operand sizes.
bigint::BigUInt mul_ssa(const bigint::BigUInt& a, const bigint::BigUInt& b);

/// Squaring fast path: a single forward transform (the two spectra
/// coincide), so the cost drops from 3 to 2 transforms -- the same saving
/// the accelerator realizes when both operands are the same ciphertext
/// (e.g. the squarings of an exponentiation ladder).
void square_into(bigint::BigUInt& out, const bigint::BigUInt& a, const SsaParams& params,
                 Workspace& workspace, SsaStats* stats = nullptr);

/// Allocating wrapper over square_into (thread-local workspace).
bigint::BigUInt square(const bigint::BigUInt& a, const SsaParams& params,
                       SsaStats* stats = nullptr);

/// An operand prepared for many products at one geometry: a Spectrum from
/// SpectrumDomain::enter behind the bigint::PreparedOperand interface, which
/// the backend registry builds for products it would run on SSA. The
/// operand is entered once, by the constructor, so a product by it
/// transforms only the other operand: SpectrumDomain::forward, then
/// leave_product (one pointwise product and one inverse; transform_count 2,
/// not 3). Immutable, so one instance may serve many threads, each in its
/// own workspace.
class PreparedSpectrum final : public bigint::PreparedOperand {
 public:
  /// Requires value.bit_length() <= params.max_operand_bits().
  PreparedSpectrum(bigint::BigUInt value, const SsaParams& params);

  /// out = value() * other, for other.bit_length() <= params().max_operand_bits(),
  /// in the given workspace: allocation-free once the workspace and out are
  /// warm (out may alias other).
  void multiply_into(bigint::BigUInt& out, const bigint::BigUInt& other, Workspace& workspace,
                     SsaStats* stats = nullptr) const;

  /// Allocating wrapper over multiply_into (thread-local workspace).
  [[nodiscard]] bigint::BigUInt multiply(const bigint::BigUInt& other) const override;

  [[nodiscard]] const SsaParams& params() const noexcept { return params_; }

 private:
  SsaParams params_;
  Spectrum spectrum_;  ///< value() entered at params_
};

}  // namespace hemul::ssa
