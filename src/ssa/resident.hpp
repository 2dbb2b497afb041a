#pragma once

#include <memory>

#include "bigint/biguint.hpp"
#include "fp/fp64.hpp"
#include "ssa/params.hpp"
#include "ssa/workspace.hpp"

namespace hemul::ntt {
class FourStepNtt;
}  // namespace hemul::ntt

namespace hemul::ssa {

/// An integer held in the NTT spectrum domain at one packing geometry -- the
/// software analogue of the accelerator keeping operands in on-chip
/// transform memory between butterfly passes instead of round-tripping
/// through DRAM. Evaluator wires and the prepared operands of
/// PreparedSpectrum are both held this way.
///
/// Coefficients are carried in the redundant representation of
/// fp/kernels.hpp (any u64 in [0, 2^64) standing for its residue), with an
/// explicit lazy-reduction policy: `coeff_bound` tracks an upper bound on
/// the TRUE (integer, pre-reduction) convolution coefficients the spectrum
/// stands for. As long as the bound stays below p, the inverse transform
/// recovers the exact integer coefficients, so pointwise sums may pile up
/// without any per-addition canonicalization; canonicalization happens only
/// at inverse time.
///
/// Two kinds of spectra exist:
///   * operand spectra (from enter()): degree = ceil(bits / m) packed
///     coefficients, each < 2^m. Only these may be multiplied.
///   * product/sum spectra (from multiply()/accumulate()): stand for an
///     UNREDUCED integer (a raw ciphertext product, or a sum of such). They
///     may be accumulated or inverted, never multiplied -- their degree and
///     coefficient bounds would break the exactness conditions.
struct Spectrum {
  fp::FpVec spec;       ///< transform_size elements, four-step engine order
  u64 degree = 0;       ///< nonzero coefficient count of the represented poly
  u128 coeff_bound = 0; ///< upper bound on any true convolution coefficient

  [[nodiscard]] bool empty() const noexcept { return degree == 0; }
  void reset() noexcept {
    degree = 0;
    coeff_bound = 0;
  }
};

/// Shared ownership handle for resident spectra: the scheduler lanes and
/// the evaluator hold the same immutable-once-published spectrum without
/// copies.
using SpectrumHandle = std::shared_ptr<Spectrum>;

/// The spectrum-resident evaluator's fold cap, in bits: no resident wire
/// sums more product spectra than SsaParams::for_bits(bits,
/// kResidentHeadroomBits).max_products() (at least 2^6 = 64), and a fold
/// that would is demoted to eager. The cap only bounds the fold plan; the
/// spectra run at SsaParams::for_products(bits, k) for the plan's largest
/// fold k. Reserving the headroom in the geometry itself is not free: at
/// gamma = 786,432 it forces m = 21 and 131,072 points, against the
/// paper's m = 24 and 65,536 for a circuit whose folds sum one product.
inline constexpr unsigned kResidentHeadroomBits = 6;

/// Binds one SSA parameterization (packing geometry) to a workspace and
/// holds the spectrum-domain operations: forward / enter (pack + forward),
/// pointwise multiply, lazy pointwise accumulate, leave (inverse + carry
/// recovery) and leave_product (pointwise product + inverse + carry
/// recovery in one pass), all on the four-step NTT. The evaluator's
/// resident wires, the batch executor and PreparedSpectrum all run on
/// these operations.
///
/// Spectra produced by one SpectrumDomain are only meaningful to a domain
/// with the same geometry (coeff_bits and transform_size).
class SpectrumDomain {
 public:
  /// The engine is resolved through the process-wide shared cache, so
  /// construction is cheap after first use of a geometry.
  SpectrumDomain(const SsaParams& params, Workspace& ws);

  /// out = forward spectrum of `value` (an operand spectrum), four-step
  /// engine order, packed and transformed in place. Requires
  /// value.bit_length() <= params.max_operand_bits(). Reuses out's
  /// capacity; steady state allocates nothing. out must not be the
  /// workspace's ntt_scratch.
  void forward(fp::FpVec& out, const bigint::BigUInt& value) const;

  /// forward() into out.spec, with the operand's degree and bound.
  void enter(Spectrum& out, const bigint::BigUInt& value) const;

  /// May a * b be formed exactly? True iff both are operand-grade spectra
  /// whose acyclic product fits the transform and whose true coefficients
  /// stay below p (with the bound tracked conservatively).
  [[nodiscard]] bool can_multiply(const Spectrum& a, const Spectrum& b) const noexcept;

  /// out = a . b pointwise (a product spectrum). Requires can_multiply.
  void multiply(Spectrum& out, const Spectrum& a, const Spectrum& b) const;

  /// May `b` be folded into `acc` without the true-coefficient bound
  /// reaching p? (Always true into an empty accumulator.)
  [[nodiscard]] bool can_accumulate(const Spectrum& acc, const Spectrum& b) const noexcept;

  /// acc += b pointwise with lazy (redundant) coefficients; bounds add.
  /// Requires can_accumulate.
  void accumulate(Spectrum& acc, const Spectrum& b) const;

  /// out = the exact integer `s` stands for: inverse transform (which
  /// accepts the redundant coefficients directly), carry recovery. `s` is
  /// not consumed -- a cached spectrum can be left (inverted) many times.
  void leave(bigint::BigUInt& out, const Spectrum& s) const;

  /// out = the integer product of the two operands whose forward spectra
  /// are fa and fb (from forward() or enter()): pointwise product, inverse
  /// and carry recovery, with the product formed straight into the
  /// workspace's inverse buffer, pack_a (no product spectrum, no copy).
  /// fa and fb may be any other workspace buffer, never pack_a.
  void leave_product(bigint::BigUInt& out, const fp::FpVec& fa, const fp::FpVec& fb) const;

  /// True-coefficient bound of any operand spectrum of this geometry.
  [[nodiscard]] u128 operand_bound() const noexcept {
    return (u128{1} << params_.coeff_bits) - 1;
  }

  [[nodiscard]] const SsaParams& params() const noexcept { return params_; }

 private:
  const ntt::FourStepNtt* engine_;
  SsaParams params_;
  Workspace* ws_;
};

}  // namespace hemul::ssa
