#pragma once

#include <atomic>
#include <memory>

#include "bigint/biguint.hpp"
#include "bigint/mul.hpp"

namespace hemul::bigint {

/// Barrett modular reduction at bit granularity: with L = m.bit_length()
/// and mu = floor(2^(2L) / m) = 2^L + mu_lo (mu_lo < 2^L), every x < m^2
/// reduces as
///     q1 = x >> L,  q = q1 + ((q1 * mu_lo) >> L),  r = x - q * m,
/// followed by at most 3 subtractions of m. Both products have operands of
/// at most L bits, so at the paper's 786,432-bit x0 they run on the gate's
/// own 64K-point transform (a limb-granular mu = floor(b^2k / m) has k+1
/// limbs and would double it).
///
/// This is how the paper's accelerator serves complete HE primitives
/// (Section III: other operations "can either be reduced to a combination
/// of multiplications"; the related design [32] pairs its FFT multiplier
/// with exactly such a Barrett module). m and mu_lo are prepared operands
/// (bigint::prepare_operand): from the SSA dispatch point
/// (backend::kSsaDispatchBits) up, each keeps its forward spectrum, so a
/// reduction product costs one forward, one pointwise product and one
/// inverse transform.
///
/// Cost: the constructor pays one long division (mu, Knuth Algorithm D),
/// one squaring (m^2, the bound reduce() checks every input against) and
/// the two prepared spectra, once per modulus; reduce() then costs two
/// products and at most three subtractions. At the paper's x0 that is
/// ~3.3 ms against ~229 ms for Knuth, and ~0.13 ms against ~0.38 ms at the
/// deep parameter set's 32,768 bits (x86-64, AVX-512, Release; the table
/// beside kBarrettThresholdLimbs in div.hpp, bench E4).
/// operator% and operator/ keep reducers for large moduli in a
/// process-wide cache (see div.hpp), so callers reduce with `%` and never
/// build one themselves. A reducer is safe to share between threads.
class BarrettReducer {
 public:
  /// Precomputes mu, m^2 and the prepared m and mu_lo for a modulus m >= 2.
  /// Throws std::invalid_argument for m < 2.
  explicit BarrettReducer(BigUInt modulus);

  /// x mod m for any x < m^2 (checked). Two multiplications, no division.
  [[nodiscard]] BigUInt reduce(const BigUInt& x) const;

  /// floor(x / m) and x mod m for any x < m^2 (checked); same cost as
  /// reduce().
  [[nodiscard]] DivModResult divmod(const BigUInt& x) const;

  /// (a * b) mod m for a, b < m.
  [[nodiscard]] BigUInt mod_mul(const BigUInt& a, const BigUInt& b) const;

  /// a^e mod m by square-and-multiply (left-to-right).
  [[nodiscard]] BigUInt mod_pow(const BigUInt& a, const BigUInt& e) const;

  [[nodiscard]] const BigUInt& modulus() const noexcept { return m_->value(); }
  /// m^2: reduce() accepts exactly the inputs below it.
  [[nodiscard]] const BigUInt& modulus_squared() const noexcept { return m2_; }
  /// The prepared operands of the two reduction products: m, and
  /// mu_lo = floor(2^(2L) / m) - 2^L (capped at 2^L - 1 when m is a power
  /// of two), each prepared for products by L-bit operands.
  [[nodiscard]] const PreparedOperand& prepared_modulus() const noexcept { return *m_; }
  [[nodiscard]] const PreparedOperand& prepared_mu_low() const noexcept { return *mu_lo_; }

  /// Count of multiplications issued by reduce()/mod_mul() (for the cost
  /// accounting: each is an accelerator invocation).
  [[nodiscard]] u64 multiplications_used() const noexcept {
    return mults_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t bits_;  ///< L: bits in m
  std::unique_ptr<const PreparedOperand> m_;
  std::unique_ptr<const PreparedOperand> mu_lo_;
  BigUInt m2_;  ///< m^2, the input bound of reduce()
  mutable std::atomic<u64> mults_{0};
};

}  // namespace hemul::bigint
