#pragma once

#include <atomic>

#include "bigint/biguint.hpp"

namespace hemul::bigint {

/// Barrett modular reduction (HAC 14.42): after a one-time precomputation
/// of mu = floor(b^2k / m), every reduction of an x < m^2 costs two big
/// multiplications and no division.
///
/// This is how the paper's accelerator serves complete HE primitives
/// (Section III: other operations "can either be reduced to a combination
/// of multiplications"; the related design [32] pairs its FFT multiplier
/// with exactly such a Barrett module). Every product goes through
/// mul_auto, so above the SSA dispatch point (backend::kSsaDispatchBits)
/// reductions run on the NTT multiplier the backend registry installs.
///
/// Cost: the constructor pays one long division (mu, Knuth Algorithm D)
/// and one squaring (m^2, the bound reduce() checks every input against),
/// once per modulus; reduce() then costs two products and one comparison.
/// operator% and operator/ keep reducers for large moduli in a
/// process-wide cache (see div.hpp), so callers reduce with `%` and never
/// build one themselves. A reducer is safe to share between threads.
class BarrettReducer {
 public:
  /// Precomputes mu and m^2 for the given modulus m >= 2.
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

  [[nodiscard]] const BigUInt& modulus() const noexcept { return m_; }
  [[nodiscard]] const BigUInt& mu() const noexcept { return mu_; }
  /// m^2: reduce() accepts exactly the inputs below it.
  [[nodiscard]] const BigUInt& modulus_squared() const noexcept { return m2_; }

  /// Count of multiplications issued by reduce()/mod_mul() (for the cost
  /// accounting: each is an accelerator invocation).
  [[nodiscard]] u64 multiplications_used() const noexcept {
    return mults_.load(std::memory_order_relaxed);
  }

 private:
  BigUInt m_;
  BigUInt mu_;       ///< floor(2^(128k) / m), k = limb count of m
  BigUInt m2_;       ///< m^2, the input bound of reduce()
  std::size_t k_;    ///< limbs in m
  mutable std::atomic<u64> mults_{0};
};

}  // namespace hemul::bigint
