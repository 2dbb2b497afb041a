#pragma once

#include <compare>
#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "util/uint128.hpp"

namespace hemul::bigint {

/// Arbitrary-precision unsigned integer with 64-bit little-endian limbs.
///
/// This is the substrate on which the paper's workload lives: DGHV-style
/// homomorphic encryption manipulates integers of hundreds of thousands of
/// bits, and the accelerator's job is to multiply them. BigUInt supplies
/// the classical (schoolbook / Karatsuba / Toom-3) multipliers used as
/// correctness baselines and for the crossover study (bench E4); the
/// NTT-based SSA multiplier lives in src/ssa on top of this type.
///
/// Invariant: the limb vector never has a trailing (most-significant) zero
/// limb; zero is represented by an empty vector.
class BigUInt {
 public:
  /// Zero.
  BigUInt() noexcept = default;

  /// Value of a single machine word.
  explicit BigUInt(u64 value);

  /// Adopts a little-endian limb vector (trailing zeros are trimmed).
  static BigUInt from_limbs(std::vector<u64> limbs);

  /// Parses a hexadecimal string (no prefix, case-insensitive).
  /// Throws std::invalid_argument on empty or non-hex input.
  static BigUInt from_hex(std::string_view hex);

  /// Parses a decimal string. Throws std::invalid_argument on bad input.
  static BigUInt from_dec(std::string_view dec);

  /// Uniform value with exactly `bits` significant bits (top bit set).
  static BigUInt random_bits(util::Rng& rng, std::size_t bits);

  /// Uniform value in [0, bound). Requires bound > 0.
  static BigUInt random_below(util::Rng& rng, const BigUInt& bound);

  /// 2^k.
  static BigUInt pow2(std::size_t k);

  [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const noexcept { return !limbs_.empty() && (limbs_[0] & 1u); }

  /// Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_length() const noexcept;

  /// Value of bit i (false beyond bit_length()).
  [[nodiscard]] bool bit(std::size_t i) const noexcept;

  [[nodiscard]] std::size_t limb_count() const noexcept { return limbs_.size(); }
  [[nodiscard]] std::span<const u64> limbs() const noexcept { return limbs_; }

  /// Limb i, 0 beyond the representation (convenient for algorithms).
  [[nodiscard]] u64 limb(std::size_t i) const noexcept {
    return i < limbs_.size() ? limbs_[i] : 0;
  }

  /// Converts to u64; throws std::overflow_error if more than 64 bits.
  [[nodiscard]] u64 to_u64() const;

  friend bool operator==(const BigUInt&, const BigUInt&) noexcept = default;
  friend std::strong_ordering operator<=>(const BigUInt& a, const BigUInt& b) noexcept;

  BigUInt& operator+=(const BigUInt& rhs);
  /// Subtraction requires *this >= rhs; throws std::underflow_error otherwise.
  BigUInt& operator-=(const BigUInt& rhs);
  BigUInt& operator<<=(std::size_t bits);
  BigUInt& operator>>=(std::size_t bits);

  friend BigUInt operator+(BigUInt a, const BigUInt& b) {
    a += b;
    return a;  // by move, as operator>> below
  }
  friend BigUInt operator-(BigUInt a, const BigUInt& b) {
    a -= b;
    return a;
  }
  /// Built once at its final size: one allocation for a nonzero result.
  friend BigUInt operator<<(const BigUInt& a, std::size_t bits);
  friend BigUInt operator>>(BigUInt a, std::size_t bits) {
    a >>= bits;
    return a;  // by move; `return a >>= bits` would copy the result
  }

  /// Multiplication through the size-adaptive dispatcher (see mul.hpp).
  friend BigUInt operator*(const BigUInt& a, const BigUInt& b);

  /// Division through the size-adaptive dispatcher (see div.hpp). Divisor
  /// must be nonzero.
  friend BigUInt operator/(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator%(const BigUInt& a, const BigUInt& b);

  /// Lower-case hexadecimal, no leading zeros ("0" for zero).
  [[nodiscard]] std::string to_hex() const;

  /// Decimal representation.
  [[nodiscard]] std::string to_dec() const;

 private:
  void trim() noexcept;

  std::vector<u64> limbs_;

  friend class MutableAccess;
};

/// Internal accessor used by the sibling algorithm translation units
/// (mul/div/io) so the public type needs no setters.
class MutableAccess {
 public:
  static std::vector<u64>& limbs(BigUInt& x) noexcept { return x.limbs_; }
  static void trim(BigUInt& x) noexcept { x.trim(); }
};

/// Streams the hex representation (useful in test diagnostics).
std::ostream& operator<<(std::ostream& os, const BigUInt& x);

struct DivModResult {
  BigUInt quotient;
  BigUInt remainder;
};

/// Quotient and remainder in one pass (see div.hpp for the method
/// dispatch). Divisor must be nonzero.
DivModResult divmod(const BigUInt& a, const BigUInt& b);

/// acc += x * 2^(64 * limb_offset), in place: the one add-with-carry loop
/// of the library (BigUInt::operator+=, the Karatsuba, Toom-3 and blocked
/// products, and DGHV's subset-sum encryption all run through it). `acc` is
/// a raw little-endian limb buffer; it grows to hold the sum and may end
/// with zero limbs (adopt it with BigUInt::from_limbs, which trims). A buffer
/// sized for the sum up front is never reallocated. `x` must not overlap
/// `acc` unless it is all of `acc` and limb_offset is 0.
void add_into(std::vector<u64>& acc, std::span<const u64> x, std::size_t limb_offset);

/// FNV-1a over the limb vector: the key hash of the value-keyed caches
/// (equal values hash equally; callers compare values on a hit).
[[nodiscard]] u64 hash_limbs(const BigUInt& x) noexcept;

}  // namespace hemul::bigint
