#pragma once

#include "bigint/biguint.hpp"

namespace hemul::bigint {

// divmod, operator/ and operator% (biguint.hpp) choose a method per call:
//   - Knuth Algorithm D when the divisor has fewer than
//     kBarrettThresholdLimbs limbs, when the quotient is short (dividend
//     limbs - divisor limbs below the same threshold: a sum or an
//     encryption reduced by x0), or when the dividend is >= m^2;
//   - otherwise Barrett reduction (barrett.hpp) with the divisor's reducer
//     from a process-wide cache: two products on the registered multiplier
//     instead of a long division.
// Both methods return the same quotient and remainder.

/// Divisor and quotient size (limbs) from which division runs through a
/// cached Barrett reducer: the first size whose reduction products reach
/// the SSA dispatch point (backend::kSsaDispatchBits = 100,000 bits).
/// Measured per 2n-limb dividend on x86-64 (Release, AVX-512), Knuth vs
/// Barrett: 512 limbs 0.7 vs 1.0 ms and 1,536 limbs 7.0 vs 5.9 ms, with
/// the products still on Toom-3; 1,600 limbs 7.6 vs 0.7 ms and 12,288
/// limbs (the paper's 786,432-bit x0) 459 vs 9.6 ms, on SSA.
inline constexpr std::size_t kBarrettThresholdLimbs = 1600;

/// Moduli whose reducers the division cache keeps at once (least recently
/// used out first). A reducer holds m, mu and m^2: ~400 KB at paper size.
inline constexpr std::size_t kReciprocalCacheCapacity = 16;

/// Counters of the division's reducer cache. A miss builds a reducer (one
/// Knuth division for mu plus one squaring); every modulus is built once
/// while it stays cached, however many threads reduce by it.
struct ReciprocalCacheStats {
  u64 hits = 0;             ///< lookups that found their modulus cached
  u64 misses = 0;           ///< reducers built
  std::size_t entries = 0;  ///< reducers held now (<= kReciprocalCacheCapacity)
};
[[nodiscard]] ReciprocalCacheStats reciprocal_cache_stats();

/// Knuth Algorithm D multi-word division (TAOCP Vol. 2, 4.3.1).
/// Exposed separately from operator/ so tests can target the add-back
/// corner case directly. Divisor must be nonzero.
DivModResult divmod_knuth(const BigUInt& dividend, const BigUInt& divisor);

/// Division by a single 64-bit word (fast path). Divisor must be nonzero.
struct DivSmallResult {
  BigUInt quotient;
  u64 remainder;
};
DivSmallResult divmod_small(const BigUInt& dividend, u64 divisor);

/// Centered residue used by DGHV decryption: returns the representative of
/// `a mod m` in (-m/2, m/2] as (magnitude, is_negative). m must be nonzero.
struct CenteredResidue {
  BigUInt magnitude;
  bool negative = false;
};
CenteredResidue mod_centered(const BigUInt& a, const BigUInt& m);

}  // namespace hemul::bigint
