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
/// cached Barrett reducer: the first size whose reduction products have
/// both operands past the SSA dispatch point (backend::kSsaDispatchBits =
/// 16,000 bits; a static_assert in backend/registry.cpp ties the two).
/// Measured on x86-64 (Release, AVX-512), `x % m` for a gate product
/// x < m^2, Knuth vs a reducer built beforehand (bench E4,
/// bench_mult_crossover; products on SSA from 16,000 bits up):
///
///   | m (bits)        | limbs  | Knuth    | Barrett  |
///   |-----------------|--------|----------|----------|
///   | 4,096 (toy)     | 64     | 0.008 ms | 0.012 ms |
///   | 12,288          | 192    | 0.057 ms | 0.085 ms |
///   | 16,384          | 256    | 0.100 ms | 0.067 ms |
///   | 32,768 (deep)   | 512    | 0.38 ms  | 0.13 ms  |
///   | 65,536 (medium) | 1,024  | 1.48 ms  | 0.30 ms  |
///   | 786,432 (paper) | 12,288 | 229 ms   | 3.3 ms   |
///
/// (Below 16,000 bits the reducer's products are classical, which is why
/// 192 limbs still favours Knuth.)
inline constexpr std::size_t kBarrettThresholdLimbs = 256;

/// Moduli whose reducers the division cache keeps at once (least recently
/// used out first). A reducer holds m, mu_lo, m^2 and, from the SSA
/// dispatch point up, the spectra of m and mu_lo: ~1.4 MB at paper size.
inline constexpr std::size_t kReciprocalCacheCapacity = 16;

/// Counters of the division's reducer cache. A miss builds a reducer (one
/// Knuth division for mu, one squaring and two forward transforms); every
/// modulus is built once while it stays cached, however many threads
/// reduce by it.
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
