#pragma once

#include <cstddef>

#include "util/uint128.hpp"

namespace hemul::fhe {

/// Parameters of the DGHV somewhat-homomorphic scheme over the integers
/// (van Dijk-Gentry-Halevi-Vaikuntanathan, EUROCRYPT'10, in the
/// Coron-Mandal-Naccache-Tibouchi CRYPTO'11 variant with an exact public
/// modulus x0 = q0*p).
///
///   rho   - noise bits per encryption (and per public-key element)
///   eta   - secret key bits
///   gamma - ciphertext bits (the operand size of the accelerator!)
///   tau   - number of public-key elements
struct DghvParams {
  unsigned lambda = 0;     ///< nominal security level (documentation only)
  std::size_t rho = 0;
  std::size_t eta = 0;
  std::size_t gamma = 0;
  unsigned tau = 0;

  /// Tiny parameters for fast tests (seconds-scale, zero security).
  static DghvParams toy();

  /// The paper's workload: the "small" DGHV setting with gamma = 786,432,
  /// so each homomorphic multiplication is exactly the 786,432-bit product
  /// the accelerator targets (eta/rho/tau follow the CMNT small setting
  /// approximately; security is irrelevant to the reproduction).
  static DghvParams small_paper();

  /// Mid-size setting for integration tests (sub-second homomorphic mult).
  static DghvParams medium();

  /// Small-gamma / large-eta setting with a deep noise budget, for
  /// evaluating multi-level circuits (e.g. the word-level multiplier of
  /// fhe::Graph) without bootstrapping.
  static DghvParams deep();

  /// Consistency checks (eta < gamma, rho < eta, tau >= 1 ...).
  /// Throws std::invalid_argument on violation.
  void validate() const;

  /// Noise bits of a freshly encrypted bit, bounded for both encryption
  /// paths by the public-key one: the subset sum of up to tau elements of
  /// rho-bit noise plus the encryption noise. A secret-key encryption
  /// (Dghv::encrypt) has rho + 1 bits, under this bound.
  [[nodiscard]] double fresh_noise_bits() const noexcept;
};

}  // namespace hemul::fhe
