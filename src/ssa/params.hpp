#pragma once

#include <cstddef>

#include "util/uint128.hpp"

namespace hemul::ssa {

/// Parameters of one Schonhage-Strassen multiplication instance.
///
/// The paper's setting: 786,432-bit operands split into 32K coefficients of
/// m = 24 bits, transformed with a 64K-point NTT (the extra 2x headroom
/// holds the full acyclic product). Exactness requires every convolution
/// coefficient to stay below p:
///     num_coeffs * (2^m - 1)^2 < p,
/// which holds with 2^15 * (2^24 - 1)^2 < 2^63 < p.
struct SsaParams {
  std::size_t coeff_bits = 0;  ///< m: bits per polynomial coefficient
  u64 num_coeffs = 0;          ///< operand coefficients (before padding)
  u64 transform_size = 0;      ///< N: NTT length, power of two >= max(4, 2*num_coeffs)

  /// The paper's configuration: 786,432-bit operands, m = 24, N = 64K.
  /// (The paper's 64*64*16 stage plan belongs to the hw model:
  /// hw::AcceleratorConfig::ntt.plan and hw::PerfParams::plan.)
  static SsaParams paper();

  /// Chooses the largest exact coefficient width for the given operand size
  /// and a matching power-of-two transform length of at least 4 points (the
  /// smallest four-step split, 2 x 2). `headroom_bits` tightens the
  /// exactness bound to num_coeffs * (2^m - 1)^2 < p / 2^headroom_bits,
  /// leaving room for up to 2^headroom_bits product spectra to accumulate
  /// pointwise before any coefficient can reach p (the spectrum-resident
  /// XOR sweep's lazy-reduction budget). headroom_bits == 0 reproduces the
  /// plain exactness choice. Throws std::invalid_argument if
  /// operand_bits == 0.
  static SsaParams for_bits(std::size_t operand_bits, unsigned headroom_bits = 0);

  /// The shortest exact geometry whose product spectra may be summed
  /// `products` at a time: the largest m (so the shortest transform) with
  ///     products * num_coeffs * (2^m - 1)^2 < p,
  /// i.e. max_products() >= products. for_products(bits, 1) is
  /// for_bits(bits). The spectrum-resident evaluator sizes its geometry
  /// this way, from the largest fold its residency plan makes. Throws
  /// std::invalid_argument if operand_bits or products is 0, or if no
  /// geometry admits that many products.
  static SsaParams for_products(std::size_t operand_bits, u64 products);

  /// How many product spectra of this geometry may be summed pointwise
  /// with every true coefficient staying below p: the largest k with
  /// k * num_coeffs * (2^m - 1)^2 < p (0 if not even one product fits).
  [[nodiscard]] u64 max_products() const noexcept;

  /// Maximum operand size this instance can multiply exactly.
  [[nodiscard]] std::size_t max_operand_bits() const noexcept {
    return coeff_bits * static_cast<std::size_t>(num_coeffs);
  }

  /// Verifies the exactness and padding conditions; throws std::logic_error
  /// on violation.
  void validate() const;
};

}  // namespace hemul::ssa
