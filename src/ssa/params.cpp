#include "ssa/params.hpp"

#include <algorithm>
#include <stdexcept>

#include "fp/fp64.hpp"
#include "util/check.hpp"

namespace hemul::ssa {

namespace {

/// Smallest transform ntt::FourStepNtt can split (n1 = n2 = 2).
constexpr u64 kMinTransform = 4;

u64 next_pow2(u64 x) {
  u64 n = 1;
  while (n < x) n <<= 1;
  return n;
}

/// Exactness bound: num_coeffs * (2^m - 1)^2 < p / 2^headroom_bits.
/// (m <= 31 and num_coeffs <= 2^32 keep the product within 128 bits; the
/// right shift makes the headroom variant conservative, never permissive.)
bool exact(std::size_t m, u64 num_coeffs, unsigned headroom_bits = 0) {
  if (headroom_bits >= 64) return false;
  const u128 max_coeff = (u128{1} << m) - 1;
  return static_cast<u128>(num_coeffs) * max_coeff * max_coeff <
         (u128{fp::kModulus} >> headroom_bits);
}

/// The geometry for operands of `operand_bits` at coefficient width m.
SsaParams geometry(std::size_t operand_bits, std::size_t m) {
  SsaParams params;
  params.coeff_bits = m;
  params.num_coeffs = (operand_bits + m - 1) / m;
  params.transform_size = std::max<u64>(next_pow2(2 * params.num_coeffs), kMinTransform);
  return params;
}

}  // namespace

SsaParams SsaParams::paper() {
  SsaParams params;
  params.coeff_bits = 24;
  params.num_coeffs = 32768;
  params.transform_size = 65536;
  params.validate();
  return params;
}

SsaParams SsaParams::for_bits(std::size_t operand_bits, unsigned headroom_bits) {
  if (operand_bits == 0) throw std::invalid_argument("for_bits: operand_bits must be > 0");
  // Largest m keeps the transform shortest; scan downward until exact.
  for (std::size_t m = 26; m >= 4; --m) {
    SsaParams params = geometry(operand_bits, m);
    if (!exact(m, params.num_coeffs, headroom_bits)) continue;
    params.validate();
    return params;
  }
  throw std::invalid_argument("for_bits: no exact parameterization found");
}

SsaParams SsaParams::for_products(std::size_t operand_bits, u64 products) {
  if (operand_bits == 0) throw std::invalid_argument("for_products: operand_bits must be > 0");
  if (products == 0) throw std::invalid_argument("for_products: products must be > 0");
  for (std::size_t m = 26; m >= 4; --m) {
    SsaParams params = geometry(operand_bits, m);
    if (params.max_products() < products) continue;
    params.validate();
    return params;
  }
  throw std::invalid_argument("for_products: no geometry admits that many products");
}

u64 SsaParams::max_products() const noexcept {
  // m <= 31 and num_coeffs < 2^64 keep one product's bound within 126 bits.
  const u128 max_coeff = (u128{1} << coeff_bits) - 1;
  const u128 product_bound = static_cast<u128>(num_coeffs) * max_coeff * max_coeff;
  if (product_bound == 0) return 0;
  return static_cast<u64>((u128{fp::kModulus} - 1) / product_bound);
}

void SsaParams::validate() const {
  HEMUL_CHECK_MSG(coeff_bits >= 1 && coeff_bits <= 31, "coefficient width out of range");
  HEMUL_CHECK_MSG(num_coeffs >= 1, "at least one coefficient");
  HEMUL_CHECK_MSG(transform_size >= 2 * num_coeffs,
                  "transform must have 2x headroom for the acyclic product");
  HEMUL_CHECK_MSG((transform_size & (transform_size - 1)) == 0,
                  "transform size must be a power of two");
  HEMUL_CHECK_MSG(transform_size >= kMinTransform,
                  "transform size below the smallest four-step split (2 x 2)");
  HEMUL_CHECK_MSG(exact(coeff_bits, num_coeffs),
                  "coefficient width too large for exact convolution");
}

}  // namespace hemul::ssa
