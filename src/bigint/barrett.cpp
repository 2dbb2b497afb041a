#include "bigint/barrett.hpp"

#include <stdexcept>

#include "bigint/div.hpp"
#include "bigint/mul.hpp"
#include "util/check.hpp"

namespace hemul::bigint {

BarrettReducer::BarrettReducer(BigUInt modulus) {
  if (modulus < BigUInt{2}) throw std::invalid_argument("BarrettReducer: modulus must be >= 2");
  bits_ = modulus.bit_length();
  // mu = floor(2^(2L) / m) -- the only division ever performed. Knuth
  // directly: operator/ would route a modulus this large back here.
  BigUInt mu_lo =
      divmod_knuth(BigUInt::pow2(2 * bits_), modulus).quotient - BigUInt::pow2(bits_);
  // Only m = 2^(L-1) gives mu = 2^(L+1); capping mu_lo there keeps both
  // products L bits wide and the estimate within the same 3 corrections.
  const BigUInt cap = BigUInt::pow2(bits_) - BigUInt{1};
  if (mu_lo > cap) mu_lo = cap;
  m2_ = mul_auto(modulus, modulus);
  mu_lo_ = prepare_operand(std::move(mu_lo), bits_);
  m_ = prepare_operand(std::move(modulus), bits_);
}

DivModResult BarrettReducer::divmod(const BigUInt& x) const {
  HEMUL_CHECK_MSG(x < m2_, "Barrett input must be below m^2");

  // q = floor(q1 * mu / 2^L) = q1 + floor(q1 * mu_lo / 2^L), q1 = x >> L.
  // x < m^2 keeps q1 and q below 2^L, and q <= floor(x / m) <= q + 3.
  const BigUInt q1 = x >> bits_;
  mults_.fetch_add(2, std::memory_order_relaxed);
  BigUInt q = mu_lo_->multiply(q1);
  q >>= bits_;
  q += q1;
  BigUInt r = x - m_->multiply(q);

  const BigUInt& m = modulus();
  for (int corrections = 0; r >= m; ++corrections) {
    HEMUL_CHECK_MSG(corrections < 3, "Barrett estimate must be within 3 of the quotient");
    r -= m;
    q += BigUInt{1};
  }
  return {std::move(q), std::move(r)};
}

BigUInt BarrettReducer::reduce(const BigUInt& x) const { return divmod(x).remainder; }

BigUInt BarrettReducer::mod_mul(const BigUInt& a, const BigUInt& b) const {
  HEMUL_CHECK_MSG(a < modulus() && b < modulus(), "mod_mul operands must be reduced");
  mults_.fetch_add(1, std::memory_order_relaxed);
  return reduce(mul_auto(a, b));
}

BigUInt BarrettReducer::mod_pow(const BigUInt& a, const BigUInt& e) const {
  BigUInt base = a % modulus();
  BigUInt acc{1};
  if (e.is_zero()) return acc;
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = mod_mul(acc, acc);
    if (e.bit(i)) acc = mod_mul(acc, base);
  }
  return acc;
}

}  // namespace hemul::bigint
