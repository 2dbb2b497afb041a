#include "bigint/barrett.hpp"

#include <stdexcept>

#include "bigint/div.hpp"
#include "bigint/mul.hpp"
#include "util/check.hpp"

namespace hemul::bigint {

BarrettReducer::BarrettReducer(BigUInt modulus) : m_(std::move(modulus)) {
  if (m_ < BigUInt{2}) throw std::invalid_argument("BarrettReducer: modulus must be >= 2");
  k_ = m_.limb_count();
  // mu = floor(b^(2k) / m), b = 2^64 -- the only division ever performed.
  // Knuth directly: operator/ would route a modulus this large back here.
  mu_ = divmod_knuth(BigUInt::pow2(128 * k_), m_).quotient;
  m2_ = mul_auto(m_, m_);
}

DivModResult BarrettReducer::divmod(const BigUInt& x) const {
  HEMUL_CHECK_MSG(x < m2_, "Barrett input must be below m^2");

  // q1 = floor(x / b^(k-1)); q3 = floor(q1 * mu / b^(k+1)).
  BigUInt q = x >> (64 * (k_ - 1));
  mults_.fetch_add(2, std::memory_order_relaxed);
  q = mul_auto(q, mu_);
  q >>= 64 * (k_ + 1);

  // r = (x - q*m) mod b^(k+1); the estimate is off by at most 2m.
  const BigUInt qm = mul_auto(q, m_);
  const std::size_t mod_bits = 64 * (k_ + 1);
  // Truncate both operands to k+1 limbs before subtracting (mod b^(k+1)).
  const auto low_limbs = [this](const BigUInt& v) {
    const auto limbs = v.limbs();
    const std::size_t n = std::min(limbs.size(), k_ + 1);
    return BigUInt::from_limbs({limbs.begin(), limbs.begin() + static_cast<std::ptrdiff_t>(n)});
  };
  BigUInt r = low_limbs(x);
  const BigUInt r2 = low_limbs(qm);
  if (r < r2) r += BigUInt::pow2(mod_bits);
  r -= r2;

  // At most two final corrections (HAC 14.42 step 4).
  while (r >= m_) {
    r -= m_;
    q += BigUInt{1};
  }
  return {std::move(q), std::move(r)};
}

BigUInt BarrettReducer::reduce(const BigUInt& x) const { return divmod(x).remainder; }

BigUInt BarrettReducer::mod_mul(const BigUInt& a, const BigUInt& b) const {
  HEMUL_CHECK_MSG(a < m_ && b < m_, "mod_mul operands must be reduced");
  mults_.fetch_add(1, std::memory_order_relaxed);
  return reduce(mul_auto(a, b));
}

BigUInt BarrettReducer::mod_pow(const BigUInt& a, const BigUInt& e) const {
  BigUInt base = a % m_;
  BigUInt acc{1};
  if (e.is_zero()) return m_ == BigUInt{1} ? BigUInt{} : acc;
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = mod_mul(acc, acc);
    if (e.bit(i)) acc = mod_mul(acc, base);
  }
  return acc;
}

}  // namespace hemul::bigint
