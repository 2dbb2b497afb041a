#include "bigint/biguint.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace hemul::bigint {

BigUInt::BigUInt(u64 value) {
  if (value != 0) limbs_.push_back(value);
}

BigUInt BigUInt::from_limbs(std::vector<u64> limbs) {
  BigUInt x;
  x.limbs_ = std::move(limbs);
  x.trim();
  return x;
}

BigUInt BigUInt::pow2(std::size_t k) {
  BigUInt x;
  x.limbs_.assign(k / 64 + 1, 0);
  x.limbs_.back() = 1ULL << (k % 64);
  return x;
}

BigUInt BigUInt::random_bits(util::Rng& rng, std::size_t bits) {
  if (bits == 0) return BigUInt{};
  BigUInt x;
  x.limbs_ = rng.vec((bits + 63) / 64);
  const std::size_t top_bits = bits % 64 == 0 ? 64 : bits % 64;
  u64& top = x.limbs_.back();
  if (top_bits < 64) top &= (1ULL << top_bits) - 1;
  top |= 1ULL << (top_bits - 1);
  return x;
}

BigUInt BigUInt::random_below(util::Rng& rng, const BigUInt& bound) {
  HEMUL_CHECK_MSG(!bound.is_zero(), "random_below: bound must be positive");
  const std::size_t bits = bound.bit_length();
  // Rejection sampling over [0, 2^bits) keeps the distribution uniform.
  for (;;) {
    BigUInt x;
    x.limbs_ = rng.vec((bits + 63) / 64);
    if (bits % 64 != 0) x.limbs_.back() &= (1ULL << (bits % 64)) - 1;
    x.trim();
    if (x < bound) return x;
  }
}

std::size_t BigUInt::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  const u64 top = limbs_.back();
  return (limbs_.size() - 1) * 64 + (64 - static_cast<std::size_t>(__builtin_clzll(top)));
}

bool BigUInt::bit(std::size_t i) const noexcept {
  const std::size_t word = i / 64;
  if (word >= limbs_.size()) return false;
  return (limbs_[word] >> (i % 64)) & 1u;
}

u64 BigUInt::to_u64() const {
  if (limbs_.size() > 1) throw std::overflow_error("BigUInt::to_u64: value exceeds 64 bits");
  return limbs_.empty() ? 0 : limbs_[0];
}

std::strong_ordering operator<=>(const BigUInt& a, const BigUInt& b) noexcept {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() <=> b.limbs_.size();
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUInt& BigUInt::operator+=(const BigUInt& rhs) {
  // rhs is trimmed, so the sum has no zero top limb either.
  add_into(limbs_, rhs.limbs_, 0);
  return *this;
}

BigUInt& BigUInt::operator-=(const BigUInt& rhs) {
  if (*this < rhs) throw std::underflow_error("BigUInt subtraction would be negative");
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 r = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    const u64 d1 = limbs_[i] - r;
    const u64 b1 = limbs_[i] < r ? 1u : 0u;
    const u64 d2 = d1 - borrow;
    const u64 b2 = d1 < borrow ? 1u : 0u;
    limbs_[i] = d2;
    borrow = b1 | b2;
  }
  HEMUL_CHECK(borrow == 0);
  trim();
  return *this;
}

BigUInt& BigUInt::operator<<=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  const std::size_t words = bits / 64;
  const std::size_t rem = bits % 64;
  const std::size_t old = limbs_.size();
  limbs_.resize(old + words + (rem != 0 ? 1 : 0), 0);
  for (std::size_t i = old; i-- > 0;) {
    const u64 v = limbs_[i];
    limbs_[i] = 0;
    if (rem == 0) {
      limbs_[i + words] = v;
    } else {
      limbs_[i + words + 1] |= v >> (64 - rem);
      limbs_[i + words] |= v << rem;
    }
  }
  trim();
  return *this;
}

BigUInt operator<<(const BigUInt& a, std::size_t bits) {
  if (a.is_zero() || bits == 0) return a;
  // Reserve the final size up front so <<= shifts within capacity.
  BigUInt out;
  out.limbs_.reserve(a.limbs_.size() + bits / 64 + 1);
  out.limbs_.assign(a.limbs_.begin(), a.limbs_.end());
  out <<= bits;
  return out;
}

BigUInt& BigUInt::operator>>=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  const std::size_t words = bits / 64;
  const std::size_t rem = bits % 64;
  if (words >= limbs_.size()) {
    limbs_.clear();
    return *this;
  }
  const std::size_t n = limbs_.size() - words;
  for (std::size_t i = 0; i < n; ++i) {
    u64 v = limbs_[i + words] >> rem;
    if (rem != 0 && i + words + 1 < limbs_.size()) v |= limbs_[i + words + 1] << (64 - rem);
    limbs_[i] = v;
  }
  limbs_.resize(n);
  trim();
  return *this;
}

void BigUInt::trim() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

void add_into(std::vector<u64>& acc, std::span<const u64> x, std::size_t limb_offset) {
  if (x.empty()) return;
  const std::size_t end = limb_offset + x.size();
  if (acc.size() < end) acc.resize(end, 0);
  u64* dst = acc.data() + limb_offset;
  u64 carry = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const u128 sum = static_cast<u128>(dst[i]) + x[i] + carry;
    dst[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  for (std::size_t i = end; carry != 0; ++i) {
    if (i == acc.size()) {
      acc.push_back(carry);
      break;
    }
    carry = ++acc[i] == 0 ? 1 : 0;
  }
}

u64 hash_limbs(const BigUInt& x) noexcept {
  u64 h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const u64 limb : x.limbs()) {
    h ^= limb;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace hemul::bigint
