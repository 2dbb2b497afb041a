#include "bigint/mul.hpp"

#include <algorithm>
#include <atomic>

#include "util/check.hpp"

namespace hemul::bigint {

namespace {

/// Signed big integer used only inside Toom-3 interpolation, where
/// intermediate combinations can be negative even though the final
/// coefficients are not.
struct Signed {
  bool negative = false;  // sign of a zero value is always positive
  BigUInt mag;

  static Signed from(const BigUInt& x) { return Signed{false, x}; }

  void canonicalize() {
    if (mag.is_zero()) negative = false;
  }
};

Signed add(const Signed& a, const Signed& b) {
  Signed r;
  if (a.negative == b.negative) {
    r.negative = a.negative;
    r.mag = a.mag + b.mag;
  } else if (a.mag >= b.mag) {
    r.negative = a.negative;
    r.mag = a.mag - b.mag;
  } else {
    r.negative = b.negative;
    r.mag = b.mag - a.mag;
  }
  r.canonicalize();
  return r;
}

Signed sub(const Signed& a, const Signed& b) {
  Signed nb = b;
  nb.negative = !nb.negative;
  return add(a, nb);
}

Signed mul(const Signed& a, const Signed& b) {
  Signed r;
  r.negative = a.negative != b.negative;
  r.mag = mul_toom3(a.mag, b.mag);
  r.canonicalize();
  return r;
}

/// Exact division of a signed value by a small constant; checks remainder 0.
Signed div_exact_small(const Signed& a, u64 divisor) {
  std::vector<u64> limbs(a.mag.limbs().begin(), a.mag.limbs().end());
  u64 rem = 0;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    const u128 cur = (static_cast<u128>(rem) << 64) | limbs[i];
    limbs[i] = static_cast<u64>(cur / divisor);
    rem = static_cast<u64>(cur % divisor);
  }
  HEMUL_CHECK_MSG(rem == 0, "Toom-3 interpolation division must be exact");
  Signed r;
  r.negative = a.negative;
  r.mag = BigUInt::from_limbs(std::move(limbs));
  r.canonicalize();
  return r;
}

/// Extracts limbs [offset, offset+count) as an independent value.
BigUInt slice(const BigUInt& x, std::size_t offset, std::size_t count) {
  const auto src = x.limbs();
  if (offset >= src.size()) return BigUInt{};
  const std::size_t end = std::min(src.size(), offset + count);
  return BigUInt::from_limbs({src.begin() + static_cast<std::ptrdiff_t>(offset),
                              src.begin() + static_cast<std::ptrdiff_t>(end)});
}

}  // namespace

BigUInt mul_schoolbook(const BigUInt& a, const BigUInt& b) {
  if (a.is_zero() || b.is_zero()) return BigUInt{};
  const auto la = a.limbs();
  const auto lb = b.limbs();
  std::vector<u64> out(la.size() + lb.size(), 0);
  for (std::size_t i = 0; i < la.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < lb.size(); ++j) {
      const u128 cur = mul_wide(la[i], lb[j]) + out[i + j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + lb.size()] += carry;
  }
  return BigUInt::from_limbs(std::move(out));
}

BigUInt mul_karatsuba(const BigUInt& a, const BigUInt& b) {
  const std::size_t n = std::max(a.limb_count(), b.limb_count());
  if (n <= kKaratsubaThresholdLimbs) return mul_schoolbook(a, b);

  const std::size_t half = (n + 1) / 2;
  const BigUInt a0 = slice(a, 0, half);
  const BigUInt a1 = slice(a, half, n);
  const BigUInt b0 = slice(b, 0, half);
  const BigUInt b1 = slice(b, half, n);

  const BigUInt z0 = mul_karatsuba(a0, b0);
  const BigUInt z2 = mul_karatsuba(a1, b1);
  // (a0+a1)(b0+b1) - z0 - z2 = a0*b1 + a1*b0, always non-negative.
  BigUInt z1 = mul_karatsuba(a0 + a1, b0 + b1);
  z1 -= z0;
  z1 -= z2;

  std::vector<u64> acc;
  add_into(acc, z0.limbs(), 0);
  add_into(acc, z1.limbs(), half);
  add_into(acc, z2.limbs(), 2 * half);
  return BigUInt::from_limbs(std::move(acc));
}

BigUInt mul_toom3(const BigUInt& a, const BigUInt& b) {
  const std::size_t n = std::max(a.limb_count(), b.limb_count());
  if (n <= kToom3ThresholdLimbs) return mul_karatsuba(a, b);

  const std::size_t k = (n + 2) / 3;
  const Signed a0 = Signed::from(slice(a, 0, k));
  const Signed a1 = Signed::from(slice(a, k, k));
  const Signed a2 = Signed::from(slice(a, 2 * k, n));
  const Signed b0 = Signed::from(slice(b, 0, k));
  const Signed b1 = Signed::from(slice(b, k, k));
  const Signed b2 = Signed::from(slice(b, 2 * k, n));

  // Evaluation at x = 0, 1, -1, 2, inf.
  const Signed pa1 = add(add(a0, a1), a2);
  const Signed pam1 = add(sub(a0, a1), a2);
  const Signed pa2 = add(add(a0, add(a1, a1)), [&] {
    Signed four_a2 = add(a2, a2);
    return add(four_a2, four_a2);
  }());
  const Signed pb1 = add(add(b0, b1), b2);
  const Signed pbm1 = add(sub(b0, b1), b2);
  const Signed pb2 = add(add(b0, add(b1, b1)), [&] {
    Signed four_b2 = add(b2, b2);
    return add(four_b2, four_b2);
  }());

  const Signed v0 = mul(a0, b0);
  const Signed v1 = mul(pa1, pb1);
  const Signed vm1 = mul(pam1, pbm1);
  const Signed v2 = mul(pa2, pb2);
  const Signed vinf = mul(a2, b2);

  // Interpolation: with c(x) = c0 + c1 x + c2 x^2 + c3 x^3 + c4 x^4,
  //   c0 = v0, c4 = vinf,
  //   c2 = (v1 + vm1)/2 - c0 - c4,
  //   c1 + c3 = (v1 - vm1)/2,
  //   c1 + 4 c3 = (v2 - c0 - 4 c2 - 16 c4)/2.
  const Signed c0 = v0;
  const Signed c4 = vinf;
  const Signed half_sum = div_exact_small(add(v1, vm1), 2);
  const Signed c2 = sub(sub(half_sum, c0), c4);
  const Signed half_diff = div_exact_small(sub(v1, vm1), 2);  // c1 + c3
  Signed t = sub(v2, c0);
  const Signed four_c2 = add(add(c2, c2), add(c2, c2));
  t = sub(t, four_c2);
  Signed sixteen_c4 = add(c4, c4);
  sixteen_c4 = add(sixteen_c4, sixteen_c4);
  sixteen_c4 = add(sixteen_c4, sixteen_c4);
  sixteen_c4 = add(sixteen_c4, sixteen_c4);
  t = div_exact_small(sub(t, sixteen_c4), 2);  // c1 + 4 c3
  const Signed c3 = div_exact_small(sub(t, half_diff), 3);
  const Signed c1 = sub(half_diff, c3);

  // The product of non-negative operands has non-negative coefficients.
  HEMUL_CHECK(!c1.negative && !c2.negative && !c3.negative);

  std::vector<u64> acc;
  add_into(acc, c0.mag.limbs(), 0);
  add_into(acc, c1.mag.limbs(), k);
  add_into(acc, c2.mag.limbs(), 2 * k);
  add_into(acc, c3.mag.limbs(), 3 * k);
  add_into(acc, c4.mag.limbs(), 4 * k);
  return BigUInt::from_limbs(std::move(acc));
}

namespace {

std::atomic<MulDispatchFn> g_mul_dispatch{nullptr};
std::atomic<PrepareDispatchFn> g_prepare_dispatch{nullptr};

/// Karatsuba or Toom-3 by the longer operand, for operands of similar
/// length.
BigUInt mul_balanced(const BigUInt& a, const BigUInt& b) {
  if (std::max(a.limb_count(), b.limb_count()) <= kToom3ThresholdLimbs) {
    return mul_karatsuba(a, b);
  }
  return mul_toom3(a, b);
}

}  // namespace

BigUInt mul_auto_classical(const BigUInt& a, const BigUInt& b) {
  const bool a_longer = a.limb_count() >= b.limb_count();
  const BigUInt& longer = a_longer ? a : b;
  const BigUInt& shorter = a_longer ? b : a;
  const std::size_t n = shorter.limb_count();
  if (n <= kKaratsubaThresholdLimbs) return mul_schoolbook(shorter, longer);
  if (longer.limb_count() < 2 * n) return mul_balanced(a, b);

  // Splitting algorithms would recurse on the longer operand's size;
  // blocks as long as the shorter one keep every product balanced.
  std::vector<u64> acc(longer.limb_count() + n + 1, 0);
  for (std::size_t offset = 0; offset < longer.limb_count(); offset += n) {
    add_into(acc, mul_balanced(slice(longer, offset, n), shorter).limbs(), offset);
  }
  return BigUInt::from_limbs(std::move(acc));
}

BigUInt mul_auto(const BigUInt& a, const BigUInt& b) {
  if (const MulDispatchFn hook = g_mul_dispatch.load(std::memory_order_acquire)) {
    return hook(a, b);
  }
  return mul_auto_classical(a, b);
}

void set_mul_dispatch(MulDispatchFn hook) noexcept {
  g_mul_dispatch.store(hook, std::memory_order_release);
}

MulDispatchFn mul_dispatch() noexcept {
  return g_mul_dispatch.load(std::memory_order_acquire);
}

BigUInt PreparedOperand::multiply(const BigUInt& other) const { return mul_auto(value_, other); }

std::unique_ptr<const PreparedOperand> prepare_operand(BigUInt operand, std::size_t other_bits) {
  if (const PrepareDispatchFn hook = g_prepare_dispatch.load(std::memory_order_acquire)) {
    return hook(std::move(operand), other_bits);
  }
  return std::make_unique<const PreparedOperand>(std::move(operand));
}

void set_prepare_dispatch(PrepareDispatchFn hook) noexcept {
  g_prepare_dispatch.store(hook, std::memory_order_release);
}

BigUInt operator*(const BigUInt& a, const BigUInt& b) { return mul_auto(a, b); }

}  // namespace hemul::bigint
