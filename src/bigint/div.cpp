#include "bigint/div.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <vector>

#include "bigint/barrett.hpp"
#include "util/check.hpp"

namespace hemul::bigint {

namespace {

/// The Barrett reducers behind large divisions, keyed by modulus value.
/// The hash covers the limbs and an exact compare guards every hit, so
/// collisions cost a probe, never correctness. A reducer is built lazily,
/// by the first division that needs it, outside the cache lock. At most
/// kReciprocalCacheCapacity entries are kept, the least recently used
/// going first; reducers are held by shared_ptr, so an evicted one stays
/// alive for the divisions still using it.
class ReciprocalCache {
 public:
  [[nodiscard]] std::shared_ptr<const BarrettReducer> get(const BigUInt& modulus) {
    const u64 hash = hash_limbs(modulus);
    std::shared_ptr<Entry> entry;
    {
      const std::shared_lock lock(mutex_);
      entry = find(hash, modulus);
    }
    if (entry == nullptr) {
      const std::unique_lock lock(mutex_);
      entry = find(hash, modulus);
      if (entry == nullptr) entry = insert(hash, modulus);
    }
    // Building under the entry's own mutex makes later arrivals wait for
    // the reducer instead of building it again; if the build throws, the
    // next arrival tries afresh.
    std::shared_ptr<const BarrettReducer> reducer;
    bool built_here = false;
    {
      const std::lock_guard lock(entry->build_mutex);
      if (entry->reducer == nullptr) {
        entry->reducer = std::make_shared<const BarrettReducer>(entry->modulus);
        built_here = true;
      }
      reducer = entry->reducer;
    }
    ++(built_here ? misses_ : hits_);
    entry->last_use = clock_++;
    return reducer;
  }

  [[nodiscard]] ReciprocalCacheStats stats() const {
    const std::shared_lock lock(mutex_);
    return {hits_, misses_, entries_.size()};
  }

 private:
  struct Entry {
    Entry(u64 h, BigUInt m) : hash(h), modulus(std::move(m)) {}
    const u64 hash;
    const BigUInt modulus;
    std::mutex build_mutex;
    std::shared_ptr<const BarrettReducer> reducer;  ///< guarded by build_mutex
    std::atomic<u64> last_use{0};
  };

  std::shared_ptr<Entry> find(u64 hash, const BigUInt& modulus) const {
    for (const std::shared_ptr<Entry>& entry : entries_) {
      if (entry->hash == hash && entry->modulus == modulus) return entry;
    }
    return nullptr;
  }

  std::shared_ptr<Entry> insert(u64 hash, const BigUInt& modulus) {
    if (entries_.size() == kReciprocalCacheCapacity) {
      const auto older = [](const std::shared_ptr<Entry>& a, const std::shared_ptr<Entry>& b) {
        return a->last_use < b->last_use;
      };
      entries_.erase(std::min_element(entries_.begin(), entries_.end(), older));
    }
    entries_.push_back(std::make_shared<Entry>(hash, modulus));
    entries_.back()->last_use = clock_++;
    return entries_.back();
  }

  mutable std::shared_mutex mutex_;
  std::vector<std::shared_ptr<Entry>> entries_;
  std::atomic<u64> clock_{0};
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
};

ReciprocalCache& reciprocals() {
  static ReciprocalCache cache;
  return cache;
}

}  // namespace

ReciprocalCacheStats reciprocal_cache_stats() { return reciprocals().stats(); }

DivSmallResult divmod_small(const BigUInt& dividend, u64 divisor) {
  if (divisor == 0) throw std::domain_error("division by zero");
  std::vector<u64> q(dividend.limb_count());
  u64 rem = 0;
  const auto limbs = dividend.limbs();
  for (std::size_t i = limbs.size(); i-- > 0;) {
    const u128 cur = (static_cast<u128>(rem) << 64) | limbs[i];
    q[i] = static_cast<u64>(cur / divisor);
    rem = static_cast<u64>(cur % divisor);
  }
  return {BigUInt::from_limbs(std::move(q)), rem};
}

DivModResult divmod_knuth(const BigUInt& dividend, const BigUInt& divisor) {
  if (divisor.is_zero()) throw std::domain_error("division by zero");
  if (dividend < divisor) return {BigUInt{}, dividend};
  if (divisor.limb_count() == 1) {
    auto [q, r] = divmod_small(dividend, divisor.limb(0));
    return {std::move(q), BigUInt{r}};
  }

  // D1: normalize so the divisor's top limb has its high bit set.
  const std::size_t shift =
      static_cast<std::size_t>(__builtin_clzll(divisor.limbs().back()));
  const BigUInt un = dividend << shift;
  const BigUInt vn = divisor << shift;
  const std::size_t n = vn.limb_count();
  const std::size_t m = un.limb_count() - n;

  std::vector<u64> u(un.limbs().begin(), un.limbs().end());
  u.push_back(0);  // u has m+n+1 digits
  const std::vector<u64> v(vn.limbs().begin(), vn.limbs().end());
  std::vector<u64> q(m + 1, 0);

  const u64 v_top = v[n - 1];
  const u64 v_next = v[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate qhat from the top two dividend digits and v_top.
    const u128 top2 = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = top2 / v_top;
    u128 rhat = top2 % v_top;
    while (qhat >> 64 != 0 ||
           static_cast<u128>(static_cast<u64>(qhat)) * v_next >
               ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >> 64 != 0) break;
    }

    // D4: multiply and subtract u[j..j+n] -= qhat * v.
    const u64 qh = static_cast<u64>(qhat);
    u64 mul_carry = 0;
    u64 borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 prod = mul_wide(qh, v[i]) + mul_carry;
      mul_carry = static_cast<u64>(prod >> 64);
      const u64 plo = static_cast<u64>(prod);
      const u64 d1 = u[j + i] - plo;
      const u64 b1 = u[j + i] < plo ? 1u : 0u;
      const u64 d2 = d1 - borrow;
      const u64 b2 = d1 < borrow ? 1u : 0u;
      u[j + i] = d2;
      borrow = b1 | b2;
    }
    const u64 top_sub = mul_carry + borrow;
    const bool went_negative = u[j + n] < top_sub;
    u[j + n] -= top_sub;

    q[j] = qh;
    if (went_negative) {
      // D6: qhat was one too large; add one divisor row back.
      --q[j];
      u64 carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u64 s1 = u[j + i] + v[i];
        const u64 c1 = s1 < u[j + i] ? 1u : 0u;
        const u64 s2 = s1 + carry;
        const u64 c2 = s2 < s1 ? 1u : 0u;
        u[j + i] = s2;
        carry = c1 | c2;
      }
      u[j + n] += carry;  // cancels the earlier wraparound
    }
  }

  u.resize(n);
  BigUInt rem = BigUInt::from_limbs(std::move(u));
  rem >>= shift;
  return {BigUInt::from_limbs(std::move(q)), std::move(rem)};
}

DivModResult divmod(const BigUInt& a, const BigUInt& b) {
  // Barrett needs a long divisor, a long quotient and a < m^2. Bit lengths
  // settle a >= m^2 without the cache when a has more bits than m^2 can;
  // otherwise the cached m^2 decides.
  const std::size_t n = b.limb_count();
  if (n >= kBarrettThresholdLimbs && a.limb_count() >= n + kBarrettThresholdLimbs &&
      a.bit_length() <= 2 * b.bit_length()) {
    const std::shared_ptr<const BarrettReducer> reducer = reciprocals().get(b);
    if (a < reducer->modulus_squared()) return reducer->divmod(a);
  }
  return divmod_knuth(a, b);
}

BigUInt operator/(const BigUInt& a, const BigUInt& b) { return divmod(a, b).quotient; }

BigUInt operator%(const BigUInt& a, const BigUInt& b) { return divmod(a, b).remainder; }

CenteredResidue mod_centered(const BigUInt& a, const BigUInt& m) {
  BigUInt r = a % m;
  // r in [0, m); recentre to (-m/2, m/2].
  BigUInt twice_r = r;
  twice_r <<= 1;
  if (twice_r > m) return {m - r, true};
  return {std::move(r), false};
}

}  // namespace hemul::bigint
