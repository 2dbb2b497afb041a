#include "ssa/spectrum_cache.hpp"

#include <mutex>

namespace hemul::ssa {

u64 ConcurrentSpectrumCache::key_hash(const bigint::BigUInt& operand,
                                      const SsaParams& params) noexcept {
  // Fold the packing geometry in so equal operands under different
  // parameterizations land in different buckets.
  u64 h = bigint::hash_limbs(operand);
  h ^= static_cast<u64>(params.coeff_bits) * 0x9E3779B97F4A7C15ULL;
  h ^= params.transform_size * 0xC2B2AE3D27D4EB4FULL;
  return h;
}

bool ConcurrentSpectrumCache::matches(const Entry& entry, const bigint::BigUInt& operand,
                                      const SsaParams& params) noexcept {
  return entry.coeff_bits == params.coeff_bits &&
         entry.transform_size == params.transform_size && entry.operand == operand;
}

std::shared_ptr<const fp::FpVec> ConcurrentSpectrumCache::get_or_compute(
    const bigint::BigUInt& operand, const SsaParams& params, const TransformFn& forward) {
  const u64 key = key_hash(operand, params);
  {
    std::shared_lock lock(mutex_);
    const auto it = buckets_.find(key);
    if (it != buckets_.end()) {
      for (const std::shared_ptr<const Entry>& entry : it->second) {
        if (matches(*entry, operand, params)) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return {entry, &entry->spectrum};
        }
      }
    }
  }

  // Cold operand: transform outside the lock (the NTT dominates; a racing
  // lane may duplicate the work, never the published entry).
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto entry = std::make_shared<const Entry>(
      Entry{params.coeff_bits, params.transform_size, operand, forward(operand)});

  std::unique_lock lock(mutex_);
  const auto it = buckets_.find(key);
  if (it != buckets_.end()) {
    for (const std::shared_ptr<const Entry>& existing : it->second) {
      if (matches(*existing, operand, params)) return {existing, &existing->spectrum};
    }
  }
  if (entries_ < capacity_) {
    (it != buckets_.end() ? it->second : buckets_[key]).push_back(entry);
    ++entries_;
  }
  return {entry, &entry->spectrum};
}

ConcurrentSpectrumCache::Stats ConcurrentSpectrumCache::stats() const noexcept {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed)};
}

std::size_t ConcurrentSpectrumCache::size() const {
  std::shared_lock lock(mutex_);
  return entries_;
}

void ConcurrentSpectrumCache::clear() {
  std::unique_lock lock(mutex_);
  buckets_.clear();
  entries_ = 0;
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

BatchSpectrumProvider::BatchSpectrumProvider(
    std::span<const std::pair<bigint::BigUInt, bigint::BigUInt>> jobs, const SsaParams& params,
    TransformFn forward)
    : forward_(std::move(forward)), params_(params) {
  for (const auto& [a, b] : jobs) {
    ++occurrences_[bigint::hash_limbs(a)];
    ++occurrences_[bigint::hash_limbs(b)];
  }
}

const fp::FpVec& BatchSpectrumProvider::get(const bigint::BigUInt& operand,
                                            fp::FpVec& scratch) {
  const auto it = occurrences_.find(bigint::hash_limbs(operand));
  const bool reused = it != occurrences_.end() && it->second > 1;
  if (!reused) {
    ++forward_transforms_;
    forward_(operand, scratch);  // fills in place: scratch keeps its capacity
    return scratch;
  }
  // The unbounded cache publishes every spectrum it computes, so the entry
  // outlives the returned handle for the provider's lifetime.
  return *cache_.get_or_compute(operand, params_, [this](const bigint::BigUInt& value) {
    ++forward_transforms_;
    fp::FpVec owned;  // cache entries own their storage
    forward_(value, owned);
    return owned;
  });
}

}  // namespace hemul::ssa
