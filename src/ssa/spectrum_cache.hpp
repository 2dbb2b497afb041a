#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bigint/biguint.hpp"
#include "fp/fp64.hpp"
#include "ssa/params.hpp"

namespace hemul::ssa {

/// Thread-safe cache of forward NTT spectra keyed by operand value.
///
/// The SSA pipeline spends 2 of its 3 transforms on the forward NTTs of the
/// operands. When many products share an operand (a DGHV ciphertext AND-ed
/// with a whole partial-product row, the shared operand of an
/// exponentiation ladder), the repeated operand's spectrum is identical
/// every time -- caching it drops the cost from 3N to N+1 transforms,
/// generalizing the ssa::square saving (2 instead of 3). The scheduler's PE
/// lanes share one instance, so a repeated operand is transformed once
/// process-wide rather than once per lane; BatchSpectrumProvider keeps a
/// batch-scoped instance for the within-batch amortization.
///
/// Keys pair the operand value with the packing geometry (coeff_bits,
/// transform_size): every spectrum is in four-step engine order, so two
/// parameterizations share a spectrum exactly when they pack the operand
/// identically. Hashes cover the limbs and the geometry; entries store the
/// operand and geometry for exact comparison, so collisions cost a probe,
/// never correctness. Entries are immutable once published and held by
/// shared_ptr, so readers keep their spectrum alive without holding the
/// lock. On a miss the forward transform runs outside the lock; two lanes
/// racing on the same cold operand may both compute it (both count as
/// misses), but exactly one result is published.
///
/// Memory is bounded: at most `capacity` spectra are retained (a spectrum
/// is transform_size field elements, i.e. ~0.5 MB at the paper's 64K
/// point). Once full, further cold operands are computed but not published
/// -- early repeated operands keep their amortization, a long stream of
/// distinct operands stops growing the cache instead of exhausting memory.
class ConcurrentSpectrumCache {
 public:
  using TransformFn = std::function<fp::FpVec(const bigint::BigUInt&)>;

  /// Default retention bound (512 paper-sized spectra ~ 256 MB worst case).
  static constexpr std::size_t kDefaultCapacity = 512;
  /// Retain every spectrum (batch-scoped caches, whose lifetime bounds them).
  static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  explicit ConcurrentSpectrumCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// The forward spectrum of `operand` under `params`, computing and
  /// caching it via `forward` on a miss.
  [[nodiscard]] std::shared_ptr<const fp::FpVec> get_or_compute(const bigint::BigUInt& operand,
                                                                const SsaParams& params,
                                                                const TransformFn& forward);

  struct Stats {
    u64 hits = 0;    ///< lookups served from the cache
    u64 misses = 0;  ///< lookups that ran a forward transform
  };
  [[nodiscard]] Stats stats() const noexcept;

  /// Cached spectra (distinct operand/geometry pairs).
  [[nodiscard]] std::size_t size() const;

  /// Drops all entries (spectra still referenced by lanes stay alive) and
  /// resets the hit/miss counters.
  void clear();

 private:
  struct Entry {
    std::size_t coeff_bits;
    u64 transform_size;
    bigint::BigUInt operand;
    fp::FpVec spectrum;
  };

  static u64 key_hash(const bigint::BigUInt& operand, const SsaParams& params) noexcept;
  static bool matches(const Entry& entry, const bigint::BigUInt& operand,
                      const SsaParams& params) noexcept;

  mutable std::shared_mutex mutex_;
  std::size_t capacity_;
  std::unordered_map<u64, std::vector<std::shared_ptr<const Entry>>> buckets_;
  std::size_t entries_ = 0;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
};

/// Batch-scoped spectrum provider shared by the software and the
/// simulated-hardware batch executors: it pre-counts operand occurrences
/// across the whole batch and caches only spectra that are actually reused,
/// so a stream of unique operands costs no extra memory while a repeated
/// operand is transformed exactly once.
class BatchSpectrumProvider {
 public:
  /// Computes the forward spectrum of the operand into the given buffer
  /// (resizing it; callers reuse warmed capacity, so steady-state batches
  /// of single-use operands transform without heap allocation).
  using TransformFn = std::function<void(const bigint::BigUInt&, fp::FpVec&)>;

  /// `params` is the packing geometry every spectrum of the batch shares.
  BatchSpectrumProvider(std::span<const std::pair<bigint::BigUInt, bigint::BigUInt>> jobs,
                        const SsaParams& params, TransformFn forward);

  /// The forward spectrum of `operand`. Single-use operands are computed
  /// into `scratch`, which must outlive the use of the returned reference;
  /// reused operands live in the cache (stable for the provider's
  /// lifetime).
  const fp::FpVec& get(const bigint::BigUInt& operand, fp::FpVec& scratch);

  [[nodiscard]] u64 forward_transforms() const noexcept { return forward_transforms_; }
  [[nodiscard]] u64 cache_hits() const noexcept { return cache_.stats().hits; }

 private:
  TransformFn forward_;
  SsaParams params_;
  /// Occurrences per operand hash. Counting by hash may conflate distinct
  /// operands, which only means an extra spectrum gets cached -- the
  /// cache's operand equality check keeps results exact.
  std::unordered_map<u64, unsigned> occurrences_;
  ConcurrentSpectrumCache cache_{ConcurrentSpectrumCache::kUnbounded};
  u64 forward_transforms_ = 0;
};

}  // namespace hemul::ssa
