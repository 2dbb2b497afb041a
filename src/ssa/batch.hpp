#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bigint/biguint.hpp"
#include "fp/fp64.hpp"
#include "ssa/multiply.hpp"

namespace hemul::ssa {

/// Transform accounting of one batched multiplication run.
struct BatchStats {
  u64 jobs = 0;
  u64 forward_transforms = 0;   ///< forward NTTs actually executed
  u64 inverse_transforms = 0;   ///< one per nonzero product
  u64 spectrum_cache_hits = 0;  ///< forward NTTs avoided by reusing a spectrum

  /// Transforms actually run -- the cache-aware replacement for the naive
  /// 3-per-product count (reused operands skip their forward transform,
  /// and the stats say so).
  [[nodiscard]] u64 transform_count() const noexcept {
    return forward_transforms + inverse_transforms;
  }
};

/// Batch-scoped spectrum provider shared by the software and the
/// simulated-hardware batch executors: it counts operand occurrences across
/// the whole batch and keeps only the spectra of operands that occur more
/// than once, so a stream of unique operands costs no extra memory while a
/// repeated operand is transformed exactly once. One batch, one thread, one
/// geometry: operands are compared by value, and the map points into the
/// caller's job span (no operand copies), which must outlive the provider.
class BatchSpectrumProvider {
 public:
  /// Computes the forward spectrum of the operand into the given buffer
  /// (resizing it; callers reuse warmed capacity, so steady-state batches
  /// of single-use operands transform without heap allocation).
  using TransformFn = std::function<void(const bigint::BigUInt&, fp::FpVec&)>;

  BatchSpectrumProvider(std::span<const std::pair<bigint::BigUInt, bigint::BigUInt>> jobs,
                        TransformFn forward);

  /// The forward spectrum of `operand`. Single-use operands are computed
  /// into `scratch`, which must outlive the use of the returned reference;
  /// reused operands are kept by the provider (stable for its lifetime).
  const fp::FpVec& get(const bigint::BigUInt& operand, fp::FpVec& scratch);

  [[nodiscard]] u64 forward_transforms() const noexcept { return forward_transforms_; }
  [[nodiscard]] u64 cache_hits() const noexcept { return cache_hits_; }

 private:
  struct OperandHash {
    std::size_t operator()(const bigint::BigUInt* v) const noexcept {
      return bigint::hash_limbs(*v);
    }
  };
  struct OperandEqual {
    bool operator()(const bigint::BigUInt* a, const bigint::BigUInt* b) const noexcept {
      return *a == *b;
    }
  };
  struct Operand {
    unsigned uses = 0;
    fp::FpVec spectrum;  ///< kept once computed, for operands used more than once
  };

  TransformFn forward_;
  std::unordered_map<const bigint::BigUInt*, Operand, OperandHash, OperandEqual> operands_;
  u64 forward_transforms_ = 0;
  u64 cache_hits_ = 0;
};

/// Multiplies a batch of operand pairs under one SsaParams instance,
/// reusing the forward spectra of repeated operands (BatchSpectrumProvider):
/// a batch that multiplies one integer against N others costs N+1 forward
/// transforms instead of 2N. Products are bit-exact against per-call
/// ssa::multiply. All transient buffers come from the workspace
/// (thread-local in the two-argument overload), so steady-state batches
/// allocate only for the products and reused spectra themselves.
///
/// Every operand must fit params.max_operand_bits().
std::vector<bigint::BigUInt> multiply_batch(
    std::span<const std::pair<bigint::BigUInt, bigint::BigUInt>> jobs,
    const SsaParams& params, BatchStats* stats = nullptr);
std::vector<bigint::BigUInt> multiply_batch(
    std::span<const std::pair<bigint::BigUInt, bigint::BigUInt>> jobs,
    const SsaParams& params, Workspace& workspace, BatchStats* stats);

}  // namespace hemul::ssa
