#pragma once

#include <memory>

#include "bigint/biguint.hpp"

namespace hemul::bigint {

/// Classical multiplication algorithms.
///
/// These are the baselines the paper's Section III argues against for
/// million-bit operands: schoolbook is O(n^2), Karatsuba O(n^1.585) and
/// Toom-3 O(n^1.465); the SSA/NTT multiplier (src/ssa) is
/// O(n log n log log n). The paper places its advantage from ~10^5 bits;
/// the four-step NTT already leads from between 8K and 16K bits (bench E4
/// measures the crossover, see backend::kSsaDispatchBits).

/// O(n^2) limb-by-limb product. Always correct; the golden reference.
BigUInt mul_schoolbook(const BigUInt& a, const BigUInt& b);

/// Karatsuba 2-way splitting; falls back to schoolbook below a threshold.
BigUInt mul_karatsuba(const BigUInt& a, const BigUInt& b);

/// Toom-Cook 3-way splitting (evaluation points 0, 1, -1, 2, inf with exact
/// interpolation divisions by 2 and 3); falls back to Karatsuba below a
/// threshold.
BigUInt mul_toom3(const BigUInt& a, const BigUInt& b);

/// The classical size-adaptive dispatcher (schoolbook / Karatsuba / Toom-3
/// by limb count). The shorter operand picks the algorithm: schoolbook
/// when it has at most kKaratsubaThresholdLimbs limbs; otherwise a longer
/// operand of at least twice its length is cut into blocks as long as the
/// shorter one, each block product balanced. Never consults the installed
/// dispatch hook, so backend implementations can call it without
/// re-entering themselves.
BigUInt mul_auto_classical(const BigUInt& a, const BigUInt& b);

/// Size-adaptive dispatcher used by BigUInt::operator*. Routes through the
/// dispatch hook when one is installed (see set_mul_dispatch), otherwise
/// through mul_auto_classical.
BigUInt mul_auto(const BigUInt& a, const BigUInt& b);

/// Inversion-of-control seam for the backend layer (src/backend): the
/// registry installs its auto policy here so every BigUInt product --
/// including operator* inside fhe/core -- dispatches through the registered
/// backends (classical below the SSA advantage point, NTT above). bigint
/// itself stays independent of the layers above it. Passing nullptr
/// restores the classical dispatcher. Thread-safe.
using MulDispatchFn = BigUInt (*)(const BigUInt&, const BigUInt&);
void set_mul_dispatch(MulDispatchFn hook) noexcept;

/// The currently installed hook (nullptr when dispatch is classical).
[[nodiscard]] MulDispatchFn mul_dispatch() noexcept;

/// An operand prepared once for many products by operands of a bounded
/// width (see prepare_operand). This base class keeps only the value and
/// multiplies through mul_auto; the SSA implementation the backend
/// registry installs (ssa::PreparedSpectrum) also keeps the operand's
/// forward spectrum, so a product by it costs one forward transform, one
/// pointwise product and one inverse. Immutable once built, so one
/// instance may serve many threads.
class PreparedOperand {
 public:
  explicit PreparedOperand(BigUInt value) : value_(std::move(value)) {}
  virtual ~PreparedOperand() = default;
  PreparedOperand(const PreparedOperand&) = delete;
  PreparedOperand& operator=(const PreparedOperand&) = delete;

  [[nodiscard]] const BigUInt& value() const noexcept { return value_; }

  /// value() * other; other must be no wider than the bound the operand was
  /// prepared for.
  [[nodiscard]] virtual BigUInt multiply(const BigUInt& other) const;

 private:
  BigUInt value_;
};

/// Prepares `operand` for products by operands of at most `other_bits`
/// bits, through the installed prepare hook, or as a plain PreparedOperand
/// when none is installed.
[[nodiscard]] std::unique_ptr<const PreparedOperand> prepare_operand(BigUInt operand,
                                                                     std::size_t other_bits);

/// The prepare half of the backend seam (see set_mul_dispatch); the
/// registry installs one that keeps spectra for products the SSA path
/// would run. Passing nullptr restores plain prepared operands. Thread-safe.
using PrepareDispatchFn = std::unique_ptr<const PreparedOperand> (*)(BigUInt operand,
                                                                     std::size_t other_bits);
void set_prepare_dispatch(PrepareDispatchFn hook) noexcept;

/// Limb-count thresholds of the dispatcher (exposed for the benchmarks).
/// Bench E4 (bench_mult_crossover), run with a threshold of 24: schoolbook
/// beat Karatsuba in its balanced rows at 32 and 64 limbs, and beat the
/// classical dispatcher in every short x long row with a 25-, 41- or 64-limb
/// operand, in each of three runs; at 80 limbs it tied or lost a row.
/// Keygen's q_i * p (25-limb p at the paper's parameters) is one of those
/// products.
inline constexpr std::size_t kKaratsubaThresholdLimbs = 64;
inline constexpr std::size_t kToom3ThresholdLimbs = 160;

}  // namespace hemul::bigint
