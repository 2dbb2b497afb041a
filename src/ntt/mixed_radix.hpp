#pragma once

#include <vector>

#include "fp/fp64.hpp"
#include "ntt/op_counts.hpp"
#include "ntt/plan.hpp"

namespace hemul::ntt {

/// General Cooley-Tukey mixed-radix NTT following the paper's Eq. 1/2: the
/// transform is decomposed per an NttPlan, inner sub-transforms use
/// shift-only twiddles whenever the sub-root is a power of two (paper
/// Eq. 3), and inter-stage twiddles use generic multiplication. It is the
/// source of the paper plan's op counts and the golden model of the
/// src/hw accelerator; SSA products run on FourStepNtt instead.
///
/// Construction precomputes everything a transform needs -- the software
/// mirror of the accelerator's pre-resident twiddle ROMs and banked operand
/// buffers: twiddle tables, the digit-reversal permutation, per-stage
/// inter-stage twiddles and 1/N. An engine is immutable and freely shared
/// across threads; shared_mixed_radix() builds each plan's engine once per
/// process.
///
/// The transform itself is the iterative in-place form of the paper's
/// Eq. 1/2 staging: one digit-reversal gather, then one butterfly pass per
/// plan stage over a single flat buffer. The butterfly inner loop defers
/// canonical reduction: row sums accumulate in 128 bits and reduce once
/// per output (bounds allow it for every radix <= 2^32).
class MixedRadixNtt {
 public:
  /// Builds all tables for the plan. The root hierarchy is aligned so that
  /// the 64-point sub-root is exactly 8 (paper Eq. 3) whenever the size is
  /// >= 64.
  explicit MixedRadixNtt(NttPlan plan);

  /// Out-of-place forward transform, natural order on both sides,
  /// canonical values; data.size() must equal plan().size.
  [[nodiscard]] fp::FpVec forward(const fp::FpVec& data, NttOpCounts* counts = nullptr) const;

  /// Out-of-place inverse transform (with 1/N scaling).
  [[nodiscard]] fp::FpVec inverse(const fp::FpVec& data, NttOpCounts* counts = nullptr) const;

  [[nodiscard]] const NttPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] fp::Fp root() const noexcept { return root_; }

 private:
  /// One combine stage: radix-r DFTs across columns of already-transformed
  /// blocks, preceded by the inter-stage twiddle pass (paper Eq. 2).
  struct Stage {
    u32 radix = 0;
    u64 block = 0;  ///< length of the sub-results being combined
    u64 span = 0;   ///< radix * block: extent of one butterfly group
    std::vector<fp::Fp> fwd_tw;  ///< (radix-1)*block twiddles, j-major
    std::vector<fp::Fp> inv_tw;
  };

  fp::FpVec run(const fp::FpVec& in, bool inverse, NttOpCounts* counts) const;

  /// order-point DFT of `in` into `out` (distinct buffers) using the
  /// full-size power table; shift-only kernel when the order-th root is a
  /// power of two. Deferred reduction: one reduce128 per output.
  void small_dft(const fp::Fp* in, fp::Fp* out, u64 order, const std::vector<fp::Fp>& table,
                 NttOpCounts* counts) const;

  NttPlan plan_;
  fp::Fp root_;
  fp::Fp n_inv_;
  std::vector<fp::Fp> fwd_table_;  ///< w^0 .. w^(N-1)
  std::vector<fp::Fp> inv_table_;
  std::vector<u32> perm_;          ///< digit reversal: work[p] = in[perm_[p]]
  std::vector<Stage> stages_;      ///< combine stages, innermost first
};

/// Process-wide plan cache: the first request for a plan builds its engine
/// (twiddle tables, permutations); every later request -- from any thread
/// -- returns the same immutable engine via a lock-free list walk. Engines
/// intentionally live for the process lifetime (mirroring the
/// accelerator's resident ROMs).
const MixedRadixNtt& shared_mixed_radix(const NttPlan& plan);

}  // namespace hemul::ntt
