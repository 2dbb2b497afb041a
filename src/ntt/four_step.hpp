#pragma once

#include <vector>

#include "fp/fp64.hpp"

namespace hemul::ntt {

/// Four-step (Bailey) NTT: the N-point transform viewed as an N1 x N2
/// matrix -- N1-point column transforms, a precomputed twiddle multiply,
/// N2-point row transforms, with one cache-blocked corner-turn between
/// them. The sub-transforms run VECTOR-PARALLEL over the row index
/// (broadcast-twiddle butterflies on whole contiguous rows), so every
/// butterfly level is a full-width SIMD pass -- the scalar small-half
/// blocks that dominate a monolithic sweep never execute. This is the
/// software mirror of how the paper's accelerator (and FAB/Medha) feed
/// parallel butterfly units from banked memory. Each pass is one serial
/// sweep on the calling thread: PE-lane parallelism comes from running
/// independent products on separate scheduler lanes, not from splitting
/// one transform.
///
/// Layout contract: the *_spectrum() entry points speak "four-step engine
/// order" -- the row-major n2 x n1 layout with eng[m * n1 + j] =
/// X[bitrev_n2(m) * n1 + bitrev_n1(j)], which the pass structure produces
/// naturally (no permutation passes at all). That order is distinct from
/// the natural order; it is the one order every SSA spectrum (and so every
/// spectrum cache entry) is in.
/// forward()/inverse() provide natural order for golden tests.
///
/// All internal passes run on the redundant representation of
/// fp/kernels.hpp; the inverse's last pass ends with the 1/N scaling and
/// canonicalization, so callers never canonicalize its output.
class FourStepNtt {
 public:
  /// Balanced split: n1 = 2^ceil(log2(n)/2) (n = 64K -> 256 x 256).
  explicit FourStepNtt(u64 n);

  /// Explicit split (n = n1 * n2); n1, n2 must be powers of two >= 2.
  FourStepNtt(u64 n1, u64 n2);

  // ---- natural-order golden API ------------------------------------
  /// In-place forward transform, natural order in and out. scratch is
  /// resized to n (reusing capacity).
  void forward(fp::FpVec& data, fp::FpVec& scratch) const;

  /// In-place inverse transform (including 1/N), natural order.
  void inverse(fp::FpVec& data, fp::FpVec& scratch) const;

  // ---- engine-order spectrum API (the SSA hot path) ----------------
  /// In-place forward to a four-step engine-order spectrum (canonical).
  void forward_spectrum(fp::FpVec& data, fp::FpVec& scratch) const;

  /// In-place inverse from a four-step engine-order spectrum (redundant
  /// values accepted) to natural order, including the 1/N scaling.
  void inverse_from_spectrum(fp::FpVec& data, fp::FpVec& scratch) const;

  /// Cyclic convolution in place: a <- a (*) b; b is clobbered (scratch).
  void convolve_into(fp::FpVec& a, fp::FpVec& b, fp::FpVec& scratch) const;

  /// Cyclic self-convolution (one forward pass instead of two).
  void convolve_square_into(fp::FpVec& a, fp::FpVec& scratch) const;

  /// out = inverse(fa . fb) for two engine-order spectra (cached-operand
  /// path). out is resized to n and must not alias fa or fb.
  void convolve_from_spectra(fp::FpVec& out, const fp::FpVec& fa, const fp::FpVec& fb,
                             fp::FpVec& scratch) const;

  [[nodiscard]] u64 size() const noexcept { return n_; }
  [[nodiscard]] u64 n1() const noexcept { return n1_; }
  [[nodiscard]] u64 n2() const noexcept { return n2_; }
  [[nodiscard]] fp::Fp root() const noexcept { return root_; }

 private:
  /// Forward passes, redundant output in data (engine order).
  void forward_raw(fp::FpVec& data, fp::FpVec& scratch) const;
  /// Inverse passes from redundant engine-order input; canonical natural-
  /// order output (the last pass applies 1/N and canonicalizes).
  void inverse_raw(fp::FpVec& data, fp::FpVec& scratch) const;

  u64 n_;
  u64 n1_;  ///< column-transform length (lanes of the final n2 x n1 layout)
  u64 n2_;  ///< row-transform length (rows of the final layout)
  fp::Fp root_;
  fp::Fp n_inv_;
  // Butterfly level tables of the length-n1 / length-n2 sub-transforms,
  // built from root_^n2 / root_^n1 (NOT from an independently chosen
  // sub-root: the convolution theorem needs all passes on one root system).
  std::vector<std::vector<fp::Fp>> col_fwd_levels_;
  std::vector<std::vector<fp::Fp>> col_inv_levels_;
  std::vector<std::vector<fp::Fp>> row_fwd_levels_;
  std::vector<std::vector<fp::Fp>> row_inv_levels_;
  // Inter-pass twiddles, row-major in the column pass's output order:
  // tw_fwd_[j * n2 + i2] = root^(bitrev_n1(j) * i2), so the twiddle
  // multiply is a straight full-width pointwise sweep over each row.
  fp::FpVec tw_fwd_;
  fp::FpVec tw_inv_;
};

/// Process-wide engine cache for the balanced split (mirrors
/// shared_mixed_radix): lock-free lookup, intentionally process-lifetime
/// nodes.
const FourStepNtt& shared_four_step(u64 n);

}  // namespace hemul::ntt
