#pragma once

#include <vector>

#include "fp/fp64.hpp"
#include "ntt/tiling.hpp"

namespace hemul::ntt {

/// Tile accounting of one four-step call chain: how many tile groups were
/// handed to the TileExecutor and how many tiles they split into. Both are
/// deterministic functions of the transform shape and the executor's
/// concurrency (the bench regression gate relies on that).
struct FourStepStats {
  u64 tile_groups = 0;  ///< passes dispatched through the executor
  u64 tiles = 0;        ///< tiles across all those passes

  FourStepStats& operator+=(const FourStepStats& o) noexcept {
    tile_groups += o.tile_groups;
    tiles += o.tiles;
    return *this;
  }
};

/// Four-step (Bailey) NTT: the N-point transform viewed as an N1 x N2
/// matrix -- N1-point column transforms, a precomputed twiddle multiply,
/// N2-point row transforms, with one cache-blocked corner-turn between
/// them. The sub-transforms run VECTOR-PARALLEL over the row index
/// (broadcast-twiddle butterflies on whole contiguous rows), so every
/// butterfly level is a full-width SIMD pass -- the scalar small-half
/// blocks that dominate a monolithic sweep never execute. This is the
/// software mirror of how the paper's accelerator (and FAB/Medha) feed
/// parallel butterfly units from banked memory, and each pass splits into
/// independent lane-slab / row-range tiles that a TileExecutor can fan
/// across idle PE lanes.
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
/// fp/kernels.hpp; the final corner-turn of the inverse fuses the 1/N
/// scaling and canonicalization, so no separate epilogue sweep runs.
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
  void forward_spectrum(fp::FpVec& data, fp::FpVec& scratch,
                        TileExecutor* exec = nullptr, FourStepStats* stats = nullptr) const;

  /// In-place inverse from a four-step engine-order spectrum (redundant
  /// values accepted) to natural order, including the 1/N scaling.
  void inverse_from_spectrum(fp::FpVec& data, fp::FpVec& scratch,
                             TileExecutor* exec = nullptr,
                             FourStepStats* stats = nullptr) const;

  /// Cyclic convolution in place: a <- a (*) b; b is clobbered (scratch).
  void convolve_into(fp::FpVec& a, fp::FpVec& b, fp::FpVec& scratch,
                     TileExecutor* exec = nullptr, FourStepStats* stats = nullptr) const;

  /// Cyclic self-convolution (one forward pass instead of two).
  void convolve_square_into(fp::FpVec& a, fp::FpVec& scratch, TileExecutor* exec = nullptr,
                            FourStepStats* stats = nullptr) const;

  /// out = inverse(fa . fb) for two engine-order spectra (cached-operand
  /// path). out is resized to n and must not alias fa or fb.
  void convolve_from_spectra(fp::FpVec& out, const fp::FpVec& fa, const fp::FpVec& fb,
                             fp::FpVec& scratch, TileExecutor* exec = nullptr,
                             FourStepStats* stats = nullptr) const;

  [[nodiscard]] u64 size() const noexcept { return n_; }
  [[nodiscard]] u64 n1() const noexcept { return n1_; }
  [[nodiscard]] u64 n2() const noexcept { return n2_; }
  [[nodiscard]] fp::Fp root() const noexcept { return root_; }

  /// Tiles a pass over `rows` rows splits into under an executor with the
  /// given concurrency (deterministic; exposed for the bench gates).
  static u64 tiles_per_pass(u64 rows, unsigned concurrency) noexcept;

 private:
  /// Forward passes, redundant output in data (engine order).
  void forward_raw(fp::FpVec& data, fp::FpVec& scratch, TileExecutor* exec,
                   FourStepStats* stats) const;
  /// Inverse passes from redundant engine-order input; canonical natural-
  /// order output (the last corner-turn fuses 1/N + canonicalization).
  void inverse_raw(fp::FpVec& data, fp::FpVec& scratch, TileExecutor* exec,
                   FourStepStats* stats) const;

  /// Runs range(begin, end) over [0, rows), split into tiles through the
  /// executor (serial when exec == nullptr). The serial path invokes the
  /// callable directly: no std::function, no allocation.
  template <typename RangeFn>
  void run_pass(u64 rows, TileExecutor* exec, FourStepStats* stats, RangeFn&& range) const;

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
