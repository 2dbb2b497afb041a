#pragma once

#include "fp/fp64.hpp"

namespace hemul::ssa {

struct SsaParams;

/// Reusable buffer arena for the SSA multiplication pipeline -- the
/// software analogue of the accelerator's statically managed on-chip
/// operand/spectrum buffers. One workspace owns every transient the
/// pipeline needs (packed operands, spectra, corner-turn scratch); buffers
/// keep their capacity across calls, so once warmed up a multiplication
/// performs zero heap allocations (the allocation-audit test enforces
/// this).
///
/// Ownership rules (see CONTRIBUTING.md):
///   * A workspace is single-owner state: exactly one thread may use it at
///     a time. The scheduler gives each PE lane its own instance; code
///     without an explicit workspace uses thread_workspace().
///   * Kernels may clobber any buffer; never hold a reference to workspace
///     contents across another ssa call on the same workspace.
class Workspace {
 public:
  fp::FpVec pack_a;       ///< packed operand a / in-place transform buffer
  fp::FpVec pack_b;       ///< packed operand b (clobbered by the convolution)
  fp::FpVec spec_a;       ///< single-use batch spectrum of a / inverse buffer
  fp::FpVec spec_b;       ///< single-use batch spectrum of b
  fp::FpVec ntt_scratch;  ///< four-step corner-turn scratch (transform_size)

  /// Pre-warms every buffer for the given parameters so even the first
  /// call allocates nothing (optional; buffers also grow on demand).
  void reserve(const SsaParams& params);
};

/// The calling thread's workspace (lazily created, reused for the thread's
/// lifetime). Default arena for entry points not handed one explicitly.
Workspace& thread_workspace();

}  // namespace hemul::ssa
