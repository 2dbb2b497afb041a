#include "ntt/mixed_radix.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "fp/kernels.hpp"
#include "fp/roots.hpp"
#include "util/check.hpp"

namespace hemul::ntt {

using fp::Fp;
using fp::FpVec;

namespace {

/// e if the field element is a power of two 2^e (e in [0,192)),
/// or -1 otherwise.
int pow2_exponent(Fp x) noexcept {
  Fp probe = fp::kOne;
  for (int e = 0; e < 192; ++e) {
    if (probe == x) return e;
    probe *= fp::kTwo;
  }
  return -1;
}

}  // namespace

MixedRadixNtt::MixedRadixNtt(NttPlan plan) : plan_(std::move(plan)) {
  const u64 n = plan_.size;  // <= 2^32 (NttPlan invariant), so indices fit u32
  root_ = n >= 64 ? fp::aligned_root(n) : fp::primitive_root(n);
  fwd_table_ = fp::power_table(root_, n);
  inv_table_ = fp::power_table(root_.inv(), n);
  n_inv_ = fp::inv_of_u64(n);

  const std::size_t s = plan_.stage_count();

  // Digit-reversal permutation (paper Eq. 2 decimation, fully unrolled):
  // input index i consumes the plan's radices outermost-first as its least
  // significant digits; work position p consumes them in the reverse
  // significance order, so innermost sub-transforms sit on contiguous
  // blocks. wp[k] / wi[k] are digit k's weights in p and i.
  std::vector<u64> wp(s);
  std::vector<u64> wi(s);
  {
    u64 w = 1;
    for (std::size_t k = 0; k < s; ++k) {
      wp[k] = w;
      w *= plan_.radices[k];
    }
    w = 1;
    for (std::size_t k = s; k-- > 0;) {
      wi[k] = w;
      w *= plan_.radices[k];
    }
  }
  perm_.resize(n);
  for (u64 p = 0; p < n; ++p) {
    u64 rem = p;
    u64 i = 0;
    for (std::size_t k = s; k-- > 0;) {
      const u64 digit = rem / wp[k];
      rem -= digit * wp[k];
      i += digit * wi[k];
    }
    perm_[p] = static_cast<u32>(i);
  }

  // Inter-stage twiddle tables, one per combine stage (stage 0 is the
  // contiguous small-DFT pass and needs none): tw[(j-1)*block + t] =
  // W^((N/span) * (j*t mod span)), exactly the factors of paper Eq. 2.
  stages_.reserve(s > 0 ? s - 1 : 0);
  for (std::size_t k = 1; k < s; ++k) {
    Stage stage;
    stage.radix = plan_.radices[k];
    stage.block = wp[k];
    stage.span = stage.block * stage.radix;
    const u64 stride = n / stage.span;
    stage.fwd_tw.resize(static_cast<std::size_t>(stage.radix - 1) * stage.block);
    stage.inv_tw.resize(stage.fwd_tw.size());
    for (u64 j = 1; j < stage.radix; ++j) {
      for (u64 t = 0; t < stage.block; ++t) {
        const u64 index = (stride * ((j * t) % stage.span)) % n;
        stage.fwd_tw[(j - 1) * stage.block + t] = fwd_table_[index];
        stage.inv_tw[(j - 1) * stage.block + t] = inv_table_[index];
      }
    }
    stages_.push_back(std::move(stage));
  }
}

void MixedRadixNtt::small_dft(const Fp* in, Fp* out, u64 order, const std::vector<Fp>& table,
                              NttOpCounts* counts) const {
  const u64 n = plan_.size;
  const u64 stride = n / order;  // w_order = W^stride
  const Fp w_order = table[stride % n];
  const int shift = pow2_exponent(w_order);

  if (shift >= 0) {
    // Shift-only kernel (paper Eq. 3): every twiddle is 2^(shift*i*k).
    // Row sums are deferred: order terms of < 2^64 fit 128 bits for any
    // order <= 2^32, so one reduce128 canonicalizes each output.
    for (u64 k = 0; k < order; ++k) {
      u128 acc = 0;
      for (u64 i = 0; i < order; ++i) {
        acc += in[i].mul_pow2(static_cast<u64>(shift) * ((i * k) % order)).value();
      }
      out[k] = Fp::from_u128(acc);
    }
    if (counts != nullptr) {
      counts->shift_muls += order * order;
      counts->additions += order * (order - 1);
    }
    return;
  }

  for (u64 k = 0; k < order; ++k) {
    u128 acc = 0;
    for (u64 i = 0; i < order; ++i) {
      acc += (in[i] * table[(stride * ((i * k) % order)) % n]).value();
    }
    out[k] = Fp::from_u128(acc);
  }
  if (counts != nullptr) {
    counts->generic_muls += order * order;
    counts->additions += order * (order - 1);
  }
}

FpVec MixedRadixNtt::run(const FpVec& in, bool inverse, NttOpCounts* counts) const {
  const u64 n = plan_.size;
  HEMUL_CHECK_MSG(in.size() == n, "MixedRadixNtt: size mismatch");
  FpVec out(n);

  const std::vector<Fp>& table = inverse ? inv_table_ : fwd_table_;

  // Digit-reversal gather (the software stand-in for the accelerator's
  // banked address generators).
  for (u64 p = 0; p < n; ++p) out[p] = in[perm_[p]];

  // Stage 0: independent small DFTs over contiguous blocks.
  const u64 r0 = plan_.radices[0];
  u64 max_radix = r0;
  for (const Stage& stage : stages_) max_radix = std::max<u64>(max_radix, stage.radix);
  FpVec column(max_radix);
  FpVec dft(max_radix);

  for (u64 base = 0; base < n; base += r0) {
    for (u64 i = 0; i < r0; ++i) column[i] = out[base + i];
    small_dft(column.data(), out.data() + base, r0, table, counts);
  }

  // Combine stages (innermost to outermost): twiddle the sub-results, then
  // run the radix-r DFT across every column of each group.
  for (const Stage& stage : stages_) {
    const std::vector<Fp>& tw = inverse ? stage.inv_tw : stage.fwd_tw;
    const u64 m = stage.block;
    for (u64 base = 0; base < n; base += stage.span) {
      Fp* group = out.data() + base;
      for (u64 j = 1; j < stage.radix; ++j) {
        fp::pointwise_product_canonical(group + j * m, tw.data() + (j - 1) * m, m);
      }
      if (counts != nullptr) {
        counts->generic_muls += static_cast<u64>(stage.radix - 1) * m;
      }
      for (u64 t = 0; t < m; ++t) {
        for (u64 j = 0; j < stage.radix; ++j) column[j] = group[j * m + t];
        small_dft(column.data(), dft.data(), stage.radix, table, counts);
        for (u64 q = 0; q < stage.radix; ++q) group[q * m + t] = dft[q];
      }
    }
  }

  if (inverse) fp::scale_canonical(out.data(), n_inv_, n);
  return out;
}

FpVec MixedRadixNtt::forward(const FpVec& data, NttOpCounts* counts) const {
  return run(data, /*inverse=*/false, counts);
}

FpVec MixedRadixNtt::inverse(const FpVec& data, NttOpCounts* counts) const {
  return run(data, /*inverse=*/true, counts);
}

const MixedRadixNtt& shared_mixed_radix(const NttPlan& plan) {
  // Same lock-free publication scheme as shared_four_step: immutable
  // engines on an atomic list, mutex only around first construction, nodes
  // kept for the process lifetime.
  struct Node {
    std::unique_ptr<const MixedRadixNtt> engine;
    const Node* next;
  };
  static std::atomic<const Node*> head{nullptr};
  static std::mutex build_mutex;

  const auto matches = [&plan](const MixedRadixNtt& engine) {
    return engine.plan().size == plan.size && engine.plan().radices == plan.radices;
  };

  for (const Node* node = head.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    if (matches(*node->engine)) return *node->engine;
  }

  const std::lock_guard<std::mutex> lock(build_mutex);
  for (const Node* node = head.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    if (matches(*node->engine)) return *node->engine;
  }
  auto* node = new Node{std::make_unique<const MixedRadixNtt>(plan),
                        head.load(std::memory_order_relaxed)};
  head.store(node, std::memory_order_release);
  return *node->engine;
}

}  // namespace hemul::ntt
