#include "ntt/four_step.hpp"

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

bool is_pow2(u64 x) { return x >= 2 && (x & (x - 1)) == 0; }

u64 log2_u64(u64 x) {
  u64 l = 0;
  while ((u64{1} << l) < x) ++l;
  return l;
}

u64 bit_reverse(u64 x, u64 bits) {
  u64 r = 0;
  for (u64 b = 0; b < bits; ++b) r |= ((x >> b) & 1) << (bits - 1 - b);
  return r;
}

/// Level tables of an iterative length-L transform on base root w (order
/// L): levels[l] holds the len/2 twiddles of the level with len = 2^(l+1).
std::vector<std::vector<Fp>> make_levels(Fp w, u64 length) {
  std::vector<std::vector<Fp>> levels;
  for (u64 len = 2; len <= length; len <<= 1) {
    levels.push_back(fp::power_table(w.pow(length / len), len / 2));
  }
  return levels;
}

/// Vector-parallel DIF sweep over the ROW index of a rows x lanes matrix:
/// every butterfly is a broadcast-twiddle vector op on two contiguous rows,
/// so no level ever degenerates into scalar small-half blocks (the dominant
/// cost of a monolithic sweep). Natural row order in, bit-reversed row
/// order out; redundant values throughout.
void dif_cols(Fp* m, u64 rows, u64 lanes, const std::vector<std::vector<Fp>>& levels) {
  for (std::size_t level = levels.size(); level-- > 0;) {
    const u64 len = 2ULL << level;
    const u64 half = len >> 1;
    const std::vector<Fp>& tw = levels[level];
    for (u64 start = 0; start < rows; start += len) {
      for (u64 j = 0; j < half; ++j) {
        Fp* lo = m + (start + j) * lanes;
        fp::dif_butterflies_bcast(lo, lo + half * lanes, tw[j], lanes);
      }
    }
  }
}

/// Vector-parallel DIT sweep (bit-reversed row order in, natural out).
void dit_cols(Fp* m, u64 rows, u64 lanes, const std::vector<std::vector<Fp>>& levels) {
  for (std::size_t level = 0; level < levels.size(); ++level) {
    const u64 len = 2ULL << level;
    const u64 half = len >> 1;
    const std::vector<Fp>& tw = levels[level];
    for (u64 start = 0; start < rows; start += len) {
      for (u64 j = 0; j < half; ++j) {
        Fp* lo = m + (start + j) * lanes;
        fp::dit_butterflies_bcast(lo, lo + half * lanes, tw[j], lanes);
      }
    }
  }
}

u64 balanced_n1(u64 n) {
  const u64 log2n = log2_u64(n);
  return u64{1} << ((log2n + 1) / 2);
}

}  // namespace

FourStepNtt::FourStepNtt(u64 n) : FourStepNtt(balanced_n1(n), n / balanced_n1(n)) {}

FourStepNtt::FourStepNtt(u64 n1, u64 n2) : n_(n1 * n2), n1_(n1), n2_(n2) {
  HEMUL_CHECK_MSG(is_pow2(n1_) && is_pow2(n2_),
                  "FourStepNtt: n1 and n2 must be powers of two >= 2");
  // Same root rule as MixedRadixNtt, so natural-order results are directly
  // comparable across engines.
  root_ = n_ >= 64 ? fp::aligned_root(n_) : fp::primitive_root(n_);
  const Fp inv_root = root_.inv();
  n_inv_ = fp::inv_of_u64(n_);

  col_fwd_levels_ = make_levels(root_.pow(n2_), n1_);
  col_inv_levels_ = make_levels(inv_root.pow(n2_), n1_);
  row_fwd_levels_ = make_levels(root_.pow(n1_), n2_);
  row_inv_levels_ = make_levels(inv_root.pow(n1_), n2_);

  // Inter-pass twiddles in row-major [j][i2] order: the column pass leaves
  // row j holding frequency k1 = bitrev_n1(j), so the whole row is scaled
  // by root^(bitrev_n1(j) * i2) -- a contiguous full-width pointwise
  // multiply per row.
  const u64 bits1 = log2_u64(n1_);
  tw_fwd_.resize(n_);
  tw_inv_.resize(n_);
  for (u64 j = 0; j < n1_; ++j) {
    const u64 k1 = bit_reverse(j, bits1);
    const Fp w_fwd = root_.pow(k1);
    const Fp w_inv = inv_root.pow(k1);
    Fp* row_fwd = tw_fwd_.data() + j * n2_;
    Fp* row_inv = tw_inv_.data() + j * n2_;
    row_fwd[0] = fp::kOne;
    row_inv[0] = fp::kOne;
    for (u64 i2 = 1; i2 < n2_; ++i2) {
      row_fwd[i2] = row_fwd[i2 - 1] * w_fwd;
      row_inv[i2] = row_inv[i2 - 1] * w_inv;
    }
  }
}

void FourStepNtt::forward_raw(FpVec& data, FpVec& scratch) const {
  HEMUL_CHECK(data.size() == n_);
  scratch.resize(n_);
  Fp* d = data.data();
  Fp* s = scratch.data();

  // Pass 1: length-n1 column transforms over the row index of the n1 x n2
  // matrix, then the inter-pass twiddle multiply, row by row.
  dif_cols(d, n1_, n2_, col_fwd_levels_);
  for (u64 j = 0; j < n1_; ++j) {
    fp::pointwise_product_lazy(d + j * n2_, tw_fwd_.data() + j * n2_, n2_);
  }
  // Pass 2: corner-turn (n1 x n2) -> (n2 x n1).
  fp::transpose(s, d, n1_, n2_);
  // Pass 3: length-n2 row transforms, again over the row index.
  // Output: scratch[m][j] = X[rev2(m) * n1 + rev1(j)].
  dif_cols(s, n2_, n1_, row_fwd_levels_);
  data.swap(scratch);  // spectrum lives in `data`, O(1), allocation-free
}

void FourStepNtt::inverse_raw(FpVec& data, FpVec& scratch) const {
  HEMUL_CHECK(data.size() == n_);
  scratch.resize(n_);
  Fp* d = data.data();
  Fp* s = scratch.data();

  // Mirror of forward_raw on the n2 x n1 engine layout.
  dit_cols(d, n2_, n1_, row_inv_levels_);
  fp::transpose(s, d, n2_, n1_);
  // Twiddle-cancel, column inverses, then the 1/N scaling-and-
  // canonicalization epilogue.
  for (u64 j = 0; j < n1_; ++j) {
    fp::pointwise_product_lazy(s + j * n2_, tw_inv_.data() + j * n2_, n2_);
  }
  dit_cols(s, n1_, n2_, col_inv_levels_);
  for (u64 i1 = 0; i1 < n1_; ++i1) fp::scale_canonical(s + i1 * n2_, n_inv_, n2_);
  data.swap(scratch);  // natural order back in `data`
}

void FourStepNtt::forward_spectrum(FpVec& data, FpVec& scratch) const {
  forward_raw(data, scratch);
  fp::canonicalize(data.data(), n_);
}

void FourStepNtt::inverse_from_spectrum(FpVec& data, FpVec& scratch) const {
  inverse_raw(data, scratch);
}

void FourStepNtt::convolve_into(FpVec& a, FpVec& b, FpVec& scratch) const {
  HEMUL_CHECK(a.size() == n_ && b.size() == n_);
  forward_raw(a, scratch);
  forward_raw(b, scratch);
  fp::pointwise_product_lazy(a.data(), b.data(), n_);
  inverse_raw(a, scratch);
}

void FourStepNtt::convolve_square_into(FpVec& a, FpVec& scratch) const {
  HEMUL_CHECK(a.size() == n_);
  forward_raw(a, scratch);
  fp::pointwise_product_lazy(a.data(), a.data(), n_);
  inverse_raw(a, scratch);
}

void FourStepNtt::convolve_from_spectra(FpVec& out, const FpVec& fa, const FpVec& fb,
                                        FpVec& scratch) const {
  HEMUL_CHECK(fa.size() == n_ && fb.size() == n_);
  out.resize(n_);
  fp::pointwise_product(out.data(), fa.data(), fb.data(), n_);
  inverse_raw(out, scratch);
}

void FourStepNtt::forward(FpVec& data, FpVec& scratch) const {
  forward_spectrum(data, scratch);
  // Engine order -> natural order: position m*n1 + j holds frequency
  // bitrev_n2(m)*n1 + bitrev_n1(j).
  scratch = data;
  const u64 bits1 = log2_u64(n1_);
  const u64 bits2 = log2_u64(n2_);
  for (u64 m = 0; m < n2_; ++m) {
    const u64 k2 = bit_reverse(m, bits2);
    for (u64 j = 0; j < n1_; ++j) {
      data[k2 * n1_ + bit_reverse(j, bits1)] = scratch[m * n1_ + j];
    }
  }
}

void FourStepNtt::inverse(FpVec& data, FpVec& scratch) const {
  HEMUL_CHECK(data.size() == n_);
  // Natural order -> engine order, then the engine inverse.
  scratch.resize(n_);
  const u64 bits1 = log2_u64(n1_);
  const u64 bits2 = log2_u64(n2_);
  for (u64 m = 0; m < n2_; ++m) {
    const u64 k2 = bit_reverse(m, bits2);
    for (u64 j = 0; j < n1_; ++j) {
      scratch[m * n1_ + j] = data[k2 * n1_ + bit_reverse(j, bits1)];
    }
  }
  data.swap(scratch);
  scratch.resize(n_);
  inverse_from_spectrum(data, scratch);
}

const FourStepNtt& shared_four_step(u64 n) {
  // Same lock-free atomic-list pattern as shared_mixed_radix: immutable nodes,
  // process lifetime, readers never contend.
  struct Node {
    std::unique_ptr<const FourStepNtt> engine;
    const Node* next;
  };
  static std::atomic<const Node*> head{nullptr};
  static std::mutex build_mutex;

  for (const Node* node = head.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    if (node->engine->size() == n) return *node->engine;
  }

  const std::lock_guard<std::mutex> lock(build_mutex);
  for (const Node* node = head.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    if (node->engine->size() == n) return *node->engine;
  }
  auto* node = new Node{std::make_unique<const FourStepNtt>(n),
                        head.load(std::memory_order_relaxed)};
  head.store(node, std::memory_order_release);
  return *node->engine;
}

}  // namespace hemul::ntt
