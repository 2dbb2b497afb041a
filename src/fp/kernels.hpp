#pragma once

#include <cstddef>

#include "fp/fp64.hpp"

// Bulk GF(p) kernels for the software NTT hot path: butterfly levels,
// pointwise spectrum products and canonicalization sweeps.
//
// Inside a kernel, elements are carried in a *redundant* representation:
// any u64 in [0, 2^64) standing for its residue mod p, not necessarily the
// canonical representative in [0, p). This removes the final conditional
// subtraction from every addition/subtraction (the dominant cost of a
// butterfly on wide cores), mirroring how the accelerator's carry-save
// adder trees defer normalization to the end of the pipeline. Every kernel
// that hands data back to code using plain Fp arithmetic canonicalizes
// first; the redundant values never escape this header's functions.
//
// Correctness of the redundant ops does not depend on probabilistic
// arguments: add/sub apply the 2^64 = eps (mod p) wrap fix twice, which is
// exact for arbitrary u64 inputs (a single fix can itself wrap when an
// operand lies within eps of 2^64).
//
// When the build targets AVX-512 (F + DQ, e.g. via -march=native on a
// capable host -- see the HEMUL_NATIVE CMake option), the sweeps run eight
// lanes wide with the 64x64 product assembled from 32-bit partial products;
// otherwise the same algorithms run scalar. Both paths produce identical
// canonical results.

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#define HEMUL_FP_AVX512 1
#include <immintrin.h>
#else
#define HEMUL_FP_AVX512 0
#endif

namespace hemul::fp {

// ---- scalar redundant-representation primitives ---------------------------

/// a + b (mod p) for arbitrary u64 a, b; result in [0, 2^64).
inline u64 add_lazy(u64 a, u64 b) noexcept {
  u64 s = a + b;
  if (s < a) {  // wrapped: compensate 2^64 = eps, which may wrap once more
    const u64 s2 = s + kEpsilon;
    s = s2 < s ? s2 + kEpsilon : s2;
  }
  return s;
}

/// a - b (mod p) for arbitrary u64 a, b; result in [0, 2^64).
inline u64 sub_lazy(u64 a, u64 b) noexcept {
  u64 d = a - b;
  if (a < b) {  // borrowed: compensate -2^64 = -eps, which may borrow again
    const u64 d2 = d - kEpsilon;
    d = d2 > d ? d2 - kEpsilon : d2;
  }
  return d;
}

/// a * b (mod p) for arbitrary u64 a, b; reduce128 yields the canonical
/// representative, which is also a valid redundant one.
inline u64 mul_lazy(u64 a, u64 b) noexcept { return reduce128(mul_wide(a, b)); }

/// Canonical representative of a redundant value (single conditional
/// subtraction suffices: x < 2^64 < 2p).
inline u64 canonical_u64(u64 x) noexcept { return x >= kModulus ? x - kModulus : x; }

#if HEMUL_FP_AVX512

// gcc flags the intentionally-uninitialized _mm512_undefined_epi32() that
// the shift/multiply intrinsics pass as their masked-off lanes; that is by
// design in the intrinsic headers, not a real read of uninitialized data.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace detail {

inline __m512i v_bcast(u64 x) noexcept { return _mm512_set1_epi64(static_cast<long long>(x)); }

/// Eight-lane add_lazy.
inline __m512i v_add_lazy(__m512i a, __m512i b) noexcept {
  const __m512i eps = v_bcast(kEpsilon);
  const __m512i s = _mm512_add_epi64(a, b);
  const __mmask8 m1 = _mm512_cmplt_epu64_mask(s, a);
  const __m512i s2 = _mm512_mask_add_epi64(s, m1, s, eps);
  const __mmask8 m2 = _mm512_mask_cmplt_epu64_mask(m1, s2, s);
  return _mm512_mask_add_epi64(s2, m2, s2, eps);
}

/// Eight-lane sub_lazy.
inline __m512i v_sub_lazy(__m512i a, __m512i b) noexcept {
  const __m512i eps = v_bcast(kEpsilon);
  const __m512i d = _mm512_sub_epi64(a, b);
  const __mmask8 m1 = _mm512_cmplt_epu64_mask(a, b);
  const __m512i d2 = _mm512_mask_sub_epi64(d, m1, d, eps);
  const __mmask8 m2 = _mm512_mask_cmplt_epu64_mask(m1, d, d2);
  return _mm512_mask_sub_epi64(d2, m2, d2, eps);
}

/// Full 64x64 -> 128 product per lane from 32-bit partial products.
inline void v_mul_wide(__m512i a, __m512i b, __m512i& hi, __m512i& lo) noexcept {
  const __m512i lo32 = v_bcast(0xFFFF'FFFFULL);
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i ll = _mm512_mul_epu32(a, b);
  const __m512i lh = _mm512_mul_epu32(a, b_hi);
  const __m512i hl = _mm512_mul_epu32(a_hi, b);
  const __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
  // t = lh + (ll >> 32) cannot wrap (both terms < 2^64 - 2^33).
  const __m512i t = _mm512_add_epi64(lh, _mm512_srli_epi64(ll, 32));
  const __m512i t2 = _mm512_add_epi64(t, hl);
  const __mmask8 carry = _mm512_cmplt_epu64_mask(t2, t);
  lo = _mm512_or_si512(_mm512_slli_epi64(t2, 32), _mm512_and_si512(ll, lo32));
  hi = _mm512_add_epi64(hh, _mm512_srli_epi64(t2, 32));
  hi = _mm512_mask_add_epi64(hi, carry, hi, v_bcast(1ULL << 32));
}

/// Eight-lane reduce128 (Solinas folding, see fp64.hpp); output is the
/// canonical representative apart from the final conditional subtraction,
/// i.e. a redundant value in [0, 2^64).
inline __m512i v_reduce128_lazy(__m512i hi, __m512i lo) noexcept {
  const __m512i eps = v_bcast(kEpsilon);
  const __m512i hi_hi = _mm512_srli_epi64(hi, 32);
  const __m512i hi_lo = _mm512_and_si512(hi, v_bcast(0xFFFF'FFFFULL));
  // t0 = lo - hi_hi; a borrow's fix cannot borrow again (hi_hi < 2^32).
  __m512i t0 = _mm512_sub_epi64(lo, hi_hi);
  const __mmask8 b1 = _mm512_cmplt_epu64_mask(lo, hi_hi);
  t0 = _mm512_mask_sub_epi64(t0, b1, t0, eps);
  // t1 = hi_lo * eps = (hi_lo << 32) - hi_lo, exact (hi_lo < 2^32).
  const __m512i t1 = _mm512_sub_epi64(_mm512_slli_epi64(hi_lo, 32), hi_lo);
  __m512i t2 = _mm512_add_epi64(t0, t1);
  // A wrapped sum is < 2^64 - 2^33 + eps, so one fix suffices.
  const __mmask8 c1 = _mm512_cmplt_epu64_mask(t2, t1);
  return _mm512_mask_add_epi64(t2, c1, t2, eps);
}

inline __m512i v_mul_lazy(__m512i a, __m512i b) noexcept {
  __m512i hi;
  __m512i lo;
  v_mul_wide(a, b, hi, lo);
  return v_reduce128_lazy(hi, lo);
}

inline __m512i v_canonical(__m512i x) noexcept {
  const __m512i p = v_bcast(kModulus);
  const __mmask8 m = _mm512_cmpge_epu64_mask(x, p);
  return _mm512_mask_sub_epi64(x, m, x, p);
}

inline __m512i v_load(const Fp* ptr) noexcept {
  return _mm512_loadu_si512(static_cast<const void*>(ptr));
}

inline void v_store(Fp* ptr, __m512i x) noexcept {
  _mm512_storeu_si512(static_cast<void*>(ptr), x);
}

}  // namespace detail

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // HEMUL_FP_AVX512

// ---- array kernels --------------------------------------------------------
// All take redundant inputs and produce redundant outputs unless stated.

/// Broadcast-twiddle DIF butterfly: lo' = lo + hi, hi' = (lo - hi) * w over
/// `count` lanes, ONE twiddle for the whole pair. This is the vector-
/// parallel four-step form: the sub-transforms run over the ROW index of a
/// matrix, so each butterfly spans two contiguous rows and every level --
/// including the ones a monolithic sweep executes as scalar small-half
/// blocks -- is a full-width vector pass.
inline void dif_butterflies_bcast(Fp* lo, Fp* hi, Fp w, std::size_t count) noexcept {
  std::size_t k = 0;
#if HEMUL_FP_AVX512
  const __m512i wv = detail::v_bcast(w.value());
  for (; k + 8 <= count; k += 8) {
    const __m512i u = detail::v_load(lo + k);
    const __m512i v = detail::v_load(hi + k);
    detail::v_store(lo + k, detail::v_add_lazy(u, v));
    detail::v_store(hi + k, detail::v_mul_lazy(detail::v_sub_lazy(u, v), wv));
  }
#endif
  for (; k < count; ++k) {
    const u64 u = lo[k].value();
    const u64 v = hi[k].value();
    lo[k] = Fp::from_canonical(add_lazy(u, v));
    hi[k] = Fp::from_canonical(mul_lazy(sub_lazy(u, v), w.value()));
  }
}

/// Broadcast-twiddle DIT butterfly: t = hi * w, lo' = lo + t, hi' = lo - t.
inline void dit_butterflies_bcast(Fp* lo, Fp* hi, Fp w, std::size_t count) noexcept {
  std::size_t k = 0;
#if HEMUL_FP_AVX512
  const __m512i wv = detail::v_bcast(w.value());
  for (; k + 8 <= count; k += 8) {
    const __m512i u = detail::v_load(lo + k);
    const __m512i t = detail::v_mul_lazy(detail::v_load(hi + k), wv);
    detail::v_store(lo + k, detail::v_add_lazy(u, t));
    detail::v_store(hi + k, detail::v_sub_lazy(u, t));
  }
#endif
  for (; k < count; ++k) {
    const u64 t = mul_lazy(hi[k].value(), w.value());
    const u64 u = lo[k].value();
    lo[k] = Fp::from_canonical(add_lazy(u, t));
    hi[k] = Fp::from_canonical(sub_lazy(u, t));
  }
}

/// dst[i] = a[i] * b[i], canonical output. dst may alias a or b.
inline void pointwise_product(Fp* dst, const Fp* a, const Fp* b, std::size_t n) noexcept {
  std::size_t i = 0;
#if HEMUL_FP_AVX512
  for (; i + 8 <= n; i += 8) {
    detail::v_store(dst + i, detail::v_canonical(detail::v_mul_lazy(
                                 detail::v_load(a + i), detail::v_load(b + i))));
  }
#endif
  for (; i < n; ++i) dst[i] = Fp::from_canonical(mul_lazy(a[i].value(), b[i].value()));
}

/// a[i] *= b[i], canonical output (safe to hand to plain Fp arithmetic).
inline void pointwise_product_canonical(Fp* a, const Fp* b, std::size_t n) noexcept {
  std::size_t i = 0;
#if HEMUL_FP_AVX512
  for (; i + 8 <= n; i += 8) {
    detail::v_store(a + i, detail::v_canonical(detail::v_mul_lazy(
                               detail::v_load(a + i), detail::v_load(b + i))));
  }
#endif
  for (; i < n; ++i) a[i] *= b[i];
}

/// data[i] *= scale, canonical output (the inverse transform's 1/N pass).
inline void scale_canonical(Fp* data, Fp scale, std::size_t n) noexcept {
  std::size_t i = 0;
#if HEMUL_FP_AVX512
  const __m512i s = detail::v_bcast(scale.value());
  for (; i + 8 <= n; i += 8) {
    detail::v_store(data + i,
                    detail::v_canonical(detail::v_mul_lazy(detail::v_load(data + i), s)));
  }
#endif
  for (; i < n; ++i) {
    data[i] = Fp::from_canonical(canonical_u64(mul_lazy(data[i].value(), scale.value())));
  }
}

/// a[i] = a[i] + b[i] (mod p); redundant inputs AND outputs -- the spectrum-
/// domain accumulation primitive. Callers must canonicalize (or bound-track)
/// before handing the result to code expecting canonical coefficients.
inline void pointwise_add(Fp* a, const Fp* b, std::size_t n) noexcept {
  std::size_t i = 0;
#if HEMUL_FP_AVX512
  for (; i + 8 <= n; i += 8) {
    detail::v_store(a + i, detail::v_add_lazy(detail::v_load(a + i), detail::v_load(b + i)));
  }
#endif
  for (; i < n; ++i) a[i] = Fp::from_canonical(add_lazy(a[i].value(), b[i].value()));
}

/// a[i] = a[i] * b[i] (mod p); redundant inputs and outputs -- the interior
/// pointwise passes of the four-step transform (twiddle multiply, spectrum
/// product) compose with the lazy butterfly sweeps without paying a
/// canonicalization in between. a may alias b.
inline void pointwise_product_lazy(Fp* a, const Fp* b, std::size_t n) noexcept {
  std::size_t i = 0;
#if HEMUL_FP_AVX512
  for (; i + 8 <= n; i += 8) {
    detail::v_store(a + i, detail::v_mul_lazy(detail::v_load(a + i), detail::v_load(b + i)));
  }
#endif
  for (; i < n; ++i) a[i] = Fp::from_canonical(mul_lazy(a[i].value(), b[i].value()));
}

// ---- blocked transpose kernels --------------------------------------------
// The four-step NTT's corner-turns: dst (cols x rows) = transpose of src
// (rows x cols). Walking 8x8 blocks keeps both the gathered source columns
// and the scattered destination rows inside L1 regardless of the matrix
// size; the AVX-512 micro-kernel turns one block in 24 shuffles. The
// scalar path visits elements in the same block order, so both produce
// bit-identical results (values are moved, never rearithmetized).

namespace detail {

#if HEMUL_FP_AVX512
/// Transposes one 8x8 block of u64: dst[j * dst_stride + i] =
/// src[i * src_stride + j]. Stage 1 interleaves row pairs 64-bit-wise;
/// stages 2-3 shuffle 128-bit quadrants across registers.
inline void transpose_8x8(Fp* dst, std::size_t dst_stride, const Fp* src,
                          std::size_t src_stride) noexcept {
  __m512i r0 = v_load(src + 0 * src_stride);
  __m512i r1 = v_load(src + 1 * src_stride);
  __m512i r2 = v_load(src + 2 * src_stride);
  __m512i r3 = v_load(src + 3 * src_stride);
  __m512i r4 = v_load(src + 4 * src_stride);
  __m512i r5 = v_load(src + 5 * src_stride);
  __m512i r6 = v_load(src + 6 * src_stride);
  __m512i r7 = v_load(src + 7 * src_stride);

  const __m512i u0 = _mm512_unpacklo_epi64(r0, r1);
  const __m512i u1 = _mm512_unpackhi_epi64(r0, r1);
  const __m512i u2 = _mm512_unpacklo_epi64(r2, r3);
  const __m512i u3 = _mm512_unpackhi_epi64(r2, r3);
  const __m512i u4 = _mm512_unpacklo_epi64(r4, r5);
  const __m512i u5 = _mm512_unpackhi_epi64(r4, r5);
  const __m512i u6 = _mm512_unpacklo_epi64(r6, r7);
  const __m512i u7 = _mm512_unpackhi_epi64(r6, r7);

  const __m512i s0 = _mm512_shuffle_i64x2(u0, u2, 0x88);
  const __m512i s1 = _mm512_shuffle_i64x2(u1, u3, 0x88);
  const __m512i s2 = _mm512_shuffle_i64x2(u0, u2, 0xDD);
  const __m512i s3 = _mm512_shuffle_i64x2(u1, u3, 0xDD);
  const __m512i s4 = _mm512_shuffle_i64x2(u4, u6, 0x88);
  const __m512i s5 = _mm512_shuffle_i64x2(u5, u7, 0x88);
  const __m512i s6 = _mm512_shuffle_i64x2(u4, u6, 0xDD);
  const __m512i s7 = _mm512_shuffle_i64x2(u5, u7, 0xDD);

  v_store(dst + 0 * dst_stride, _mm512_shuffle_i64x2(s0, s4, 0x88));
  v_store(dst + 1 * dst_stride, _mm512_shuffle_i64x2(s1, s5, 0x88));
  v_store(dst + 2 * dst_stride, _mm512_shuffle_i64x2(s2, s6, 0x88));
  v_store(dst + 3 * dst_stride, _mm512_shuffle_i64x2(s3, s7, 0x88));
  v_store(dst + 4 * dst_stride, _mm512_shuffle_i64x2(s0, s4, 0xDD));
  v_store(dst + 5 * dst_stride, _mm512_shuffle_i64x2(s1, s5, 0xDD));
  v_store(dst + 6 * dst_stride, _mm512_shuffle_i64x2(s2, s6, 0xDD));
  v_store(dst + 7 * dst_stride, _mm512_shuffle_i64x2(s3, s7, 0xDD));
}
#endif  // HEMUL_FP_AVX512

}  // namespace detail

/// Blocked transpose: dst[j * rows + i] = src[i * cols + j], so dst
/// (cols x rows) is src (rows x cols) transposed. They must not overlap.
inline void transpose(Fp* dst, const Fp* src, std::size_t rows, std::size_t cols) noexcept {
  std::size_t j = 0;
#if HEMUL_FP_AVX512
  for (; j + 8 <= cols; j += 8) {
    std::size_t i = 0;
    for (; i + 8 <= rows; i += 8) {
      detail::transpose_8x8(dst + j * rows + i, rows, src + i * cols + j, cols);
    }
    for (; i < rows; ++i) {
      for (std::size_t jj = j; jj < j + 8; ++jj) dst[jj * rows + i] = src[i * cols + jj];
    }
  }
#endif
  for (; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) dst[j * rows + i] = src[i * cols + j];
  }
}

/// Canonicalizes a redundant array in place.
inline void canonicalize(Fp* data, std::size_t n) noexcept {
  std::size_t i = 0;
#if HEMUL_FP_AVX512
  for (; i + 8 <= n; i += 8) {
    detail::v_store(data + i, detail::v_canonical(detail::v_load(data + i)));
  }
#endif
  for (; i < n; ++i) data[i] = Fp::from_canonical(canonical_u64(data[i].value()));
}

}  // namespace hemul::fp
