#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"
#include "util/uint128.hpp"

namespace hemul::fhe {

/// How the word-level circuits (add / multiply / less_than / equals) are
/// lowered to XOR/AND gates.
///
///   kRippleCarry -- the classic serial chains: O(width) AND-depth, the
///     fewest gates. Right when the noise budget is ample and the
///     evaluator runs few lanes.
///   kCarrySave -- Wallace 3:2-compressor trees plus one Sklansky
///     parallel-prefix carry resolve: O(log width) AND-depth at a modest
///     gate overhead. Deep circuits clear the decryptability veto that
///     rejects their ripple form, and every wavefront carries more
///     independent ANDs for the scheduler to batch.
enum class LoweringStrategy : u8 {
  kRippleCarry = 0,
  kCarrySave = 1,
};

/// The one public lowering knob, threaded as a Graph-level default and
/// overridable per word-op call.
struct LoweringOptions {
  LoweringStrategy strategy = LoweringStrategy::kRippleCarry;

  friend bool operator==(const LoweringOptions&, const LoweringOptions&) = default;
};

/// Registry-style name of a strategy ("ripple", "carry-save").
[[nodiscard]] constexpr std::string_view lowering_strategy_name(
    LoweringStrategy strategy) noexcept {
  switch (strategy) {
    case LoweringStrategy::kRippleCarry: return "ripple";
    case LoweringStrategy::kCarrySave: return "carry-save";
  }
  return "?";
}

/// Inverse of lowering_strategy_name; throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] inline LoweringStrategy lowering_strategy_from_name(std::string_view name) {
  for (const LoweringStrategy strategy :
       {LoweringStrategy::kRippleCarry, LoweringStrategy::kCarrySave}) {
    if (name == lowering_strategy_name(strategy)) return strategy;
  }
  throw std::invalid_argument("unknown lowering strategy: " + std::string(name) +
                              " (expected ripple or carry-save)");
}

/// Word ops the depth/noise predictors can be asked about.
enum class WordOp : u8 { kAnd, kAdd, kEquals, kMultiply, kMux, kLessThan };

namespace lowering {

/// The lowering templates are written once against a *gate builder* and
/// instantiated for every consumer, so the gate structure of a strategy
/// cannot diverge between them:
///   - fhe::Graph          (WireType = Wire)     -- lazy recording
///   - DepthSim / NoiseSim in noise.cpp          -- analytic prediction
///   - PlainBuilder in the tests                 -- plaintext reference
///   - EagerGates in the tests and benches       -- gate-by-gate ciphertext
///                                                  reference
/// A builder provides:
///   using WireType = ...;
///   WireType gate_xor(const WireType&, const WireType&);
///   WireType gate_and(const WireType&, const WireType&);
template <class B>
using WireOf = typename B::WireType;

template <class B>
struct Compressed {
  WireOf<B> sum;
  WireOf<B> carry;
};

template <class B>
struct AddOut {
  std::vector<WireOf<B>> sum;
  WireOf<B> carry_out;
};

/// 3:2 compressor (full adder): sum = a^b^c, carry = (a^b)c ^ ab.
/// Two AND gates, one level of AND-depth on the carry.
template <class B>
Compressed<B> compress_3_2(B& g, const WireOf<B>& a, const WireOf<B>& b,
                           const WireOf<B>& c) {
  const WireOf<B> axb = g.gate_xor(a, b);
  return {g.gate_xor(axb, c), g.gate_xor(g.gate_and(axb, c), g.gate_and(a, b))};
}

/// 2:2 compressor (half adder): sum = a^b, carry = ab. One AND gate.
template <class B>
Compressed<B> compress_2_2(B& g, const WireOf<B>& a, const WireOf<B>& b) {
  return {g.gate_xor(a, b), g.gate_and(a, b)};
}

/// 2-of-3 majority, ab ^ bc ^ ca -- the borrow step of the ripple
/// comparator (three AND gates, shared via CSE where pairs recur).
template <class B>
WireOf<B> majority(B& g, const WireOf<B>& a, const WireOf<B>& b, const WireOf<B>& c) {
  const WireOf<B> ab = g.gate_and(a, b);
  const WireOf<B> bc = g.gate_and(b, c);
  const WireOf<B> ca = g.gate_and(c, a);
  return g.gate_xor(g.gate_xor(ab, bc), ca);
}

/// Ripple-carry addition: bit i of the sum lands at AND-depth i+1, two
/// AND gates per bit.
template <class B>
AddOut<B> ripple_add(B& g, std::span<const WireOf<B>> a, std::span<const WireOf<B>> b,
                     const WireOf<B>& zero) {
  AddOut<B> result;
  result.sum.reserve(a.size());
  WireOf<B> carry = zero;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // sum_i = a ^ b ^ c; carry' = (a^b)c ^ ab (two AND nodes).
    const WireOf<B> axb = g.gate_xor(a[i], b[i]);
    result.sum.push_back(g.gate_xor(axb, carry));
    carry = g.gate_xor(g.gate_and(axb, carry), g.gate_and(a[i], b[i]));
  }
  result.carry_out = carry;
  return result;
}

/// Sklansky parallel-prefix addition with a zero carry-in: per-bit
/// generate g_i = a_i b_i and propagate p_i = a_i ^ b_i, then ceil(log2 w)
/// combine rounds (G, P) o (G', P') = (G ^ P G', P P'), so every sum bit
/// resolves at AND-depth 1 + ceil(log2 w) instead of depth i+1.
///
/// G and P G' are never 1 together (a range that propagates everywhere
/// generates nowhere), so the boolean OR of the carry recurrence is an
/// XOR -- exactly the gate the scheme evaluates for free.
template <class B>
AddOut<B> prefix_add(B& g, std::span<const WireOf<B>> a, std::span<const WireOf<B>> b) {
  const std::size_t w = a.size();
  HEMUL_CHECK_MSG(w > 0, "prefix adder needs at least one bit");
  std::vector<WireOf<B>> gen, prop;
  gen.reserve(w);
  prop.reserve(w);
  for (std::size_t i = 0; i < w; ++i) {
    gen.push_back(g.gate_and(a[i], b[i]));
    prop.push_back(g.gate_xor(a[i], b[i]));
  }
  const std::vector<WireOf<B>> psum = prop;  // pre-prefix propagate = raw sum bits

  for (std::size_t k = 0; (std::size_t{1} << k) < w; ++k) {
    // Round k folds block m = [.., i - 2^k] into every i with bit k set;
    // sources have bit k clear, so in-place updates never alias.
    for (std::size_t i = 0; i < w; ++i) {
      if (((i >> k) & 1u) == 0) continue;
      const std::size_t m = ((i >> k) << k) - 1;
      gen[i] = g.gate_xor(gen[i], g.gate_and(prop[i], gen[m]));
      prop[i] = g.gate_and(prop[i], prop[m]);
    }
  }

  AddOut<B> result;
  result.sum.reserve(w);
  result.sum.push_back(psum[0]);  // carry-in is zero
  for (std::size_t i = 1; i < w; ++i) {
    result.sum.push_back(g.gate_xor(psum[i], gen[i - 1]));
  }
  result.carry_out = gen[w - 1];
  return result;
}

/// Wallace column reduction: compress the weighted-bit matrix with 3:2
/// (and leftover 2:2) compressors until every column is at most two bits
/// high, then resolve the two survivor rows with one prefix adder. Each
/// layer costs one AND level, so the whole reduction is O(log height).
/// `columns[c]` holds the bits of weight 2^c; entries past out_width - 1
/// would overflow the result and must not exist.
template <class B>
std::vector<WireOf<B>> wallace_reduce(B& g,
                                      std::vector<std::vector<WireOf<B>>> columns,
                                      const WireOf<B>& zero) {
  const std::size_t out_width = columns.size();
  HEMUL_CHECK_MSG(out_width > 0, "wallace reduction needs at least one column");

  const auto max_height = [&columns] {
    std::size_t h = 0;
    for (const auto& col : columns) h = h > col.size() ? h : col.size();
    return h;
  };
  unsigned layers = 0;
  while (max_height() > 2) {
    HEMUL_CHECK_MSG(++layers < 64, "wallace reduction failed to converge");
    std::vector<std::vector<WireOf<B>>> next(out_width);
    for (std::size_t c = 0; c < out_width; ++c) {
      const auto& col = columns[c];
      std::size_t i = 0;
      if (col.size() >= 3) {
        for (; col.size() - i >= 3; i += 3) {
          const Compressed<B> fa = compress_3_2(g, col[i], col[i + 1], col[i + 2]);
          next[c].push_back(fa.sum);
          if (c + 1 < out_width) next[c + 1].push_back(fa.carry);
        }
        if (col.size() - i == 2) {
          const Compressed<B> ha = compress_2_2(g, col[i], col[i + 1]);
          i += 2;
          next[c].push_back(ha.sum);
          if (c + 1 < out_width) next[c + 1].push_back(ha.carry);
        }
      }
      // Columns already <= 2 high (and a leftover single bit) pass through.
      for (; i < col.size(); ++i) next[c].push_back(col[i]);
    }
    columns = std::move(next);
  }

  std::vector<WireOf<B>> row0, row1;
  row0.reserve(out_width);
  row1.reserve(out_width);
  for (const auto& col : columns) {
    row0.push_back(col.empty() ? zero : col[0]);
    row1.push_back(col.size() > 1 ? col[1] : zero);
  }
  return prefix_add<B>(g, row0, row1).sum;  // carry_out dead: out_width fits
}

// --- strategy-dispatching word ops ----------------------------------------

template <class B>
AddOut<B> lower_add(B& g, std::span<const WireOf<B>> a, std::span<const WireOf<B>> b,
                    const WireOf<B>& zero, LoweringOptions options) {
  HEMUL_CHECK_MSG(a.size() == b.size(), "adder inputs must have equal width");
  if (options.strategy == LoweringStrategy::kCarrySave) return prefix_add<B>(g, a, b);
  return ripple_add<B>(g, a, b, zero);
}

template <class B>
WireOf<B> lower_equals(B& g, std::span<const WireOf<B>> a, std::span<const WireOf<B>> b,
                       const WireOf<B>& one, LoweringOptions options) {
  HEMUL_CHECK_MSG(a.size() == b.size(), "comparator inputs must have equal width");
  HEMUL_CHECK_MSG(!a.empty(), "comparator needs at least one bit");
  if (options.strategy == LoweringStrategy::kCarrySave) {
    // XNOR each pair, then AND-reduce as a balanced tree: ceil(log2 w)
    // levels instead of w.
    std::vector<WireOf<B>> terms;
    terms.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      terms.push_back(g.gate_xor(g.gate_xor(a[i], b[i]), one));
    }
    while (terms.size() > 1) {
      std::vector<WireOf<B>> next;
      next.reserve((terms.size() + 1) / 2);
      for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
        next.push_back(g.gate_and(terms[i], terms[i + 1]));
      }
      if (terms.size() % 2 == 1) next.push_back(terms.back());
      terms = std::move(next);
    }
    return terms[0];
  }
  WireOf<B> acc = one;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // XNOR = a ^ b ^ 1, then AND-accumulate.
    const WireOf<B> same = g.gate_xor(g.gate_xor(a[i], b[i]), one);
    acc = g.gate_and(acc, same);
  }
  return acc;
}

/// Schoolbook product: the partial-product rows (rows[j][i] = a[i] AND
/// b[j], weight 2^(i+j)) accumulated into the 2w-bit product by ripple row
/// adders or a Wallace tree.
template <class B>
std::vector<WireOf<B>> lower_multiply(B& g, std::span<const WireOf<B>> a,
                                      std::span<const WireOf<B>> b, const WireOf<B>& zero,
                                      LoweringOptions options) {
  HEMUL_CHECK_MSG(!a.empty() && !b.empty(), "multiplier needs nonempty inputs");
  // The partial-product matrix: every and(a[i], b[j]) is depth 1 -- one
  // wavefront -- regardless of how the rows are accumulated.
  std::vector<std::vector<WireOf<B>>> rows(b.size());
  for (std::size_t j = 0; j < b.size(); ++j) {
    rows[j].reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) rows[j].push_back(g.gate_and(a[i], b[j]));
  }
  const std::size_t out_width = a.size() + b.size();
  if (options.strategy == LoweringStrategy::kCarrySave) {
    std::vector<std::vector<WireOf<B>>> columns(out_width);
    for (std::size_t j = 0; j < rows.size(); ++j) {
      for (std::size_t i = 0; i < rows[j].size(); ++i) columns[i + j].push_back(rows[j][i]);
    }
    return wallace_reduce<B>(g, std::move(columns), zero);
  }
  std::vector<WireOf<B>> acc(out_width, zero);
  for (std::size_t j = 0; j < rows.size(); ++j) {
    // Row j: (a AND b[j]) shifted by j, ripple-added into the accumulator.
    std::vector<WireOf<B>> row(out_width, zero);
    for (std::size_t i = 0; i < rows[j].size(); ++i) row[i + j] = rows[j][i];
    AddOut<B> added = ripple_add<B>(g, acc, row, zero);
    acc = std::move(added.sum);  // carry_out is dead: out_width fits the product
  }
  return acc;
}

template <class B>
std::vector<WireOf<B>> lower_mux(B& g, const WireOf<B>& select,
                                 std::span<const WireOf<B>> when_true,
                                 std::span<const WireOf<B>> when_false) {
  HEMUL_CHECK_MSG(when_true.size() == when_false.size(),
                  "mux inputs must have equal width");
  // out = when_false ^ sel(when_true ^ when_false): one AND per bit at one
  // shared depth -- already a single wavefront under either strategy.
  std::vector<WireOf<B>> out;
  out.reserve(when_true.size());
  for (std::size_t i = 0; i < when_true.size(); ++i) {
    out.push_back(g.gate_xor(
        when_false[i], g.gate_and(select, g.gate_xor(when_true[i], when_false[i]))));
  }
  return out;
}

template <class B>
WireOf<B> lower_less_than(B& g, std::span<const WireOf<B>> a,
                          std::span<const WireOf<B>> b, const WireOf<B>& zero,
                          const WireOf<B>& one, LoweringOptions options) {
  HEMUL_CHECK_MSG(a.size() == b.size(), "comparator inputs must have equal width");
  HEMUL_CHECK_MSG(!a.empty(), "comparator needs at least one bit");
  if (options.strategy == LoweringStrategy::kCarrySave) {
    // Borrow-save: per-bit borrow-generate g_i = (not a_i) b_i and
    // borrow-propagate p_i = xnor(a_i, b_i) obey the same prefix algebra
    // as the adder's carry, so one Sklansky pass resolves the MSB borrow
    // (a < b) at AND-depth 1 + ceil(log2 w).
    const std::size_t w = a.size();
    std::vector<WireOf<B>> gen, prop;
    gen.reserve(w);
    prop.reserve(w);
    for (std::size_t i = 0; i < w; ++i) {
      gen.push_back(g.gate_and(g.gate_xor(a[i], one), b[i]));
      prop.push_back(g.gate_xor(g.gate_xor(a[i], b[i]), one));
    }
    for (std::size_t k = 0; (std::size_t{1} << k) < w; ++k) {
      for (std::size_t i = 0; i < w; ++i) {
        if (((i >> k) & 1u) == 0) continue;
        const std::size_t m = ((i >> k) << k) - 1;
        gen[i] = g.gate_xor(gen[i], g.gate_and(prop[i], gen[m]));
        prop[i] = g.gate_and(prop[i], prop[m]);
      }
    }
    (void)zero;  // borrow-in is structurally zero
    return gen[w - 1];  // borrow out of the MSB <=> a < b
  }
  // Ripple borrow of a - b, LSB first: borrow' = maj(not a_i, b_i, borrow).
  WireOf<B> borrow = zero;
  for (std::size_t i = 0; i < a.size(); ++i) {
    borrow = majority<B>(g, g.gate_xor(a[i], one), b[i], borrow);
  }
  return borrow;
}

}  // namespace lowering
}  // namespace hemul::fhe
