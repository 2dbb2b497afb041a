#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "fhe/dghv.hpp"
#include "fhe/lowering.hpp"

namespace hemul::fhe {

/// Handle to one node of a Graph. Wires are cheap value types; they are
/// only meaningful against the graph that issued them.
struct Wire {
  static constexpr u32 kInvalid = 0xFFFFFFFFu;
  u32 id = kInvalid;

  [[nodiscard]] bool valid() const noexcept { return id != kInvalid; }
  friend bool operator==(Wire a, Wire b) noexcept { return a.id == b.id; }
};

/// Node kind of the circuit IR. OR/NOT/MAJ and the word-level circuits are
/// lowered to these two gate primitives at record time (XOR is a ciphertext
/// addition, AND is one ultralong multiplication on the accelerator).
enum class GateOp : unsigned char { kInput, kXor, kAnd };

/// A lazy homomorphic circuit: gate calls *record* nodes instead of
/// multiplying immediately, separating circuit description from circuit
/// execution (the microcoded-accelerator layering of Medha/FAB). The
/// recorded DAG is
///   - hash-consed: structurally identical gates (AND/XOR are commutative)
///     share one node, so e.g. the three products of a repeated gate_maj
///     are recorded once;
///   - noise-annotated: every wire carries the analytic NoiseModel estimate
///     of its residue, so decryptability is known *before* execution;
///   - leveled: every wire knows its multiplicative depth, which the
///     Evaluator uses to batch independent AND gates into wavefronts.
///
/// Word-level builders run the shared lowering templates (fhe/lowering.hpp),
/// so a graph records exactly the gates the noise predictor and the
/// plaintext/eager test references see.
class Graph {
 public:
  /// Gate-builder concept hook: the lowering templates record into a Graph
  /// directly (see fhe/lowering.hpp).
  using WireType = Wire;

  /// Circuits over ciphertexts of `scheme` (non-owning; the key context
  /// must outlive the graph and every evaluation of it). `lowering` is the
  /// default strategy of the word-level builders, overridable per call.
  explicit Graph(const EvalKey& scheme, LoweringOptions lowering = {})
      : scheme_(&scheme), lowering_(lowering) {}

  /// Replaces the default lowering of subsequent word-level builder calls.
  void set_lowering(LoweringOptions lowering) noexcept { lowering_ = lowering; }

  [[nodiscard]] LoweringOptions lowering() const noexcept { return lowering_; }

  // --- leaves --------------------------------------------------------------

  /// A circuit input holding an encrypted bit.
  Wire input(Ciphertext c);

  /// One input wire per bit of an encrypted integer (little-endian).
  std::vector<Wire> inputs(std::span<const Ciphertext> bits);

  // --- gates ---------------------------------------------------------------

  Wire gate_xor(Wire a, Wire b);
  Wire gate_and(Wire a, Wire b);
  /// OR via a ^ b ^ ab (one AND node).
  Wire gate_or(Wire a, Wire b);
  /// NOT via XOR with an encryption of 1.
  Wire gate_not(Wire a, Wire one);
  /// 2-of-3 majority: ab ^ bc ^ ca (three AND nodes, shared via CSE when
  /// the same pairs recur, e.g. across comparator stages).
  Wire gate_maj(Wire a, Wire b, Wire c);

  // --- word-level circuits -------------------------------------------------

  struct AddResult {
    std::vector<Wire> sum;  ///< same width as the inputs
    Wire carry_out;         ///< the final carry
  };

  /// Addition. Ripple-carry spends 2 AND nodes per bit with bit i at depth
  /// i+1; carry-save resolves every bit through one Sklansky prefix pass
  /// at depth 1 + ceil(log2 w). The one-argument forms use the graph's
  /// default LoweringOptions; pass explicit options to override per call.
  [[nodiscard]] AddResult add(std::span<const Wire> a, std::span<const Wire> b, Wire zero);
  [[nodiscard]] AddResult add(std::span<const Wire> a, std::span<const Wire> b, Wire zero,
                              LoweringOptions options);

  /// Equality comparator: XNOR of all bit pairs, AND-accumulated serially
  /// (ripple) or as a balanced tree (carry-save).
  [[nodiscard]] Wire equals(std::span<const Wire> a, std::span<const Wire> b, Wire one);
  [[nodiscard]] Wire equals(std::span<const Wire> a, std::span<const Wire> b, Wire one,
                            LoweringOptions options);

  /// Schoolbook product (2w-bit result). All w^2 partial-product AND gates
  /// land at depth 1 -- one wavefront -- however the rows are accumulated:
  /// ripple-carry row adders (depth ~2w; dead carry chains removed by the
  /// Evaluator's dead-node pass) or a Wallace 3:2-compressor tree plus one
  /// prefix resolve (depth ~log w).
  [[nodiscard]] std::vector<Wire> multiply(std::span<const Wire> a,
                                           std::span<const Wire> b, Wire zero);
  [[nodiscard]] std::vector<Wire> multiply(std::span<const Wire> a,
                                           std::span<const Wire> b, Wire zero,
                                           LoweringOptions options);

  /// Bitwise select: out = when_false ^ sel * (when_true ^ when_false)
  /// (one AND per bit, all at the same depth -- a single wavefront under
  /// either strategy).
  [[nodiscard]] std::vector<Wire> mux(Wire select, std::span<const Wire> when_true,
                                      std::span<const Wire> when_false);

  /// Unsigned a < b: ripple borrow chain borrow' = maj(not a_i, b_i,
  /// borrow) (3 AND nodes per bit, depth w) or a borrow-save prefix pass
  /// (depth 1 + ceil(log2 w)).
  [[nodiscard]] Wire less_than(std::span<const Wire> a, std::span<const Wire> b,
                               Wire zero, Wire one);
  [[nodiscard]] Wire less_than(std::span<const Wire> a, std::span<const Wire> b,
                               Wire zero, Wire one, LoweringOptions options);

  // --- introspection -------------------------------------------------------

  /// Nodes recorded (inputs + gates, after CSE).
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// AND nodes recorded (accelerator multiplications if all were live).
  [[nodiscard]] u64 and_gates() const noexcept { return and_gates_; }

  /// Multiplicative depth of a wire (inputs are 0; an AND is one deeper
  /// than its deepest operand; XOR does not deepen).
  [[nodiscard]] unsigned level(Wire w) const;

  /// Analytic NoiseModel estimate of the wire's residue, in bits.
  [[nodiscard]] double predicted_noise_bits(Wire w) const;

  /// Whether the model predicts the wire still decrypts correctly.
  [[nodiscard]] bool predicted_decryptable(Wire w) const;

  /// Node kind of a wire (serialization / tooling introspection).
  [[nodiscard]] GateOp op(Wire w) const;

  /// Operand wires of a gate node (invalid wires for inputs).
  [[nodiscard]] std::pair<Wire, Wire> operands(Wire w) const;

  /// The ciphertext held by an input wire (op(w) must be kInput).
  [[nodiscard]] const Ciphertext& input_value(Wire w) const;

  [[nodiscard]] const EvalKey& scheme() const noexcept { return *scheme_; }

 private:
  friend class Evaluator;

  struct Node {
    GateOp op = GateOp::kInput;
    u32 a = Wire::kInvalid;   ///< operand node ids (unused for inputs)
    u32 b = Wire::kInvalid;
    unsigned level = 0;       ///< multiplicative depth
    double noise_bits = 0.0;  ///< analytic residue estimate
    Ciphertext value;         ///< inputs only
  };

  [[nodiscard]] const Node& node(Wire w) const;
  Wire record(GateOp op, Wire a, Wire b);

  const EvalKey* scheme_;
  LoweringOptions lowering_;
  std::vector<Node> nodes_;
  std::unordered_map<u64, u32> cse_;  ///< (op, a, b) -> node id
  u64 and_gates_ = 0;
};

}  // namespace hemul::fhe
