#pragma once

#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/backend.hpp"
#include "fhe/graph.hpp"
#include "ssa/resident.hpp"

namespace hemul::core {
class Scheduler;
}

namespace hemul::fhe {

/// Transform accounting of one spectrum-resident evaluation. All counters
/// are incremented on the coordinator thread when results are installed, so
/// they are deterministic regardless of scheduler worker count.
struct ResidencyStats {
  u64 forward_transforms = 0;  ///< operand spectra entered (one per distinct wire)
  u64 inverse_transforms = 0;  ///< wires materialized out of the domain
  u64 pointwise_products = 0;  ///< AND gates executed as pointwise products
  u64 domain_additions = 0;    ///< XOR folds executed as pointwise additions
  u64 spectra_evicted = 0;     ///< resident entries dropped after last use
  u64 resident_peak = 0;       ///< high-water mark of simultaneously resident spectra
  u64 bound_flushes = 0;       ///< XOR folds demoted to eager by the fold cap
  u64 max_fold_products = 0;   ///< most AND products one resident wire sums
  u64 transform_size = 0;      ///< points of every resident transform (planned)
  u64 coeff_bits = 0;          ///< m: bits per packed coefficient (planned)

  /// Transforms actually executed; the eager path pays ~3 per AND gate.
  [[nodiscard]] u64 transforms_executed() const noexcept {
    return forward_transforms + inverse_transforms;
  }
};

/// Execution statistics of one wavefront (all independent AND gates at one
/// multiplicative depth, issued as a single batch). On the scheduler path
/// these are before/after deltas of the scheduler-wide counters, so they
/// are accurate only when the scheduler is not shared concurrently during
/// the evaluation (pass no report to skip collecting them entirely).
struct WavefrontStats {
  unsigned level = 0;  ///< multiplicative depth of the wavefront
  u64 and_gates = 0;   ///< gates batched at this depth
  /// Engine-path transform accounting (multiply_batch): spectrum-cache
  /// hits, forward/inverse transforms, modeled cycles for "hw".
  backend::BatchStats batch;
  unsigned lanes_used = 0;  ///< PE lanes that executed >= 1 gate (scheduler path)
  double wall_ms = 0.0;     ///< wall-clock of the wavefront
  // Spectrum-residency accounting (filled when the evaluation ran
  // resident; deterministic deltas of the coordinator-side counters).
  u64 spectra_cached = 0;      ///< forward transforms entered at this level
  u64 inverses_paid = 0;       ///< wires materialized out of the domain
  u64 folds = 0;               ///< XOR gates swept as pointwise additions
  i64 transforms_avoided = 0;  ///< 3 * and_gates - transforms executed
};

/// End-to-end report of one Evaluator::evaluate call.
struct EvalReport {
  std::size_t nodes = 0;       ///< nodes recorded in the graph
  std::size_t live_nodes = 0;  ///< reachable from the requested outputs
  std::size_t dead_nodes = 0;  ///< eliminated before execution
  u64 and_gates = 0;           ///< multiplications actually executed
  u64 xor_gates = 0;           ///< ciphertext additions executed
  unsigned levels = 0;         ///< multiplicative depth (= wavefront count)
  double max_noise_bits = 0.0;  ///< worst predicted residue over live wires
  bool decryptable = false;     ///< model verdict for every live wire
  bool spectrum_resident = false;  ///< wires stayed in the NTT domain
  ResidencyStats residency;        ///< totals (meaningful when resident)
  std::vector<WavefrontStats> wavefronts;

  [[nodiscard]] std::size_t wavefront_count() const noexcept { return wavefronts.size(); }
};

/// Thrown by the pre-execution check when the analytic NoiseModel predicts
/// that some live wire no longer decrypts -- *before* any multiplication
/// is spent on a computation whose result would be garbage.
class NoiseBudgetError : public std::runtime_error {
 public:
  NoiseBudgetError(const std::string& message, Wire wire, unsigned level,
                   double noise_bits, double budget_bits)
      : std::runtime_error(message),
        wire(wire),
        level(level),
        noise_bits(noise_bits),
        budget_bits(budget_bits) {}

  Wire wire;          ///< first offending wire (deepest predicted noise)
  unsigned level;     ///< its multiplicative depth
  double noise_bits;  ///< predicted residue bits
  double budget_bits; ///< decryptability bound (eta - 2)
};

struct EvalOptions {
  /// Run the NoiseModel decryptability check over every live wire before
  /// executing anything; throw NoiseBudgetError on the first violation.
  /// Disable to reproduce eager semantics (compute first, fail at
  /// decryption) -- e.g. for parity benchmarks past the noise budget.
  bool check_noise = true;
};

/// The stepping core of wavefront evaluation, shared by every executor of
/// a recorded Graph: dead-node elimination from the requested outputs,
/// per-depth wavefront grouping, the pre-execution noise audit, XOR/input
/// sweeps and AND-product completion (noise annotation of products already
/// reduced modulo x0). step_levels() advances instances one level at a
/// time: fhe::Evaluator steps one instance to completion in a single call;
/// core::Service steps many per coalesced round. Keeping the rules here is
/// what guarantees served results stay bit-exact against in-process
/// evaluation.
///
/// Eager protocol per level L = 1..max_level(): multiply each gate_job()
/// of wavefront(L) on any engine, reduce the product with `% modulus()`
/// where it was computed, hand it back through apply_product(), then
/// sweep_linear(L). Level 0 (inputs and depth-0 XORs) is swept in the
/// constructor.
class EvalState {
 public:
  /// Validates the output wires, eliminates dead nodes, levels the live
  /// AND gates into wavefronts and sweeps level 0. No multiplication
  /// happens here.
  EvalState(const Graph& graph, std::span<const Wire> outputs);

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  // --- audit results (available before any execution) ---------------------
  [[nodiscard]] unsigned max_level() const noexcept { return max_level_; }
  [[nodiscard]] std::size_t live_nodes() const noexcept { return live_count_; }
  [[nodiscard]] u64 live_xor_gates() const noexcept { return live_xor_; }
  [[nodiscard]] double max_noise_bits() const noexcept { return max_noise_; }
  /// The live wire with the worst predicted residue.
  [[nodiscard]] Wire worst_wire() const noexcept { return Wire{worst_wire_}; }
  /// NoiseModel verdict over every live wire.
  [[nodiscard]] bool decryptable() const;

  // --- stepping ------------------------------------------------------------
  /// Live AND gates at one multiplicative depth (node ids into graph()).
  [[nodiscard]] const std::vector<u32>& wavefront(unsigned level) const;
  /// The operand pair of a wavefront gate, materialized for an engine.
  [[nodiscard]] backend::MulJob gate_job(u32 id) const;
  /// The scheme's public modulus x0, which every installed value is
  /// reduced by.
  [[nodiscard]] const bigint::BigUInt& modulus() const noexcept;
  /// Completes gate `id` with its product already reduced modulo x0
  /// (checked): installs it with the analytic noise estimate. No
  /// multiplication or division happens here.
  void apply_product(u32 id, bigint::BigUInt product);
  /// Evaluates the live inputs/XOR additions at one depth (call after the
  /// level's AND products are applied; the constructor sweeps level 0).
  void sweep_linear(unsigned level);

  /// One ciphertext per requested output wire, in order. Valid once every
  /// level has been stepped.
  [[nodiscard]] std::vector<Ciphertext> outputs() const;

  // --- spectrum-resident stepping ------------------------------------------
  // Opt-in alternative protocol per level L (engines that speak spectrum
  // handles only -- SsaBackend / "ssa" scheduler lanes; Lanes::plan()
  // enables it):
  //   1. forward every wire of spectrum_plan(L), install_operand_spectrum();
  //   2. pointwise-multiply each wavefront gate's operand spectra,
  //      install_product();
  //   3. fold_linear(L): XOR gates over in-domain products become pointwise
  //      spectrum additions (lazy coefficients, bound-tracked);
  //   4. materialize every wire of materialize_plan(L) (one inverse each),
  //      reduce it modulo x0, apply_materialized();
  //   5. sweep_linear(L) for the remaining eager XORs;
  //   6. evict_spent_spectra(L).
  // Results are bit-exact against the eager protocol: spectrum sums stand
  // for sums of the same raw products, reduced by the same x0 at
  // materialization ((a mod x0) + (b mod x0) == a + b (mod x0)).

  /// Plans residency: decides per wire whether it stays in the spectrum
  /// domain. A static bound analysis counts the AND products each XOR fold
  /// sums; folds over the cap, SsaParams::for_bits(bits,
  /// kResidentHeadroomBits).max_products() for x0's bit length, are demoted
  /// to eager and counted as bound_flushes. The spectra then run at the
  /// shortest exact geometry for the plan's largest fold k,
  /// SsaParams::for_products(bits, k): 65,536 points at paper size when no
  /// fold sums two products. Lanes::plan() calls this.
  void enable_residency();
  /// The same plan at a fixed geometry, capped at params.max_products().
  /// At for_bits(bits, kResidentHeadroomBits) it makes the fold set
  /// enable_residency() makes, on longer transforms.
  void enable_residency(const ssa::SsaParams& params);
  [[nodiscard]] bool residency_enabled() const noexcept { return residency_; }
  [[nodiscard]] const ssa::SsaParams& spectrum_params() const noexcept { return params_; }

  /// The materialized value of a wire (for forward transforms).
  [[nodiscard]] const bigint::BigUInt& wire_value(u32 id) const;

  /// Distinct operand wires of wavefront(level) gates that still need a
  /// forward transform (ascending wire id; deterministic).
  [[nodiscard]] std::vector<u32> spectrum_plan(unsigned level) const;
  void install_operand_spectrum(u32 wire, ssa::SpectrumHandle spectrum);
  [[nodiscard]] ssa::SpectrumHandle operand_spectrum(u32 wire) const;

  /// Installs the pointwise product spectrum of wavefront gate `id`.
  void install_product(u32 id, ssa::SpectrumHandle spectrum);

  /// Sweeps the level's foldable XOR gates as pointwise spectrum additions
  /// (coordinator-side; a fold is one O(N) vector addition).
  void fold_linear(unsigned level);

  /// Wires of this level whose values are consumed outside the spectrum
  /// domain (outputs, AND operands, eager-XOR operands) -- one inverse
  /// transform each (ascending wire id; deterministic).
  [[nodiscard]] std::vector<u32> materialize_plan(unsigned level) const;

  /// The product/sum spectrum standing for wire `id`.
  [[nodiscard]] ssa::SpectrumHandle wire_spectrum(u32 id) const;

  /// Completes a materialization with the integer the spectrum stood for,
  /// already reduced modulo x0 (checked): installs it with the analytic
  /// noise estimate.
  void apply_materialized(u32 id, bigint::BigUInt value);

  /// Drops every resident spectrum whose last consumer was this level
  /// (single-use operands leave after the wavefront that consumed them).
  void evict_spent_spectra(unsigned level);

  [[nodiscard]] const ResidencyStats& residency_stats() const noexcept { return rstats_; }

 private:
  /// The fold plan under `fold_cap` products per wire; returns the
  /// largest fold it keeps (at least 1).
  u64 plan_folds(u64 fold_cap);
  void set_geometry(const ssa::SsaParams& params, u64 max_fold_products);
  [[nodiscard]] static u64 spectrum_key(u32 wire, unsigned kind) noexcept;
  [[nodiscard]] const ssa::SpectrumHandle* find_spectrum(u32 wire, unsigned kind) const;
  void publish(u32 wire, unsigned kind, ssa::SpectrumHandle spectrum);
  void evict(u32 wire, unsigned kind);

  const Graph* graph_;
  std::vector<Wire> output_wires_;
  std::vector<char> live_;
  std::vector<std::vector<u32>> wavefronts_;
  std::vector<Ciphertext> values_;
  std::size_t live_count_ = 0;
  u64 live_xor_ = 0;
  unsigned max_level_ = 0;
  double max_noise_ = 0.0;
  u32 worst_wire_ = Wire::kInvalid;

  // Spectrum residency (set up by enable_residency).
  bool residency_ = false;
  ssa::SsaParams params_;
  /// This evaluation's resident wire spectra, keyed by spectrum_key().
  std::unordered_map<u64, ssa::SpectrumHandle> spectra_;
  std::vector<char> folded_;       ///< XOR swept in the spectrum domain
  std::vector<char> needs_value_;  ///< wire consumed outside the domain
  std::vector<std::vector<u32>> evict_operand_;   ///< kind-0 eviction per level
  std::vector<std::vector<u32>> evict_spectrum_;  ///< kind-1 eviction per level
  ResidencyStats rstats_;
};

/// Where step_levels() runs its lane jobs: the PE lanes of a multi-PE
/// core::Scheduler, or one engine inline on the calling thread. This is
/// also the one place the residency decision is made: wires stay in the
/// NTT domain iff every job target speaks spectrum handles -- all
/// scheduler lanes are "ssa", or the engine is a backend::SsaBackend. Any
/// other engine (hw model, classical bigint, injected test backends) runs
/// the eager protocol: the hw model needs real operands, and a resident
/// spectrum is an fp vector with a coefficient bound.
class Lanes {
 public:
  /// Jobs run on the scheduler's lanes (non-owning; must outlive this).
  explicit Lanes(core::Scheduler& scheduler);
  /// Jobs run inline on `engine`, on the calling thread.
  explicit Lanes(std::shared_ptr<backend::MultiplierBackend> engine);

  [[nodiscard]] core::Scheduler* scheduler() const noexcept { return scheduler_; }
  [[nodiscard]] backend::MultiplierBackend* engine() const noexcept { return engine_.get(); }

  /// Enables residency on `state` (its geometry fitted to its own fold
  /// plan) when the lanes speak spectra; leaves it on the eager protocol
  /// otherwise.
  void plan(EvalState& state) const;

 private:
  core::Scheduler* scheduler_ = nullptr;
  std::shared_ptr<backend::MultiplierBackend> engine_;
  bool resident_ = false;
};

/// One participant of step_levels(): a state and the level it executes.
struct LevelStep {
  EvalState* state = nullptr;
  unsigned level = 0;
  /// First lane error of this step. A faulted state receives no further
  /// installs and is not swept; the caller abandons it.
  std::optional<std::string> fault;
};

/// The per-level protocol, written once: advances every step's state by
/// its one level, fusing each phase across all of them. Resident states
/// run the forwards of spectrum_plan(), one pointwise product per AND,
/// fold_linear() and the inverses of materialize_plan(); eager states run
/// one multiply per AND; every healthy state is then swept
/// (sweep_linear, evict_spent_spectra).
///
/// Products and materialized wires are reduced modulo x0 (`%`, which runs
/// a cached Barrett reduction for paper-size moduli, see bigint/div.hpp)
/// inside the lane job that computed them, or on the calling thread right
/// after multiply_batch inline; the coordinator only installs values. The
/// reduction's products go through bigint's dispatch hook, not the lane
/// engine, so lane and backend transform counters do not see them.
///
/// On scheduler lanes a job's exception is caught inside the lane and its
/// message lands in the step's fault slot, so the other steps of the batch
/// carry on. Inline, jobs run on the calling thread and exceptions
/// propagate. Inline eager wavefronts go through the engine's
/// multiply_batch; its BatchStats (spectrum-cache hits, hw modeled cycles)
/// are returned (zero otherwise).
backend::BatchStats step_levels(std::span<LevelStep> steps, const Lanes& lanes);

/// Wavefront executor for a recorded Graph: dead nodes (not reachable from
/// the requested outputs) are eliminated, live AND gates are grouped by
/// multiplicative depth, and each depth is issued as ONE step_levels()
/// batch -- to the multi-PE core::Scheduler when one is installed (every
/// job of the wavefront in flight across all lanes at once) or to one
/// engine inline otherwise. XOR nodes are plain ciphertext additions (or
/// spectrum folds) evaluated between wavefronts.
///
/// Results are bit-exact against gate-by-gate evaluation of the same
/// lowering templates (one engine multiply modulo x0 per AND, one
/// EvalKey::add per XOR): the same products are taken modulo the same x0,
/// only their grouping differs.
/// A lane fault on the scheduler path throws std::runtime_error carrying
/// the lane's message.
class Evaluator {
 public:
  /// Executes AND wavefronts on the graph's scheme engine.
  Evaluator() = default;

  /// Executes AND wavefronts on an explicit engine (any registered
  /// backend), overriding the scheme's.
  explicit Evaluator(std::shared_ptr<backend::MultiplierBackend> engine)
      : engine_(std::move(engine)) {}

  /// Executes each wavefront concurrently on a multi-PE scheduler
  /// (non-owning; the scheduler must outlive the evaluator).
  explicit Evaluator(core::Scheduler& scheduler) : scheduler_(&scheduler) {}

  /// Evaluates `outputs` (and everything they depend on), returning one
  /// ciphertext per requested wire, in order. Fills `report` when given.
  std::vector<Ciphertext> evaluate(const Graph& graph, std::span<const Wire> outputs,
                                   EvalReport* report = nullptr,
                                   const EvalOptions& options = {});

 private:
  std::shared_ptr<backend::MultiplierBackend> engine_;
  core::Scheduler* scheduler_ = nullptr;
};

}  // namespace hemul::fhe
