#include "fhe/evaluator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "backend/ssa_backend.hpp"
#include "core/scheduler.hpp"
#include "ssa/resident.hpp"
#include "ssa/workspace.hpp"
#include "util/check.hpp"

namespace hemul::fhe {

namespace {

using Clock = std::chrono::steady_clock;

std::string format_bits(double bits) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", bits);
  return buf;
}

}  // namespace

// --- EvalState -------------------------------------------------------------

EvalState::EvalState(const Graph& graph, std::span<const Wire> outputs)
    : graph_(&graph), output_wires_(outputs.begin(), outputs.end()) {
  const std::size_t node_count = graph.size();
  for (const Wire w : output_wires_) {
    HEMUL_CHECK_MSG(w.valid() && w.id < node_count, "Evaluator: output wire from another graph");
  }

  // Dead-node elimination: backward reachability from the outputs.
  live_.assign(node_count, 0);
  for (const Wire w : output_wires_) live_[w.id] = 1;
  for (std::size_t id = node_count; id-- > 0;) {
    const Wire w{static_cast<u32>(id)};
    if (!live_[id] || graph.op(w) == GateOp::kInput) continue;
    const auto [a, b] = graph.operands(w);
    live_[a.id] = 1;
    live_[b.id] = 1;
  }

  // Leveling + the pre-execution noise audit over the live wires.
  for (std::size_t id = 0; id < node_count; ++id) {
    if (!live_[id]) continue;
    const Wire w{static_cast<u32>(id)};
    ++live_count_;
    max_level_ = std::max(max_level_, graph.level(w));
    const double noise = graph.predicted_noise_bits(w);
    if (noise > max_noise_ || worst_wire_ == Wire::kInvalid) {
      max_noise_ = noise;
      worst_wire_ = static_cast<u32>(id);
    }
    if (graph.op(w) == GateOp::kXor) ++live_xor_;
  }

  // Wavefront w = all live AND gates at depth w. Every level 1..max_level
  // is populated: a live node at depth d always has a live AND ancestor
  // chain touching each depth below it.
  wavefronts_.assign(max_level_ + 1, {});
  for (std::size_t id = 0; id < node_count; ++id) {
    const Wire w{static_cast<u32>(id)};
    if (live_[id] && graph.op(w) == GateOp::kAnd) {
      wavefronts_[graph.level(w)].push_back(static_cast<u32>(id));
    }
  }

  values_.resize(node_count);
  sweep_linear(0);
}

bool EvalState::decryptable() const {
  return NoiseModel::decryptable(graph_->scheme().params(), max_noise_);
}

const std::vector<u32>& EvalState::wavefront(unsigned level) const {
  HEMUL_CHECK_MSG(level < wavefronts_.size(), "EvalState: level out of range");
  return wavefronts_[level];
}

backend::MulJob EvalState::gate_job(u32 id) const {
  const auto [a, b] = graph_->operands(Wire{id});
  return {values_[a.id].value, values_[b.id].value};
}

const bigint::BigUInt& EvalState::modulus() const noexcept {
  return graph_->scheme().x0();
}

void EvalState::apply_product(u32 id, bigint::BigUInt product) {
  HEMUL_CHECK_MSG(product < modulus(), "EvalState: gate product not reduced modulo x0");
  values_[id] = {std::move(product), graph_->predicted_noise_bits(Wire{id})};
}

void EvalState::sweep_linear(unsigned level) {
  // Children are already materialized: XOR operands are earlier ids within
  // the same depth, AND operands were produced by this or an earlier
  // wavefront.
  const EvalKey& scheme = graph_->scheme();
  for (u32 id = 0; id < graph_->size(); ++id) {
    const Wire w{id};
    if (!live_[id] || graph_->level(w) != level) continue;
    const GateOp op = graph_->op(w);
    if (op == GateOp::kAnd) continue;
    // Folded XORs were swept in the spectrum domain (and materialized
    // already if anything consumes their value).
    if (!folded_.empty() && folded_[id]) continue;
    if (op == GateOp::kInput) {
      values_[id] = graph_->input_value(w);
    } else {
      const auto [a, b] = graph_->operands(w);
      values_[id] = scheme.add(values_[a.id], values_[b.id]);
    }
  }
}

std::vector<Ciphertext> EvalState::outputs() const {
  std::vector<Ciphertext> result;
  result.reserve(output_wires_.size());
  for (const Wire w : output_wires_) result.push_back(values_[w.id]);
  return result;
}

// --- spectrum residency ----------------------------------------------------

u64 EvalState::spectrum_key(u32 wire, unsigned kind) noexcept {
  // kind 0: operand spectrum (forward of the reduced wire value, the only
  // kind that may multiply); kind 1: product/sum spectrum (raw, unreduced).
  return (static_cast<u64>(wire) << 1) | kind;
}

const ssa::SpectrumHandle* EvalState::find_spectrum(u32 wire, unsigned kind) const {
  const auto it = spectra_.find(spectrum_key(wire, kind));
  return it != spectra_.end() ? &it->second : nullptr;
}

void EvalState::publish(u32 wire, unsigned kind, ssa::SpectrumHandle spectrum) {
  spectra_[spectrum_key(wire, kind)] = std::move(spectrum);
  rstats_.resident_peak = std::max<u64>(rstats_.resident_peak, spectra_.size());
}

void EvalState::evict(u32 wire, unsigned kind) {
  if (spectra_.erase(spectrum_key(wire, kind)) != 0) ++rstats_.spectra_evicted;
}

void EvalState::enable_residency() {
  const std::size_t bits = modulus().bit_length();
  const ssa::SsaParams headroom = ssa::SsaParams::for_bits(bits, ssa::kResidentHeadroomBits);
  const u64 k_max = plan_folds(headroom.max_products());
  set_geometry(ssa::SsaParams::for_products(bits, k_max), k_max);
}

void EvalState::enable_residency(const ssa::SsaParams& params) {
  params.validate();
  set_geometry(params, plan_folds(params.max_products()));
}

void EvalState::set_geometry(const ssa::SsaParams& params, u64 max_fold_products) {
  HEMUL_CHECK_MSG(params.max_products() >= max_fold_products,
                  "EvalState: geometry too short for the fold plan");
  params_ = params;
  rstats_.max_fold_products = max_fold_products;
  rstats_.transform_size = params.transform_size;
  rstats_.coeff_bits = params.coeff_bits;
}

u64 EvalState::plan_folds(u64 fold_cap) {
  residency_ = true;

  const u32 count = static_cast<u32>(graph_->size());
  folded_.assign(count, 0);
  needs_value_.assign(count, 0);

  // Static reduction-bound analysis, in units of AND products: an AND
  // product's true convolution coefficients stay below num_coeffs *
  // (2^m - 1)^2, and a fold's bound is the sum of its operands'. Folds
  // that would sum more than `fold_cap` products are demoted to eager
  // here, up front, so the runtime never needs a mid-level
  // canonicalization flush -- and the transform counts stay a
  // deterministic function of the circuit and the cap.
  std::vector<u64> products(count, 0);  // nonzero <=> the wire is in-domain
  for (u32 id = 0; id < count; ++id) {
    if (!live_[id]) continue;
    const Wire w{id};
    const GateOp op = graph_->op(w);
    if (op == GateOp::kAnd) {
      products[id] = 1;
    } else if (op == GateOp::kXor) {
      const auto [a, b] = graph_->operands(w);
      if (products[a.id] == 0 || products[b.id] == 0) continue;
      if (products[a.id] > fold_cap - products[b.id]) {  // sum > cap; both are <= cap
        ++rstats_.bound_flushes;
        continue;
      }
      products[id] = products[a.id] + products[b.id];
      folded_[id] = 1;
    }
  }

  // Fold profitability relaxation. A fold pays one inverse iff the XOR's
  // value is consumed outside the domain; sweeping it eagerly instead pays
  // one inverse for every operand not already materialized for some other
  // consumer. Start from the maximal fold set and unfold while the trade
  // loses; unfolding only ever adds value consumers, so the iteration is
  // monotone, terminates, and is deterministic.
  std::vector<u32> value_consumers(count, 0);
  const auto recount = [&] {
    std::fill(value_consumers.begin(), value_consumers.end(), 0u);
    for (const Wire w : output_wires_) ++value_consumers[w.id];
    for (u32 id = 0; id < count; ++id) {
      if (!live_[id]) continue;
      const Wire w{id};
      const GateOp op = graph_->op(w);
      if (op == GateOp::kInput) continue;
      if (op == GateOp::kXor && folded_[id]) continue;  // consumes spectra
      const auto [a, b] = graph_->operands(w);
      ++value_consumers[a.id];
      ++value_consumers[b.id];
    }
  };
  bool changed = true;
  while (changed) {
    changed = false;
    recount();
    for (u32 id = 0; id < count; ++id) {
      if (!folded_[id]) continue;
      const auto [a, b] = graph_->operands(Wire{id});
      const bool a_in = graph_->op(a) == GateOp::kAnd || folded_[a.id];
      const bool b_in = graph_->op(b) == GateOp::kAnd || folded_[b.id];
      if (!a_in || !b_in) {  // an operand left the domain: forced unfold
        folded_[id] = 0;
        changed = true;
        continue;
      }
      if (value_consumers[id] > 0 && value_consumers[a.id] > 0 &&
          value_consumers[b.id] > 0) {
        folded_[id] = 0;  // every participant is materialized anyway
        changed = true;
      }
    }
  }
  recount();

  // Materialization needs + per-level eviction schedules (a spectrum dies
  // right after its last consuming wavefront, so single-use operands leave
  // the caches with the wavefront that consumed them).
  evict_operand_.assign(max_level_ + 1, {});
  evict_spectrum_.assign(max_level_ + 1, {});
  std::vector<unsigned> last_operand(count, 0);
  std::vector<unsigned> last_spectrum(count, 0);
  for (u32 id = 0; id < count; ++id) {
    if (!live_[id]) continue;
    const Wire w{id};
    needs_value_[id] = value_consumers[id] > 0 ? 1 : 0;
    const GateOp op = graph_->op(w);
    const unsigned level = graph_->level(w);
    if (op == GateOp::kAnd) {
      const auto [a, b] = graph_->operands(w);
      last_operand[a.id] = std::max(last_operand[a.id], level);
      last_operand[b.id] = std::max(last_operand[b.id], level);
      last_spectrum[id] = std::max(last_spectrum[id], level);
    } else if (op == GateOp::kXor && folded_[id]) {
      const auto [a, b] = graph_->operands(w);
      last_spectrum[a.id] = std::max(last_spectrum[a.id], level);
      last_spectrum[b.id] = std::max(last_spectrum[b.id], level);
      last_spectrum[id] = std::max(last_spectrum[id], level);
    }
  }
  for (u32 id = 0; id < count; ++id) {
    if (last_operand[id] > 0) evict_operand_[last_operand[id]].push_back(id);
    if (last_spectrum[id] > 0) evict_spectrum_[last_spectrum[id]].push_back(id);
  }

  // The largest sum a resident spectrum stands for. A fold the relaxation
  // kept has both operands in the domain, so its first-pass count holds.
  u64 k_max = 1;
  for (u32 id = 0; id < count; ++id) {
    if (folded_[id]) k_max = std::max(k_max, products[id]);
  }
  return k_max;
}

const bigint::BigUInt& EvalState::wire_value(u32 id) const { return values_[id].value; }

std::vector<u32> EvalState::spectrum_plan(unsigned level) const {
  std::vector<u32> plan;
  for (const u32 id : wavefront(level)) {
    const auto [a, b] = graph_->operands(Wire{id});
    for (const u32 operand : {a.id, b.id}) {
      if (find_spectrum(operand, 0) == nullptr) {
        plan.push_back(operand);
      }
    }
  }
  std::sort(plan.begin(), plan.end());
  plan.erase(std::unique(plan.begin(), plan.end()), plan.end());
  return plan;
}

void EvalState::install_operand_spectrum(u32 wire, ssa::SpectrumHandle spectrum) {
  ++rstats_.forward_transforms;
  publish(wire, 0, std::move(spectrum));
}

ssa::SpectrumHandle EvalState::operand_spectrum(u32 wire) const {
  const ssa::SpectrumHandle* handle = find_spectrum(wire, 0);
  HEMUL_CHECK_MSG(handle != nullptr, "EvalState: missing operand spectrum");
  return *handle;
}

void EvalState::install_product(u32 id, ssa::SpectrumHandle spectrum) {
  ++rstats_.pointwise_products;
  publish(id, 1, std::move(spectrum));
}

void EvalState::fold_linear(unsigned level) {
  // Folds are O(N) vector additions -- noise next to a transform -- so the
  // coordinator runs them inline, in wire order (operands have lower ids,
  // so chained folds see their inputs already summed).
  const ssa::SpectrumDomain domain(params_, ssa::thread_workspace());
  for (u32 id = 0; id < static_cast<u32>(graph_->size()); ++id) {
    const Wire w{id};
    if (!live_[id] || !folded_[id] || graph_->level(w) != level) continue;
    const auto [a, b] = graph_->operands(w);
    auto sum = std::make_shared<ssa::Spectrum>();
    domain.accumulate(*sum, *wire_spectrum(a.id));
    domain.accumulate(*sum, *wire_spectrum(b.id));
    ++rstats_.domain_additions;
    publish(id, 1, std::move(sum));
  }
}

std::vector<u32> EvalState::materialize_plan(unsigned level) const {
  std::vector<u32> plan;
  for (u32 id = 0; id < static_cast<u32>(graph_->size()); ++id) {
    if (!live_[id] || !needs_value_[id]) continue;
    const Wire w{id};
    if (graph_->level(w) != level) continue;
    const GateOp op = graph_->op(w);
    if (op == GateOp::kAnd || (op == GateOp::kXor && folded_[id])) plan.push_back(id);
  }
  return plan;
}

ssa::SpectrumHandle EvalState::wire_spectrum(u32 id) const {
  const ssa::SpectrumHandle* handle = find_spectrum(id, 1);
  HEMUL_CHECK_MSG(handle != nullptr, "EvalState: missing product spectrum");
  return *handle;
}

void EvalState::apply_materialized(u32 id, bigint::BigUInt value) {
  HEMUL_CHECK_MSG(value < modulus(), "EvalState: materialized wire not reduced modulo x0");
  ++rstats_.inverse_transforms;
  values_[id] = {std::move(value), graph_->predicted_noise_bits(Wire{id})};
}

void EvalState::evict_spent_spectra(unsigned level) {
  if (level >= evict_operand_.size()) return;
  for (const u32 id : evict_operand_[level]) evict(id, 0);
  for (const u32 id : evict_spectrum_[level]) evict(id, 1);
}

// --- level driver ----------------------------------------------------------

Lanes::Lanes(core::Scheduler& scheduler)
    : scheduler_(&scheduler), resident_(scheduler.lanes_support_spectra()) {}

Lanes::Lanes(std::shared_ptr<backend::MultiplierBackend> engine)
    : engine_(std::move(engine)),
      resident_(dynamic_cast<backend::SsaBackend*>(engine_.get()) != nullptr) {
  HEMUL_CHECK_MSG(engine_ != nullptr, "Lanes: null engine");
}

void Lanes::plan(EvalState& state) const {
  if (resident_) state.enable_residency();
}

namespace {

/// One lane job of a phase: the step it serves and the wire it computes.
struct LaneJob {
  std::size_t step = 0;
  u32 wire = 0;
};

backend::SsaBackend& spectrum_lane(backend::MultiplierBackend& engine) {
  auto* ssa_engine = dynamic_cast<backend::SsaBackend*>(&engine);
  HEMUL_CHECK_MSG(ssa_engine != nullptr, "resident level on a non-ssa lane");
  return *ssa_engine;
}

/// Runs fn(job, engine) for every job where `lanes` runs them; results are
/// in job order. On scheduler lanes a fault is caught inside the lane job
/// into a per-job slot and merged into the owning step's fault slot here,
/// on the coordinator, once every future is satisfied: no exception_ptr
/// crosses threads (a rethrown exception's refcounted what()-string is
/// invisible to TSan inside libstdc++ and reads as a race). Lane jobs only
/// read coordinator state, which nothing writes while the phase runs.
template <typename Result, typename Fn>
std::vector<Result> run_jobs(const Lanes& lanes, std::span<LevelStep> steps,
                             const std::vector<LaneJob>& jobs, const Fn& fn) {
  std::vector<Result> results(jobs.size());
  if (lanes.scheduler() == nullptr) {
    for (std::size_t k = 0; k < jobs.size(); ++k) results[k] = fn(jobs[k], *lanes.engine());
    return results;
  }
  std::vector<std::optional<std::string>> faults(jobs.size());
  std::vector<std::future<bigint::BigUInt>> futures;
  futures.reserve(jobs.size());
  try {
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      futures.push_back(lanes.scheduler()->submit([&, k](backend::MultiplierBackend& engine) {
        try {
          results[k] = fn(jobs[k], engine);
        } catch (const std::exception& e) {
          faults[k] = e.what();
        } catch (...) {
          faults[k] = "unknown lane error";
        }
        return bigint::BigUInt{};
      }));
    }
  } catch (...) {
    for (auto& future : futures) future.wait();  // queued jobs reference this frame
    throw;
  }
  for (auto& future : futures) future.get();
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    LevelStep& step = steps[jobs[k].step];
    if (faults[k] && !step.fault) step.fault = std::move(faults[k]);
  }
  return results;
}

}  // namespace

backend::BatchStats step_levels(std::span<LevelStep> steps, const Lanes& lanes) {
  const auto state_of = [&](const LaneJob& job) -> EvalState& { return *steps[job.step].state; };
  const auto healthy = [&](const LaneJob& job) { return !steps[job.step].fault; };
  // One job per wire `plan(state, level)` lists, over every healthy step
  // on the given protocol.
  const auto collect = [&](bool resident, const auto& plan) {
    std::vector<LaneJob> jobs;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const LevelStep& step = steps[s];
      if (step.fault || step.state->residency_enabled() != resident) continue;
      for (const u32 wire : plan(*step.state, step.level)) jobs.push_back({s, wire});
    }
    return jobs;
  };
  const auto wavefront = [](const EvalState& state, unsigned level) -> const std::vector<u32>& {
    return state.wavefront(level);
  };

  // Resident phase 1: forward transforms of operand wires new to the domain.
  const std::vector<LaneJob> forwards = collect(
      true, [](const EvalState& state, unsigned level) { return state.spectrum_plan(level); });
  std::vector<ssa::SpectrumHandle> entered = run_jobs<ssa::SpectrumHandle>(
      lanes, steps, forwards, [&](const LaneJob& job, backend::MultiplierBackend& engine) {
        const EvalState& state = state_of(job);
        return spectrum_lane(engine).forward_spectrum(state.wire_value(job.wire),
                                                      state.spectrum_params());
      });
  for (std::size_t k = 0; k < forwards.size(); ++k) {
    if (healthy(forwards[k])) {
      state_of(forwards[k]).install_operand_spectrum(forwards[k].wire, std::move(entered[k]));
    }
  }

  // Resident phase 2: every AND as one pointwise product.
  const std::vector<LaneJob> products = collect(true, wavefront);
  std::vector<ssa::SpectrumHandle> produced = run_jobs<ssa::SpectrumHandle>(
      lanes, steps, products, [&](const LaneJob& job, backend::MultiplierBackend& engine) {
        const EvalState& state = state_of(job);
        const auto [a, b] = state.graph().operands(Wire{job.wire});
        return spectrum_lane(engine).multiply_spectra(
            state.operand_spectrum(a.id), state.operand_spectrum(b.id), state.spectrum_params());
      });
  for (std::size_t k = 0; k < products.size(); ++k) {
    if (healthy(products[k])) {
      state_of(products[k]).install_product(products[k].wire, std::move(produced[k]));
    }
  }

  // Resident phase 3: XOR folds stay in the domain (coordinator-side O(N)
  // additions).
  for (LevelStep& step : steps) {
    if (!step.fault && step.state->residency_enabled()) step.state->fold_linear(step.level);
  }

  // Resident phase 4: one inverse per wire whose value leaves the domain,
  // reduced modulo x0 by the same lane job.
  const std::vector<LaneJob> leaves = collect(
      true, [](const EvalState& state, unsigned level) { return state.materialize_plan(level); });
  std::vector<bigint::BigUInt> materialized = run_jobs<bigint::BigUInt>(
      lanes, steps, leaves, [&](const LaneJob& job, backend::MultiplierBackend& engine) {
        const EvalState& state = state_of(job);
        return spectrum_lane(engine).materialize_spectrum(*state.wire_spectrum(job.wire),
                                                          state.spectrum_params()) %
               state.modulus();
      });
  for (std::size_t k = 0; k < leaves.size(); ++k) {
    if (healthy(leaves[k])) {
      state_of(leaves[k]).apply_materialized(leaves[k].wire, std::move(materialized[k]));
    }
  }

  // Eager states: one multiply per AND, reduced modulo x0 by the lane job.
  // Inline, the wavefront goes through the engine's multiply_batch
  // (spectrum cache, hw cycle accounting) and the caller reduces.
  const std::vector<LaneJob> gates = collect(false, wavefront);
  backend::BatchStats batch;
  std::vector<bigint::BigUInt> multiplied;
  if (lanes.scheduler() == nullptr) {
    std::vector<backend::MulJob> jobs;
    jobs.reserve(gates.size());
    for (const LaneJob& gate : gates) jobs.push_back(state_of(gate).gate_job(gate.wire));
    if (!jobs.empty()) multiplied = lanes.engine()->multiply_batch(jobs, &batch);
    for (std::size_t k = 0; k < gates.size(); ++k) {
      multiplied[k] = std::move(multiplied[k]) % state_of(gates[k]).modulus();
    }
  } else {
    multiplied = run_jobs<bigint::BigUInt>(
        lanes, steps, gates, [&](const LaneJob& job, backend::MultiplierBackend& engine) {
          const EvalState& state = state_of(job);
          const auto [a, b] = state.graph().operands(Wire{job.wire});
          return engine.multiply(state.wire_value(a.id), state.wire_value(b.id)) %
                 state.modulus();
        });
  }
  for (std::size_t k = 0; k < gates.size(); ++k) {
    if (healthy(gates[k])) {
      state_of(gates[k]).apply_product(gates[k].wire, std::move(multiplied[k]));
    }
  }

  for (LevelStep& step : steps) {
    if (step.fault) continue;
    step.state->sweep_linear(step.level);
    step.state->evict_spent_spectra(step.level);
  }
  return batch;
}

// --- Evaluator -------------------------------------------------------------

std::vector<Ciphertext> Evaluator::evaluate(const Graph& graph,
                                            std::span<const Wire> outputs,
                                            EvalReport* report,
                                            const EvalOptions& options) {
  const EvalKey& scheme = graph.scheme();
  EvalState state(graph, outputs);

  const double budget = NoiseModel::budget_bits(scheme.params());
  const bool decryptable = state.decryptable();
  if (options.check_noise && !decryptable) {
    const Wire worst = state.worst_wire();
    throw NoiseBudgetError(
        "Evaluator: predicted noise " + format_bits(state.max_noise_bits()) + " bits at depth " +
            std::to_string(graph.level(worst)) + " exceeds the decryptability budget " +
            format_bits(budget) + " bits (eta - 2); refusing to execute",
        worst, graph.level(worst), state.max_noise_bits(), budget);
  }

  if (report != nullptr) {
    *report = EvalReport{};
    report->nodes = graph.size();
    report->live_nodes = state.live_nodes();
    report->dead_nodes = graph.size() - state.live_nodes();
    report->xor_gates = state.live_xor_gates();
    report->levels = state.max_level();
    report->max_noise_bits = state.max_noise_bits();
    report->decryptable = decryptable;
    report->wavefronts.reserve(state.max_level());
  }

  const Lanes lanes = scheduler_ != nullptr
                          ? Lanes(*scheduler_)
                          : Lanes(engine_ != nullptr ? engine_ : scheme.engine());
  lanes.plan(state);
  const bool resident = state.residency_enabled();
  if (report != nullptr) report->spectrum_resident = resident;

  // Per-wavefront lane numbers (lanes used, hw cycles) on the scheduler
  // path are before/after deltas of the scheduler-wide stats; the transform
  // numbers come from the batch or residency counters. Lane stats are
  // booked only after each future is satisfied (so the delta needs a
  // wait_idle). They are observability-only: collect them just when a
  // report was asked for, so reportless evaluation never blocks on (or
  // misattributes) work other threads may be running on a shared
  // scheduler.
  const bool collect_stats = report != nullptr && scheduler_ != nullptr;

  for (unsigned level = 1; level <= state.max_level(); ++level) {
    WavefrontStats wf;
    wf.level = level;
    wf.and_gates = state.wavefront(level).size();
    const ResidencyStats before_r = state.residency_stats();
    core::SchedulerStats before;
    if (collect_stats) before = scheduler_->stats();

    const auto t0 = Clock::now();
    LevelStep step{&state, level, {}};
    wf.batch = step_levels({&step, 1}, lanes);
    if (step.fault) throw std::runtime_error("Evaluator: lane fault: " + *step.fault);
    wf.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (report == nullptr) continue;

    wf.lanes_used = wf.and_gates == 0 ? 0 : 1;
    if (resident) {
      const ResidencyStats& after_r = state.residency_stats();
      wf.spectra_cached = after_r.forward_transforms - before_r.forward_transforms;
      wf.inverses_paid = after_r.inverse_transforms - before_r.inverse_transforms;
      wf.folds = after_r.domain_additions - before_r.domain_additions;
      wf.transforms_avoided = static_cast<i64>(3 * wf.and_gates) -
                              static_cast<i64>(wf.spectra_cached + wf.inverses_paid);
    }
    if (collect_stats) {
      scheduler_->wait_idle();
      const core::SchedulerStats after = scheduler_->stats();
      wf.lanes_used = 0;
      for (std::size_t lane = 0; lane < after.lanes.size(); ++lane) {
        const bool known = lane < before.lanes.size();
        if (after.lanes[lane].jobs > (known ? before.lanes[lane].jobs : 0)) ++wf.lanes_used;
        if (!resident) {
          wf.batch.total_cycles +=
              after.lanes[lane].hw_cycles - (known ? before.lanes[lane].hw_cycles : 0);
        }
      }
      if (!resident) wf.batch.jobs = wf.and_gates;
    }
    report->and_gates += wf.and_gates;
    report->wavefronts.push_back(std::move(wf));
  }

  if (report != nullptr && resident) report->residency = state.residency_stats();

  return state.outputs();
}

}  // namespace hemul::fhe
