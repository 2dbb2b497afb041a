#include "fhe/evaluator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <utility>

#include "backend/ssa_backend.hpp"
#include "core/scheduler.hpp"
#include "fp/fp64.hpp"
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

void EvalState::apply_product(u32 id, bigint::BigUInt product) {
  values_[id] = {std::move(product) % graph_->scheme().public_key().x0,
                 graph_->predicted_noise_bits(Wire{id})};
}

void EvalState::sweep_linear(unsigned level) {
  // Children are already materialized: XOR operands are earlier ids within
  // the same depth, AND operands were produced by this or an earlier
  // wavefront.
  const Dghv& scheme = graph_->scheme();
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

void EvalState::enable_residency(const ssa::SsaParams& params) {
  params_ = params;
  params_.validate();
  residency_ = true;

  const u32 count = static_cast<u32>(graph_->size());
  folded_.assign(count, 0);
  needs_value_.assign(count, 0);

  // Static reduction-bound analysis. Every AND product's true convolution
  // coefficients stay below num_coeffs * (2^m - 1)^2 (< p by the for_bits
  // headroom); a fold's bound is the sum of its operands'. Folds whose
  // bound would reach p are demoted to eager here, up front, so the
  // runtime never needs a mid-level canonicalization flush -- and the
  // transform counts stay a deterministic function of the circuit.
  const u128 max_coeff = (u128{1} << params_.coeff_bits) - 1;
  const u128 and_bound = static_cast<u128>(params_.num_coeffs) * max_coeff * max_coeff;
  std::vector<u128> bound(count, 0);  // nonzero <=> the wire is in-domain
  for (u32 id = 0; id < count; ++id) {
    if (!live_[id]) continue;
    const Wire w{id};
    const GateOp op = graph_->op(w);
    if (op == GateOp::kAnd) {
      bound[id] = and_bound;
    } else if (op == GateOp::kXor) {
      const auto [a, b] = graph_->operands(w);
      if (bound[a.id] == 0 || bound[b.id] == 0) continue;
      if (bound[a.id] + bound[b.id] >= u128{fp::kModulus}) {
        ++rstats_.bound_flushes;
        continue;
      }
      bound[id] = bound[a.id] + bound[b.id];
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
    auto sum = std::make_shared<ssa::ResidentSpectrum>();
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

void EvalState::apply_materialized(u32 id, bigint::BigUInt raw) {
  ++rstats_.inverse_transforms;
  values_[id] = {std::move(raw) % graph_->scheme().public_key().x0,
                 graph_->predicted_noise_bits(Wire{id})};
}

void EvalState::evict_spent_spectra(unsigned level) {
  if (level >= evict_operand_.size()) return;
  for (const u32 id : evict_operand_[level]) evict(id, 0);
  for (const u32 id : evict_spectrum_[level]) evict(id, 1);
}

// --- Evaluator -------------------------------------------------------------

std::vector<Ciphertext> Evaluator::evaluate(const Graph& graph,
                                            std::span<const Wire> outputs,
                                            EvalReport* report,
                                            const EvalOptions& options) {
  const Dghv& scheme = graph.scheme();
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

  std::shared_ptr<backend::MultiplierBackend> engine = engine_;
  if (scheduler_ == nullptr && engine == nullptr) engine = scheme.engine();

  // Spectrum residency: when every execution lane speaks spectrum handles
  // (the software SSA engine), wires stay in the NTT domain across levels
  // -- one forward per distinct operand wire, one pointwise product per
  // AND, XOR folds as pointwise additions, one inverse only per wire whose
  // value is consumed outside the domain. Any other engine (hw model,
  // classical bigint, injected test backends) keeps the eager protocol.
  backend::SsaBackend* resident_engine =
      engine != nullptr ? dynamic_cast<backend::SsaBackend*>(engine.get()) : nullptr;
  const bool resident =
      scheduler_ != nullptr ? scheduler_->lanes_support_spectra() : resident_engine != nullptr;
  if (resident) {
    state.enable_residency(ssa::SsaParams::for_bits(scheme.public_key().x0.bit_length(),
                                                    ssa::kResidentHeadroomBits));
  }
  if (report != nullptr) report->spectrum_resident = resident;

  for (unsigned level = 1; level <= state.max_level(); ++level) {
    const std::vector<u32>& gates = state.wavefront(level);
    WavefrontStats wf;
    wf.level = level;
    wf.and_gates = gates.size();

    const auto t0 = Clock::now();
    if (resident) {
      const ResidencyStats before_r = state.residency_stats();
      const bool collect_stats = report != nullptr && scheduler_ != nullptr;
      core::SchedulerStats before;
      if (collect_stats) before = scheduler_->stats();
      const ssa::SsaParams& params = state.spectrum_params();

      // Phase 1: forward transforms of operand wires new to the domain.
      const std::vector<u32> forwards = state.spectrum_plan(level);
      if (scheduler_ != nullptr) {
        std::vector<std::future<ssa::SpectrumHandle>> futures;
        futures.reserve(forwards.size());
        for (const u32 w : forwards) {
          futures.push_back(scheduler_->submit_spectrum_forward(state.wire_value(w), params));
        }
        for (std::size_t k = 0; k < forwards.size(); ++k) {
          state.install_operand_spectrum(forwards[k], futures[k].get());
        }
      } else {
        for (const u32 w : forwards) {
          state.install_operand_spectrum(
              w, resident_engine->forward_spectrum(state.wire_value(w), params));
        }
      }

      // Phase 2: every AND of the wavefront as one pointwise product.
      if (scheduler_ != nullptr) {
        std::vector<std::future<ssa::SpectrumHandle>> futures;
        futures.reserve(gates.size());
        for (const u32 id : gates) {
          const auto [a, b] = graph.operands(Wire{id});
          futures.push_back(scheduler_->submit_spectrum_multiply(
              state.operand_spectrum(a.id), state.operand_spectrum(b.id), params));
        }
        for (std::size_t k = 0; k < gates.size(); ++k) {
          state.install_product(gates[k], futures[k].get());
        }
      } else {
        for (const u32 id : gates) {
          const auto [a, b] = graph.operands(Wire{id});
          state.install_product(id, resident_engine->multiply_spectra(
                                        state.operand_spectrum(a.id),
                                        state.operand_spectrum(b.id), params));
        }
      }

      // Phase 3: XOR folds stay in the domain (coordinator-side O(N) adds).
      state.fold_linear(level);

      // Phase 4: one inverse per wire actually leaving the domain.
      const std::vector<u32> leaves = state.materialize_plan(level);
      if (scheduler_ != nullptr) {
        std::vector<std::future<bigint::BigUInt>> futures;
        futures.reserve(leaves.size());
        for (const u32 id : leaves) {
          futures.push_back(
              scheduler_->submit_spectrum_materialize(state.wire_spectrum(id), params));
        }
        for (std::size_t k = 0; k < leaves.size(); ++k) {
          state.apply_materialized(leaves[k], futures[k].get());
        }
      } else {
        for (const u32 id : leaves) {
          state.apply_materialized(
              id, resident_engine->materialize_spectrum(*state.wire_spectrum(id), params));
        }
      }

      state.sweep_linear(level);
      state.evict_spent_spectra(level);
      wf.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

      if (report != nullptr) {
        const ResidencyStats& after_r = state.residency_stats();
        wf.spectra_cached = after_r.forward_transforms - before_r.forward_transforms;
        wf.inverses_paid = after_r.inverse_transforms - before_r.inverse_transforms;
        wf.folds = after_r.domain_additions - before_r.domain_additions;
        // Residency's cache semantics: a "miss" enters a spectrum, a "hit"
        // re-consumes a resident one (each gate touches two operands).
        wf.cache_misses = wf.spectra_cached;
        wf.cache_hits = 2 * wf.and_gates - std::min<u64>(wf.spectra_cached, 2 * wf.and_gates);
        wf.transforms_avoided = static_cast<i64>(3 * wf.and_gates) -
                                static_cast<i64>(wf.spectra_cached + wf.inverses_paid);
        wf.lanes_used = gates.empty() && forwards.empty() && leaves.empty() ? 0 : 1;
        if (collect_stats) {
          scheduler_->wait_idle();
          const core::SchedulerStats after = scheduler_->stats();
          wf.lanes_used = 0;
          for (std::size_t lane = 0; lane < after.lanes.size(); ++lane) {
            const u64 jobs_before = lane < before.lanes.size() ? before.lanes[lane].jobs : 0;
            if (after.lanes[lane].jobs > jobs_before) ++wf.lanes_used;
          }
        }
        report->and_gates += wf.and_gates;
        report->wavefronts.push_back(std::move(wf));
      }
      continue;
    }
    std::vector<bigint::BigUInt> products;
    if (scheduler_ != nullptr) {
      // Per-wavefront lane/cache numbers are before/after deltas of the
      // scheduler-wide stats, and lane stats are booked only after each
      // future is satisfied (so the delta needs a wait_idle). Both are
      // observability-only: collect them just when a report was asked for,
      // so reportless evaluation never blocks on (or misattributes) work
      // other threads may be running on a shared scheduler. Per-wavefront
      // stats are accurate only when the scheduler is not shared
      // concurrently during the evaluation.
      const bool collect_stats = report != nullptr;
      core::SchedulerStats before;
      if (collect_stats) before = scheduler_->stats();
      // Submit per gate (no intermediate MulJob vector): each queued job
      // holds the only extra copy of its operand pair.
      std::vector<std::future<bigint::BigUInt>> futures;
      futures.reserve(gates.size());
      for (const u32 id : gates) {
        backend::MulJob job = state.gate_job(id);
        futures.push_back(scheduler_->submit_multiply(std::move(job.first), std::move(job.second)));
      }
      products.reserve(futures.size());
      for (auto& future : futures) products.push_back(future.get());
      if (collect_stats) {
        scheduler_->wait_idle();
        const core::SchedulerStats after = scheduler_->stats();
        wf.cache_hits = after.cache.hits - before.cache.hits;
        wf.cache_misses = after.cache.misses - before.cache.misses;
        wf.batch.jobs = gates.size();
        wf.batch.spectrum_cache_hits = wf.cache_hits;
        for (std::size_t lane = 0; lane < after.lanes.size(); ++lane) {
          const u64 jobs_before = lane < before.lanes.size() ? before.lanes[lane].jobs : 0;
          if (after.lanes[lane].jobs > jobs_before) ++wf.lanes_used;
          wf.batch.total_cycles +=
              after.lanes[lane].hw_cycles -
              (lane < before.lanes.size() ? before.lanes[lane].hw_cycles : 0);
        }
      }
    } else {
      std::vector<backend::MulJob> jobs;
      jobs.reserve(gates.size());
      for (const u32 id : gates) jobs.push_back(state.gate_job(id));
      products = engine->multiply_batch(jobs, &wf.batch);
      wf.cache_hits = wf.batch.spectrum_cache_hits;
      wf.cache_misses = wf.batch.forward_transforms;
      wf.lanes_used = gates.empty() ? 0 : 1;
    }
    wf.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

    for (std::size_t k = 0; k < gates.size(); ++k) {
      state.apply_product(gates[k], std::move(products[k]));
    }
    state.sweep_linear(level);

    if (report != nullptr) {
      report->and_gates += wf.and_gates;
      report->wavefronts.push_back(std::move(wf));
    }
  }

  if (report != nullptr && resident) report->residency = state.residency_stats();

  return state.outputs();
}

}  // namespace hemul::fhe
