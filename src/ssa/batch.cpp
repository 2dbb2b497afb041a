#include "ssa/batch.hpp"

#include "ssa/resident.hpp"

namespace hemul::ssa {

using bigint::BigUInt;
using fp::FpVec;

BatchSpectrumProvider::BatchSpectrumProvider(std::span<const std::pair<BigUInt, BigUInt>> jobs,
                                             TransformFn forward)
    : forward_(std::move(forward)) {
  for (const auto& [a, b] : jobs) {
    ++operands_[&a].uses;
    ++operands_[&b].uses;
  }
}

const FpVec& BatchSpectrumProvider::get(const BigUInt& operand, FpVec& scratch) {
  const auto it = operands_.find(&operand);
  if (it == operands_.end() || it->second.uses < 2) {
    ++forward_transforms_;
    forward_(operand, scratch);  // fills in place: scratch keeps its capacity
    return scratch;
  }
  FpVec& kept = it->second.spectrum;
  if (kept.empty()) {
    ++forward_transforms_;
    forward_(operand, kept);
  } else {
    ++cache_hits_;
  }
  return kept;
}

std::vector<BigUInt> multiply_batch(std::span<const std::pair<BigUInt, BigUInt>> jobs,
                                    const SsaParams& params, Workspace& ws,
                                    BatchStats* stats) {
  BatchStats local;
  local.jobs = jobs.size();

  std::vector<BigUInt> products;
  products.reserve(jobs.size());
  if (jobs.empty()) {
    if (stats != nullptr) *stats = local;
    return products;
  }

  const SpectrumDomain domain(params, ws);
  BatchSpectrumProvider spectra(
      jobs, [&domain](const BigUInt& operand, FpVec& dst) { domain.forward(dst, operand); });

  for (const auto& [a, b] : jobs) {
    if (a.is_zero() || b.is_zero()) {
      products.emplace_back();
      continue;
    }
    // Single-use spectra land in spec_a / spec_b; leave_product writes the
    // product into pack_a, which neither spectrum occupies.
    const FpVec& fa = spectra.get(a, ws.spec_a);
    const FpVec& fb = spectra.get(b, ws.spec_b);
    ++local.inverse_transforms;
    products.emplace_back();
    domain.leave_product(products.back(), fa, fb);
  }

  local.forward_transforms = spectra.forward_transforms();
  local.spectrum_cache_hits = spectra.cache_hits();
  if (stats != nullptr) *stats = local;
  return products;
}

std::vector<BigUInt> multiply_batch(std::span<const std::pair<BigUInt, BigUInt>> jobs,
                                    const SsaParams& params, BatchStats* stats) {
  return multiply_batch(jobs, params, thread_workspace(), stats);
}

}  // namespace hemul::ssa
