#include "ssa/batch.hpp"

#include "ntt/four_step.hpp"
#include "ssa/pack.hpp"

namespace hemul::ssa {

using bigint::BigUInt;
using fp::FpVec;

namespace {

/// The four-step engine of one parameterization bound to one workspace.
/// Spectra are in four-step engine order.
struct FourStepView {
  const ntt::FourStepNtt& engine;
  const SsaParams& params;
  Workspace& ws;
  ntt::FourStepStats tiles;  ///< intra-op tiling across this view's calls

  FourStepView(const SsaParams& p, Workspace& w)
      : engine(ntt::shared_four_step(p.transform_size)), params(p), ws(w) {}

  /// Forward spectrum of an operand into `dst` (resized; reuses its
  /// capacity). dst must not be a pack buffer of this view's workspace.
  void forward_into(const BigUInt& operand, FpVec& dst) {
    pack_into(operand, params, dst);
    engine.forward_spectrum(dst, ws.tile_scratch, ws.tile_executor, &tiles);
  }

  /// product = carry_recover(inverse(fa . fb)); fa/fb may live in a
  /// spectrum cache or in ws.spec_a/ws.spec_b, never in the pack buffers.
  void product_into(BigUInt& product, const FpVec& fa, const FpVec& fb) {
    engine.convolve_from_spectra(ws.pack_a, fa, fb, ws.tile_scratch, ws.tile_executor, &tiles);
    carry_recover_into(ws.pack_a, params.coeff_bits, product);
  }
};

}  // namespace

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

  FourStepView engine(params, ws);
  BatchSpectrumProvider spectra(jobs, params, [&engine](const BigUInt& operand, FpVec& dst) {
    engine.forward_into(operand, dst);
  });

  for (const auto& [a, b] : jobs) {
    if (a.is_zero() || b.is_zero()) {
      products.emplace_back();
      continue;
    }
    const FpVec& fa = spectra.get(a, ws.spec_a);
    const FpVec& fb = spectra.get(b, ws.spec_b);
    ++local.inverse_transforms;
    products.emplace_back();
    engine.product_into(products.back(), fa, fb);
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

BigUInt multiply_cached(const BigUInt& a, const BigUInt& b, const SsaParams& params,
                        ConcurrentSpectrumCache& cache, Workspace& ws, SsaStats* stats) {
  if (a.is_zero() || b.is_zero()) return BigUInt{};

  FourStepView engine(params, ws);
  u64 forwards_executed = 0;
  // Two captures fit std::function's inline buffer: no allocation.
  const auto forward = [&engine, &forwards_executed](const BigUInt& operand) {
    ++forwards_executed;
    FpVec spectrum;
    engine.forward_into(operand, spectrum);
    return spectrum;
  };
  const std::shared_ptr<const FpVec> fa = cache.get_or_compute(a, params, forward);
  const std::shared_ptr<const FpVec> fb =
      a == b ? fa : cache.get_or_compute(b, params, forward);

  BigUInt product;
  engine.product_into(product, *fa, *fb);

  if (stats != nullptr) {
    stats->pointwise_muls += params.transform_size;
    stats->transform_count += forwards_executed + 1;  // cache hits skip forwards
    stats->tile_groups += engine.tiles.tile_groups;
    stats->tiles += engine.tiles.tiles;
  }
  return product;
}

BigUInt multiply_cached(const BigUInt& a, const BigUInt& b, const SsaParams& params,
                        ConcurrentSpectrumCache& cache) {
  return multiply_cached(a, b, params, cache, thread_workspace(), nullptr);
}

}  // namespace hemul::ssa
