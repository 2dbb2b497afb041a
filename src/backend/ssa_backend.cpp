#include "backend/ssa_backend.hpp"

#include <algorithm>

#include "ssa/batch.hpp"

namespace hemul::backend {

using bigint::BigUInt;

BackendLimits SsaBackend::limits() const {
  BackendLimits limits;
  limits.max_operand_bits = fixed_params_.has_value() ? fixed_params_->max_operand_bits() : 0;
  limits.caches_spectra = true;
  return limits;
}

ssa::SsaParams SsaBackend::params_for(std::size_t bits) const {
  if (fixed_params_.has_value()) return *fixed_params_;
  return ssa::SsaParams::for_bits(std::max<std::size_t>(bits, 1));
}

void SsaBackend::accumulate(const ssa::SsaStats& call_stats) {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_ += call_stats;
}

ssa::SsaStats SsaBackend::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

BigUInt SsaBackend::multiply(const BigUInt& a, const BigUInt& b) {
  if (a.is_zero() || b.is_zero()) return BigUInt{};
  const ssa::SsaParams params = params_for(std::max(a.bit_length(), b.bit_length()));
  ssa::SsaStats call_stats;
  BigUInt out;
  ssa::multiply_into(out, a, b, params, workspace(), &call_stats);
  accumulate(call_stats);
  return out;
}

BigUInt SsaBackend::square(const BigUInt& a) {
  if (a.is_zero()) return BigUInt{};
  const ssa::SsaParams params = params_for(a.bit_length());
  ssa::SsaStats call_stats;
  BigUInt out;
  ssa::square_into(out, a, params, workspace(), &call_stats);
  accumulate(call_stats);
  return out;
}

ssa::SpectrumHandle SsaBackend::forward_spectrum(const BigUInt& value,
                                                 const ssa::SsaParams& params) {
  const ssa::SpectrumDomain domain(params, workspace());
  auto spectrum = std::make_shared<ssa::Spectrum>();
  domain.enter(*spectrum, value);
  ssa::SsaStats call_stats;
  call_stats.transform_count = 1;
  accumulate(call_stats);
  return spectrum;
}

ssa::SpectrumHandle SsaBackend::multiply_spectra(const ssa::SpectrumHandle& a,
                                                 const ssa::SpectrumHandle& b,
                                                 const ssa::SsaParams& params) {
  const ssa::SpectrumDomain domain(params, workspace());
  auto product = std::make_shared<ssa::Spectrum>();
  domain.multiply(*product, *a, *b);
  ssa::SsaStats call_stats;
  call_stats.pointwise_muls = params.transform_size;
  accumulate(call_stats);
  return product;
}

BigUInt SsaBackend::materialize_spectrum(const ssa::Spectrum& spectrum,
                                         const ssa::SsaParams& params) {
  const ssa::SpectrumDomain domain(params, workspace());
  BigUInt out;
  domain.leave(out, spectrum);
  ssa::SsaStats call_stats;
  call_stats.transform_count = 1;
  accumulate(call_stats);
  return out;
}

std::vector<BigUInt> SsaBackend::multiply_batch(std::span<const MulJob> jobs,
                                                BatchStats* stats) {
  // One parameter set for the whole batch (sized to the largest operand) so
  // spectra are interchangeable across jobs.
  std::size_t max_bits = 0;
  for (const MulJob& job : jobs) {
    max_bits = std::max({max_bits, job.first.bit_length(), job.second.bit_length()});
  }
  const ssa::SsaParams params = params_for(max_bits);
  ssa::BatchStats ssa_stats;
  std::vector<BigUInt> products = ssa::multiply_batch(jobs, params, workspace(), &ssa_stats);
  ssa::SsaStats call_stats;
  call_stats.transform_count = ssa_stats.transform_count();
  call_stats.pointwise_muls = ssa_stats.inverse_transforms * params.transform_size;
  accumulate(call_stats);
  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->jobs = ssa_stats.jobs;
    stats->forward_transforms = ssa_stats.forward_transforms;
    stats->inverse_transforms = ssa_stats.inverse_transforms;
    stats->spectrum_cache_hits = ssa_stats.spectrum_cache_hits;
  }
  return products;
}

}  // namespace hemul::backend
