#include "ssa/resident.hpp"

#include <algorithm>

#include "fp/kernels.hpp"
#include "ntt/four_step.hpp"
#include "ssa/pack.hpp"
#include "util/check.hpp"

namespace hemul::ssa {

using bigint::BigUInt;

SpectrumDomain::SpectrumDomain(const SsaParams& params, Workspace& ws)
    : params_(params), ws_(&ws) {
  params_.validate();
  engine_ = &ntt::shared_four_step(params_.transform_size);
}

void SpectrumDomain::forward(fp::FpVec& out, const BigUInt& value) const {
  HEMUL_CHECK_MSG(value.bit_length() <= params_.max_operand_bits(),
                  "forward: value exceeds the packing geometry");
  // Pack straight into the destination and transform in place; the
  // corner-turn scratch lives in the workspace, so steady state stays
  // allocation-free.
  pack_into(value, params_, out);
  engine_->forward_spectrum(out, ws_->ntt_scratch);
}

void SpectrumDomain::enter(Spectrum& out, const BigUInt& value) const {
  forward(out.spec, value);
  const std::size_t bits = value.bit_length();
  out.degree = std::max<u64>(1, (bits + params_.coeff_bits - 1) / params_.coeff_bits);
  out.coeff_bound = operand_bound();
}

bool SpectrumDomain::can_multiply(const Spectrum& a, const Spectrum& b) const noexcept {
  if (a.empty() || b.empty()) return false;
  // Acyclic product must fit the transform (no wraparound)...
  if (a.degree + b.degree - 1 > params_.transform_size) return false;
  // ...and only operand-grade bounds may multiply: cap per factor keeps the
  // u128 product below overflow and the result bound meaningful.
  const u128 cap = u128{1} << 31;
  if (a.coeff_bound == 0 || b.coeff_bound == 0) return false;
  if (a.coeff_bound >= cap || b.coeff_bound >= cap) return false;
  const u128 bound = a.coeff_bound * b.coeff_bound * std::min(a.degree, b.degree);
  return bound < u128{fp::kModulus};
}

void SpectrumDomain::multiply(Spectrum& out, const Spectrum& a, const Spectrum& b) const {
  HEMUL_CHECK_MSG(can_multiply(a, b), "multiply: operands not spectrum-multipliable");
  HEMUL_CHECK(a.spec.size() == params_.transform_size);
  HEMUL_CHECK(b.spec.size() == params_.transform_size);
  out.spec.resize(params_.transform_size);
  fp::pointwise_product(out.spec.data(), a.spec.data(), b.spec.data(),
                        params_.transform_size);
  out.degree = a.degree + b.degree - 1;
  out.coeff_bound = a.coeff_bound * b.coeff_bound * std::min(a.degree, b.degree);
}

bool SpectrumDomain::can_accumulate(const Spectrum& acc, const Spectrum& b) const noexcept {
  if (b.empty()) return false;
  if (acc.empty()) return true;
  return acc.coeff_bound + b.coeff_bound < u128{fp::kModulus};
}

void SpectrumDomain::accumulate(Spectrum& acc, const Spectrum& b) const {
  HEMUL_CHECK_MSG(can_accumulate(acc, b), "accumulate: bound would reach p");
  HEMUL_CHECK(b.spec.size() == params_.transform_size);
  if (acc.empty()) {
    acc.spec = b.spec;  // assignment reuses warmed capacity
    acc.degree = b.degree;
    acc.coeff_bound = b.coeff_bound;
    return;
  }
  HEMUL_CHECK(acc.spec.size() == params_.transform_size);
  fp::pointwise_add(acc.spec.data(), b.spec.data(), params_.transform_size);
  acc.degree = std::max(acc.degree, b.degree);
  acc.coeff_bound += b.coeff_bound;
}

void SpectrumDomain::leave(BigUInt& out, const Spectrum& s) const {
  HEMUL_CHECK_MSG(!s.empty(), "leave: empty spectrum");
  HEMUL_CHECK_MSG(s.coeff_bound < u128{fp::kModulus}, "leave: bound reached p");
  HEMUL_CHECK(s.spec.size() == params_.transform_size);
  // Every four-step pass runs on the redundant representation, so lazily
  // accumulated spectra invert directly; the inverse's last pass applies 1/N
  // and canonicalizes.
  ws_->spec_a = s.spec;
  engine_->inverse_from_spectrum(ws_->spec_a, ws_->ntt_scratch);
  carry_recover_into(ws_->spec_a, params_.coeff_bits, out);
}

void SpectrumDomain::leave_product(BigUInt& out, const fp::FpVec& fa, const fp::FpVec& fb) const {
  engine_->convolve_from_spectra(ws_->pack_a, fa, fb, ws_->ntt_scratch);
  carry_recover_into(ws_->pack_a, params_.coeff_bits, out);
}

}  // namespace hemul::ssa
