#include "ssa/multiply.hpp"

#include <algorithm>

#include "ntt/four_step.hpp"
#include "ssa/pack.hpp"

namespace hemul::ssa {

using bigint::BigUInt;

namespace {

/// Books one four-step product into stats.
void book(SsaStats* stats, const SsaParams& params, u64 transforms) {
  if (stats == nullptr) return;
  stats->pointwise_muls += params.transform_size;
  stats->transform_count += transforms;
}

}  // namespace

void multiply_into(BigUInt& out, const BigUInt& a, const BigUInt& b, const SsaParams& params,
                   Workspace& ws, SsaStats* stats) {
  if (a.is_zero() || b.is_zero()) {
    bigint::MutableAccess::limbs(out).clear();
    return;
  }

  pack_into(a, params, ws.pack_a);
  pack_into(b, params, ws.pack_b);
  // In place over the pack buffers; the corner-turn scratch lives in the
  // workspace.
  const ntt::FourStepNtt& engine = ntt::shared_four_step(params.transform_size);
  engine.convolve_into(ws.pack_a, ws.pack_b, ws.ntt_scratch);
  book(stats, params, 3);  // two forward + one inverse
  carry_recover_into(ws.pack_a, params.coeff_bits, out);
}

BigUInt multiply(const BigUInt& a, const BigUInt& b, const SsaParams& params,
                 SsaStats* stats) {
  BigUInt out;
  multiply_into(out, a, b, params, thread_workspace(), stats);
  return out;
}

BigUInt mul_ssa(const BigUInt& a, const BigUInt& b) {
  if (a.is_zero() || b.is_zero()) return BigUInt{};
  const std::size_t bits = std::max(a.bit_length(), b.bit_length());
  return multiply(a, b, SsaParams::for_bits(bits));
}

void square_into(BigUInt& out, const BigUInt& a, const SsaParams& params, Workspace& ws,
                 SsaStats* stats) {
  if (a.is_zero()) {
    bigint::MutableAccess::limbs(out).clear();
    return;
  }

  pack_into(a, params, ws.pack_a);
  const ntt::FourStepNtt& engine = ntt::shared_four_step(params.transform_size);
  engine.convolve_square_into(ws.pack_a, ws.ntt_scratch);
  book(stats, params, 2);  // one forward + one inverse
  carry_recover_into(ws.pack_a, params.coeff_bits, out);
}

BigUInt square(const BigUInt& a, const SsaParams& params, SsaStats* stats) {
  BigUInt out;
  square_into(out, a, params, thread_workspace(), stats);
  return out;
}

PreparedSpectrum::PreparedSpectrum(BigUInt value, const SsaParams& params)
    : bigint::PreparedOperand(std::move(value)), params_(params) {
  // The transform swaps its result into place from the scratch buffer; a
  // local workspace keeps the spectrum exactly transform_size long.
  Workspace ws;
  SpectrumDomain(params_, ws).enter(spectrum_, this->value());
}

void PreparedSpectrum::multiply_into(BigUInt& out, const BigUInt& other, Workspace& ws,
                                     SsaStats* stats) const {
  if (value().is_zero() || other.is_zero()) {
    bigint::MutableAccess::limbs(out).clear();
    return;
  }

  const SpectrumDomain domain(params_, ws);
  domain.forward(ws.pack_b, other);
  domain.leave_product(out, ws.pack_b, spectrum_.spec);
  book(stats, params_, 2);  // one forward + one inverse
}

BigUInt PreparedSpectrum::multiply(const BigUInt& other) const {
  BigUInt out;
  multiply_into(out, other, thread_workspace());
  return out;
}

}  // namespace hemul::ssa
