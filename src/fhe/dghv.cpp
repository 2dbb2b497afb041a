#include "fhe/dghv.hpp"

#include "backend/registry.hpp"
#include "bigint/div.hpp"
#include "bigint/mul.hpp"
#include "util/check.hpp"

namespace hemul::fhe {

using bigint::BigUInt;

EvalKey::EvalKey(const DghvParams& params, std::shared_ptr<backend::MultiplierBackend> engine)
    : params_(params), engine_(engine != nullptr ? std::move(engine) : backend::auto_backend()) {
  params_.validate();
}

EvalKey::EvalKey(const DghvParams& params, BigUInt x0,
                 std::shared_ptr<backend::MultiplierBackend> engine)
    : EvalKey(params, std::move(engine)) {
  HEMUL_CHECK_MSG(!x0.is_zero(), "EvalKey: public modulus x0 is zero");
  x0_ = std::move(x0);
}

Ciphertext EvalKey::add(const Ciphertext& a, const Ciphertext& b) const {
  return {(a.value + b.value) % x0_, NoiseModel::after_add(a.noise_bits, b.noise_bits)};
}

Ciphertext EvalKey::multiply(const Ciphertext& a, const Ciphertext& b) const {
  return {engine_->multiply(a.value, b.value) % x0_,
          NoiseModel::after_mult(a.noise_bits, b.noise_bits)};
}

std::vector<Ciphertext> EvalKey::multiply_batch(
    std::span<const std::pair<Ciphertext, Ciphertext>> jobs) const {
  std::vector<backend::MulJob> raw;
  raw.reserve(jobs.size());
  for (const auto& [a, b] : jobs) raw.emplace_back(a.value, b.value);

  const std::vector<BigUInt> products = engine_->multiply_batch(raw);
  std::vector<Ciphertext> out;
  out.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.push_back({products[i] % x0_,
                   NoiseModel::after_mult(jobs[i].first.noise_bits, jobs[i].second.noise_bits)});
  }
  return out;
}

void EvalKey::set_backend(std::shared_ptr<backend::MultiplierBackend> engine) {
  HEMUL_CHECK_MSG(engine != nullptr, "EvalKey requires a multiplication engine");
  engine_ = std::move(engine);
}

Dghv::Dghv(const DghvParams& params, u64 seed) : Dghv(params, seed, backend::auto_backend()) {}

Dghv::Dghv(const DghvParams& params, u64 seed,
           std::shared_ptr<backend::MultiplierBackend> engine)
    : EvalKey(params, std::move(engine)), rng_(seed) {
  pk_.params = params;

  // Secret key: odd eta-bit integer.
  p_ = BigUInt::random_bits(rng_, params.eta);
  if (!p_.is_odd()) p_ += BigUInt{1};

  // Exact public modulus x0 = q0 * p with q0 odd: (gamma - eta)-bit q0 and
  // eta-bit p make x0 gamma - 1 or gamma bits long.
  q0_ = BigUInt::random_bits(rng_, params.gamma - params.eta);
  if (!q0_.is_odd()) q0_ += BigUInt{1};
  pk_.x0 = q0_ * p_;
  x0_ = pk_.x0;
}

Dghv::Dghv(PublicKey public_key, bigint::BigUInt secret_key, u64 seed,
           std::shared_ptr<backend::MultiplierBackend> engine)
    : EvalKey(public_key.params, public_key.x0, std::move(engine)),
      p_(std::move(secret_key)), pk_(std::move(public_key)), rng_(seed) {
  HEMUL_CHECK_MSG(p_.is_odd(), "Dghv: secret key must be odd");
  bigint::DivModResult split = bigint::divmod(x0_, p_);
  HEMUL_CHECK_MSG(split.remainder.is_zero(), "Dghv: x0 is not a multiple of the secret key");
  q0_ = std::move(split.quotient);
}

BigUInt Dghv::encrypt_value(util::Rng& rng, bool message) const {
  // q <= q0 - 1 gives q*p <= x0 - p, and validate()'s rho + 32 < eta gives
  // 2r + m < 2^(rho+1) < p: the sum stays below x0.
  BigUInt c = BigUInt::random_below(rng, q0_) * p_;
  BigUInt noise = BigUInt::random_bits(rng, params_.rho) << 1;
  if (message) noise += BigUInt{1};
  c += noise;
  return c;
}

Ciphertext Dghv::encrypt(bool message) {
  return {encrypt_value(rng_, message), NoiseModel::fresh(params_)};
}

PublicKey Dghv::build_public_key(u64 seed) const {
  PublicKey pk{params_, x0_, {}};
  util::Rng rng(seed);
  pk.x.reserve(params_.tau);
  for (unsigned i = 0; i < params_.tau; ++i) pk.x.push_back(encrypt_value(rng, false));
  return pk;
}

bool Dghv::decrypt(const Ciphertext& c) const {
  // One-sided noise keeps the residue in [0, p); plain reduction suffices.
  return (c.value % p_).is_odd();
}

std::pair<PublicKey, bigint::BigUInt> Dghv::release_keys() && {
  return {std::move(pk_), std::move(p_)};
}

std::size_t Dghv::measured_noise_bits(const Ciphertext& c) const {
  return (c.value % p_).bit_length();
}

Ciphertext encrypt_public(const PublicKey& pk, util::Rng& rng, bool message) {
  HEMUL_CHECK_MSG(pk.x.size() == pk.params.tau,
                  "encrypt_public: the key needs its tau elements (Dghv::build_public_key)");
  // One buffer holds r + sum x_i: at most tau + 1 terms below x0, so one
  // spare limb takes the carries and one more the doubling. The rng draws
  // (r, then one flip per x_i) are those of the textbook loop
  // `c += xi << 1`, so the ciphertext is the same bit for bit.
  std::vector<u64> sum(pk.x0.limb_count() + 2, 0);
  const BigUInt r = BigUInt::random_bits(rng, pk.params.rho);
  bigint::add_into(sum, r.limbs(), 0);
  for (const BigUInt& xi : pk.x) {
    if (rng.flip()) bigint::add_into(sum, xi.limbs(), 0);
  }
  // c = 2 * (r + sum x_i) + m: the doubling fits in the spare top limb and
  // leaves bit 0 free for m.
  bigint::add_into(sum, sum, 0);
  sum[0] |= message ? 1u : 0u;
  return {BigUInt::from_limbs(std::move(sum)) % pk.x0, NoiseModel::fresh(pk.params)};
}

}  // namespace hemul::fhe
