#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "backend/backend.hpp"
#include "bigint/biguint.hpp"
#include "fhe/noise.hpp"
#include "fhe/params.hpp"
#include "util/rng.hpp"

namespace hemul::fhe {

/// A DGHV ciphertext: the integer value plus the tracked noise estimate.
struct Ciphertext {
  bigint::BigUInt value;
  double noise_bits = 0.0;
};

/// DGHV public key: the exact modulus x0 = q0*p and the tau noisy
/// encryptions of zero a party without p encrypts with (encrypt_public).
/// A tenant's key leaves x empty: the tenant encrypts with p
/// (Dghv::encrypt), and Dghv::build_public_key fills x only on request.
struct PublicKey {
  DghvParams params;
  bigint::BigUInt x0;
  std::vector<bigint::BigUInt> x;
};

/// The evaluation-only key context of a DGHV tenant: the parameters, the
/// public modulus x0 and the multiplication engine -- everything a party
/// needs to compute on ciphertexts, and nothing that lets it read them. A
/// serving shard holds exactly this per session (see fhe/session.hpp);
/// fhe::Graph, EvalState and Evaluator record and run circuits against it.
///
/// Homomorphic multiplication is one gamma-bit x gamma-bit integer product
/// -- precisely the operation the paper's accelerator implements. The
/// multiplication backend is pluggable so the examples can route it
/// through the simulated accelerator.
class EvalKey {
 public:
  /// An evaluation context for `params` and modulus `x0`. The engine
  /// defaults to the registry's auto policy (classical below the SSA
  /// advantage point, NTT above).
  EvalKey(const DghvParams& params, bigint::BigUInt x0,
          std::shared_ptr<backend::MultiplierBackend> engine = nullptr);

  /// Homomorphic XOR: c1 + c2 (mod x0).
  [[nodiscard]] Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;

  /// Homomorphic AND: c1 * c2 (mod x0) -- the accelerator workload.
  [[nodiscard]] Ciphertext multiply(const Ciphertext& a, const Ciphertext& b) const;

  /// Batched homomorphic AND through the backend's spectrum-caching batch
  /// executor: N products against one repeated ciphertext cost N+1 forward
  /// transforms instead of 3N on NTT engines.
  [[nodiscard]] std::vector<Ciphertext> multiply_batch(
      std::span<const std::pair<Ciphertext, Ciphertext>> jobs) const;

  /// Replaces the multiplication engine -- the one engine-mutation API.
  /// Bare multiplication functions plug in through
  /// backend::FunctionBackend:
  ///   scheme.set_backend(std::make_shared<backend::FunctionBackend>(fn));
  void set_backend(std::shared_ptr<backend::MultiplierBackend> engine);

  [[nodiscard]] const std::shared_ptr<backend::MultiplierBackend>& engine() const noexcept {
    return engine_;
  }

  [[nodiscard]] const DghvParams& params() const noexcept { return params_; }

  /// The public modulus every ciphertext is reduced by.
  [[nodiscard]] const bigint::BigUInt& x0() const noexcept { return x0_; }

 protected:
  /// For keygen: the derived class fills x0_ once it has drawn it.
  EvalKey(const DghvParams& params, std::shared_ptr<backend::MultiplierBackend> engine);

  DghvParams params_;
  bigint::BigUInt x0_;
  std::shared_ptr<backend::MultiplierBackend> engine_;
};

/// The DGHV somewhat-homomorphic scheme over the integers (CMNT variant:
/// the public modulus x0 is an exact multiple of the secret key, so
/// reductions modulo x0 add no noise): the tenant's full key context, i.e.
/// the evaluation context plus the secret key p, q0 = x0 / p and the
/// encryption randomness. It holds no public encryptions of zero: the
/// tenant encrypts with p (van Dijk-Gentry-Halevi-Vaikuntanathan,
/// EUROCRYPT'10, section 3), and build_public_key makes the tau elements
/// only for a party without p.
///
/// Noise convention: key and encryption noises are one-sided (r in
/// [0, 2^rho)), which keeps every residue non-negative and lets decryption
/// use a plain (uncentered) modular reduction. This is a documented,
/// security-irrelevant simplification of the symmetric-noise spec.
class Dghv : public EvalKey {
 public:
  /// Generates a key with the given deterministic seed, on the registry's
  /// auto engine: an odd eta-bit p, an odd (gamma - eta)-bit q0 and
  /// x0 = q0 * p, drawn in that order from Rng(seed), which then goes on
  /// to drive encrypt().
  Dghv(const DghvParams& params, u64 seed);

  /// Generates a key and runs all homomorphic multiplications on the
  /// given engine (any registered backend: "ssa", "hw", ...).
  Dghv(const DghvParams& params, u64 seed,
       std::shared_ptr<backend::MultiplierBackend> engine);

  /// Rebuilds a key context from existing key material, e.g. the keys a
  /// fleet client's create_session generated. One divmod(x0, p) yields q0
  /// and checks that x0 is a multiple of p. `seed` drives only this
  /// context's encryption randomness; public_key.x is carried, not used.
  /// The engine defaults to the registry's auto policy.
  Dghv(PublicKey public_key, bigint::BigUInt secret_key, u64 seed,
       std::shared_ptr<backend::MultiplierBackend> engine = nullptr);

  /// Secret-key encryption of one bit: c = q*p + 2r + m, q uniform below
  /// q0 (drawn first), then r of rho bits. q*p <= x0 - p and 2r + m < p,
  /// so c < x0 with no reduction.
  [[nodiscard]] Ciphertext encrypt(bool message);

  /// Decrypts: m = (c mod p) mod 2.
  [[nodiscard]] bool decrypt(const Ciphertext& c) const;

  /// params and x0; x is empty unless the context was rebuilt from a key
  /// that carried elements.
  [[nodiscard]] const PublicKey& public_key() const noexcept { return pk_; }

  /// The public key with its tau encryptions of zero, built on request for
  /// a party without p (encrypt_public). Each x_i is a secret-key
  /// encryption of 0, drawn from Rng(seed): a stream apart from encrypt()'s,
  /// so building the elements moves no tenant ciphertext, and the same key
  /// and seed give the same elements. Costs tau gamma-bit products (a few
  /// hundred ms at small_paper()); no session path calls it.
  [[nodiscard]] PublicKey build_public_key(u64 seed) const;

  /// Secret key access for the test suite (noise measurements).
  [[nodiscard]] const bigint::BigUInt& secret_key() const noexcept { return p_; }

  /// Moves the key pair out; the context must not be used afterwards.
  [[nodiscard]] std::pair<PublicKey, bigint::BigUInt> release_keys() &&;

  /// Bits of actual noise in a ciphertext (via the secret key).
  [[nodiscard]] std::size_t measured_noise_bits(const Ciphertext& c) const;

 private:
  /// q*p + 2r + m with q below q0, then r, drawn from `rng`.
  [[nodiscard]] bigint::BigUInt encrypt_value(util::Rng& rng, bool message) const;

  bigint::BigUInt p_;   ///< secret key: odd eta-bit integer
  bigint::BigUInt q0_;  ///< x0 / p: every encryption's q is drawn below it
  PublicKey pk_;        ///< pk_.params and pk_.x0 repeat params() and x0()
  util::Rng rng_;
};

/// Public-key encryption of one bit, for a party that holds only `pk`:
/// c = (m + 2r + 2 * sum_{i in S} x_i) mod x0, where S takes each x_i on
/// one coin. `rng` draws r, then one flip per x_i. Requires the tau
/// elements (Dghv::build_public_key).
[[nodiscard]] Ciphertext encrypt_public(const PublicKey& pk, util::Rng& rng, bool message);

}  // namespace hemul::fhe
