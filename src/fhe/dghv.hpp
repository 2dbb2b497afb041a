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
/// encryptions of zero used by the subset-sum encryption.
struct PublicKey {
  DghvParams params;
  bigint::BigUInt x0;
  std::vector<bigint::BigUInt> x;
};

/// The DGHV somewhat-homomorphic scheme over the integers (CMNT variant:
/// the public modulus x0 is an exact multiple of the secret key, so
/// reductions modulo x0 add no noise).
///
/// Homomorphic multiplication is one gamma-bit x gamma-bit integer product
/// -- precisely the operation the paper's accelerator implements. The
/// multiplication backend is pluggable so the examples can route it
/// through the simulated accelerator.
///
/// Noise convention: key and encryption noises are one-sided (r in
/// [0, 2^rho)), which keeps every residue non-negative and lets decryption
/// use a plain (uncentered) modular reduction. This is a documented,
/// security-irrelevant simplification of the symmetric-noise spec.
class Dghv {
 public:
  /// Generates a key pair with the given deterministic seed. The default
  /// multiplication engine is the registry's auto policy (classical below
  /// the SSA advantage point, NTT above).
  Dghv(const DghvParams& params, u64 seed);

  /// Generates a key pair and runs all homomorphic multiplications on the
  /// given engine (any registered backend: "ssa", "hw", ...).
  Dghv(const DghvParams& params, u64 seed,
       std::shared_ptr<backend::MultiplierBackend> engine);

  /// Rebuilds a key context from existing key material -- the remote-tenant
  /// path: a fleet client receives serialized keys from the shard that ran
  /// keygen and encrypts/decrypts locally against them. `seed` drives only
  /// this context's encryption randomness. The engine defaults to the
  /// registry's auto policy.
  Dghv(PublicKey public_key, bigint::BigUInt secret_key, u64 seed,
       std::shared_ptr<backend::MultiplierBackend> engine = nullptr);

  /// Encrypts one bit: c = (m + 2r + 2 * sum_{i in S} x_i) mod x0.
  [[nodiscard]] Ciphertext encrypt(bool message);

  /// Decrypts: m = (c mod p) mod 2.
  [[nodiscard]] bool decrypt(const Ciphertext& c) const;

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

  [[nodiscard]] const PublicKey& public_key() const noexcept { return pk_; }
  [[nodiscard]] const DghvParams& params() const noexcept { return pk_.params; }

  /// Secret key access for the test suite (noise measurements).
  [[nodiscard]] const bigint::BigUInt& secret_key() const noexcept { return p_; }

  /// Bits of actual noise in a ciphertext (via the secret key).
  [[nodiscard]] std::size_t measured_noise_bits(const Ciphertext& c) const;

 private:
  bigint::BigUInt p_;  ///< secret key: odd eta-bit integer
  PublicKey pk_;
  util::Rng rng_;
  std::shared_ptr<backend::MultiplierBackend> engine_;
};

}  // namespace hemul::fhe
