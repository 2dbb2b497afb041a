#pragma once

#include <span>

#include "fhe/dghv.hpp"
#include "fhe/serialize.hpp"

namespace hemul::fhe {

/// Everything a server needs to serve one tenant, and nothing that
/// decrypts: the parameters, the public modulus x0 and the constant
/// encryptions of 0 and 1 that the builtin circuits splice in. It is the
/// body of a kCreateSession message; the tenant keeps p and encrypts with
/// it. No party builds the tau public encryptions of zero for a session.
struct SessionCreate {
  DghvParams params;
  bigint::BigUInt x0;
  Ciphertext zero;
  Ciphertext one;

  /// Checks what a server can check without p: params pass validate(), x0
  /// is odd and gamma - 1 or gamma bits long (the range keygen's
  /// x0 = q0 * p spans), and both constants are reduced modulo x0. Throws
  /// SerializeError, since the material usually crossed a trust boundary.
  void validate() const;
};

/// Wire form of a SessionCreate: a kParams frame, a kBigUInt frame (x0) and
/// two kCiphertext frames (zero, one), back to back. Every byte is a public
/// value: no kSecretKey or kPublicKey frame ever enters it.
Bytes encode_session_create(const SessionCreate& create);

/// Inverse of encode_session_create. Decodes the frames only (validate()
/// checks the values); rejects trailing bytes and names the retired
/// params || u64 seed layout when it sees it.
SessionCreate decode_session_create(std::span<const u8> payload);

/// A tenant's side of session creation: its full key context and the
/// material it sends to the server.
struct TenantKeys {
  Dghv scheme;
  SessionCreate create;
};

/// The one tenant keygen: Dghv(params, seed), then encrypt(false) and
/// encrypt(true) in that order as the session's constants. The same
/// (params, seed) therefore gives the same keys and constants wherever it
/// runs, which is what makes a replayed create bit-exact. `scheme` comes
/// back with those two draws spent.
TenantKeys tenant_keygen(const DghvParams& params, u64 seed);

}  // namespace hemul::fhe
