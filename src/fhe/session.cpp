#include "fhe/session.hpp"

#include <stdexcept>
#include <string>

namespace hemul::fhe {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw SerializeError("create session: " + what);
}

void append(Bytes& out, const Bytes& frame) { out.insert(out.end(), frame.begin(), frame.end()); }

}  // namespace

void SessionCreate::validate() const {
  try {
    params.validate();
  } catch (const std::invalid_argument& e) {
    reject(std::string("inconsistent DGHV parameters: ") + e.what());
  }
  if (x0.is_zero()) reject("x0 is zero");
  if (!x0.is_odd()) reject("x0 is even, so it is no product of odd q0 and p");
  const std::size_t bits = x0.bit_length();
  if (bits + 1 < params.gamma || bits > params.gamma) {
    reject("x0 has " + std::to_string(bits) + " bits; gamma = " +
           std::to_string(params.gamma) + " allows gamma - 1 or gamma");
  }
  if (!(zero.value < x0) || !(one.value < x0)) reject("a constant is not reduced modulo x0");
}

Bytes encode_session_create(const SessionCreate& create) {
  Bytes out = encode_params(create.params);
  append(out, encode_biguint(create.x0));
  append(out, encode_ciphertext(create.zero));
  append(out, encode_ciphertext(create.one));
  return out;
}

SessionCreate decode_session_create(std::span<const u8> payload) {
  ByteReader reader(payload);
  SessionCreate create;
  create.params = decode_params(reader);
  if (reader.remaining() == 8) {
    reject("the params || u64 seed payload is retired: keygen runs on the tenant, which "
           "sends params || x0 || zero || one");
  }
  create.x0 = decode_biguint(reader);
  create.zero = decode_ciphertext(reader);
  create.one = decode_ciphertext(reader);
  if (!reader.at_end()) reject("trailing bytes after the payload");
  return create;
}

TenantKeys tenant_keygen(const DghvParams& params, u64 seed) {
  TenantKeys keys{Dghv(params, seed), {}};
  keys.create.params = params;
  keys.create.x0 = keys.scheme.x0();
  // Two statements, so the draw order is fixed: zero first, then one.
  keys.create.zero = keys.scheme.encrypt(false);
  keys.create.one = keys.scheme.encrypt(true);
  return keys;
}

}  // namespace hemul::fhe
