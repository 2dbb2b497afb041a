#include "fhe/circuits.hpp"

namespace hemul::fhe {

EncryptedInt encrypt_int(Dghv& scheme, u64 value, unsigned width) {
  EncryptedInt out;
  out.reserve(width);
  for (unsigned i = 0; i < width; ++i) {
    out.push_back(scheme.encrypt((value >> i) & 1u));
  }
  return out;
}

u64 decrypt_int(const Dghv& scheme, const EncryptedInt& value) {
  u64 out = 0;
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (scheme.decrypt(value[i])) out |= 1ULL << i;
  }
  return out;
}

}  // namespace hemul::fhe
