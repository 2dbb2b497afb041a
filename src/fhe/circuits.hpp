#pragma once

#include <vector>

#include "fhe/dghv.hpp"

namespace hemul::fhe {

/// An encrypted little-endian integer: bit i of the plaintext in word[i].
/// Word-level circuits over these are recorded as an fhe::Graph and run by
/// an fhe::Evaluator (or served through core::Service).
using EncryptedInt = std::vector<Ciphertext>;

/// Encrypts an integer bit by bit (width bits, little-endian).
EncryptedInt encrypt_int(Dghv& scheme, u64 value, unsigned width);

/// Decrypts an encrypted integer.
u64 decrypt_int(const Dghv& scheme, const EncryptedInt& value);

}  // namespace hemul::fhe
