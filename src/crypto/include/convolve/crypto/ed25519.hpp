// Ed25519 signatures (RFC 8032).
//
// Keystone's default attestation chain signs with Ed25519; CONVOLVE keeps it
// in a hybrid construction next to ML-DSA so that security never drops below
// the classical baseline. This implementation is complete and from scratch:
// GF(2^255-19) arithmetic on 5x51-bit limbs, extended twisted-Edwards group
// law, point compression/decompression and scalar arithmetic mod the group
// order L, all in detail/ed25519_core.hpp. Key derivation and signing are
// constant-time -- a fixed-base signed radix-16 comb that scans every table
// entry under a mask, a fixed inversion chain and Barrett reduction mod L
// -- and ct_lint's ed25519-sign suite checks exactly that code. Verify
// handles only public data and may branch on it. Validated against RFC
// 8032 vectors.
#pragma once

#include <array>
#include <optional>

#include "convolve/common/bytes.hpp"

namespace convolve::crypto {

struct Ed25519KeyPair {
  std::array<std::uint8_t, 32> seed{};        // private seed
  std::array<std::uint8_t, 32> public_key{};  // compressed point A
};

/// Derive the key pair from a 32-byte seed (deterministic).
Ed25519KeyPair ed25519_keypair(ByteView seed);

/// Produce a 64-byte signature R || S.
std::array<std::uint8_t, 64> ed25519_sign(const Ed25519KeyPair& kp,
                                          ByteView message);

/// Verify; returns false on any malformed input (bad point encoding,
/// non-canonical S) or signature mismatch.
bool ed25519_verify(ByteView public_key, ByteView message, ByteView signature);

}  // namespace convolve::crypto
