// Dilithium / ML-DSA-44-shaped lattice signature scheme.
//
// The paper's PQ-enabled Keystone adds ML-DSA-44 next to Ed25519 in a hybrid
// construction (Table III); the attestation-report and bootrom size deltas
// reported there follow directly from this scheme's object sizes, which this
// implementation reproduces exactly: public key 1312 B, secret key 2560 B,
// signature 2420 B.
//
// This is a complete from-scratch implementation of the FIPS 204 algorithm
// structure for the parameter set (k,l)=(4,4), eta=2, tau=39, gamma1=2^17,
// gamma2=(q-1)/88, omega=80: NTT over Z_8380417, Power2Round, Decompose,
// MakeHint/UseHint, SampleInBall and the deterministic rejection-sampling
// signing loop. It is self-consistent (sign/verify round-trips, forgeries
// rejected) but not guaranteed bit-interoperable with FIPS 204 KATs; see
// the substitution ledger in DESIGN.md.
#pragma once

#include <array>

#include "convolve/common/bytes.hpp"

namespace convolve::crypto::dilithium {

inline constexpr int kN = 256;
inline constexpr std::int32_t kQ = 8380417;
inline constexpr int kK = 4;  // rows
inline constexpr int kL = 4;  // columns
inline constexpr int kEta = 2;
inline constexpr int kTau = 39;
inline constexpr std::int32_t kGamma1 = 1 << 17;
inline constexpr std::int32_t kGamma2 = (kQ - 1) / 88;
inline constexpr int kD = 13;
inline constexpr int kOmega = 80;
inline constexpr std::int32_t kBeta = kTau * kEta;  // 78

inline constexpr std::size_t kPkBytes = 32 + 320 * kK;             // 1312
inline constexpr std::size_t kSkBytes =
    32 + 32 + 64 + 96 * (kK + kL) + 416 * kK;                      // 2560
inline constexpr std::size_t kSigBytes = 32 + 576 * kL + kOmega + kK;  // 2420

using Poly = std::array<std::int32_t, kN>;

struct KeyPair {
  Bytes pk;
  Bytes sk;
};

/// A secret key expanded once for repeated signing, as FIPS 204 permits:
/// the matrix A-hat and s1-hat, s2-hat, t0-hat, all in the NTT domain,
/// plus the seed K and public-key hash tr that signing hashes. About
/// 28 KB, against 2560 B packed.
struct SigningKey {
  std::array<std::uint8_t, 32> seed_k{};
  std::array<std::uint8_t, 64> tr{};
  std::array<std::array<Poly, kL>, kK> a_hat{};
  std::array<Poly, kL> s1_hat{};
  std::array<Poly, kK> s2_hat{};
  std::array<Poly, kK> t0_hat{};
};

/// Deterministic key generation from a 32-byte seed.
KeyPair keygen(ByteView seed32);

/// Unpack, transform and expand a packed secret key.
SigningKey expand_signing_key(ByteView sk);

/// Deterministic signature (FIPS 204 "hedged" variant with rnd = 0).
Bytes sign(const SigningKey& key, ByteView message);

/// sign(expand_signing_key(sk), message): the same bytes.
Bytes sign(ByteView sk, ByteView message);

/// Verify a signature; returns false on any malformed or forged input.
bool verify(ByteView pk, ByteView message, ByteView signature);

}  // namespace convolve::crypto::dilithium
