#include "convolve/crypto/dilithium.hpp"

#include <gtest/gtest.h>

#include "convolve/common/rng.hpp"
#include "convolve/crypto/detail/dilithium_rounding.hpp"
#include "convolve/crypto/keccak.hpp"

namespace convolve::crypto::dilithium {
namespace {

TEST(Dilithium, ObjectSizesMatchMlDsa44) {
  // These sizes drive the attestation-report delta in the paper's Table III.
  EXPECT_EQ(kPkBytes, 1312u);
  EXPECT_EQ(kSkBytes, 2560u);
  EXPECT_EQ(kSigBytes, 2420u);
  const auto kp = keygen(Bytes(32, 1));
  EXPECT_EQ(kp.pk.size(), kPkBytes);
  EXPECT_EQ(kp.sk.size(), kSkBytes);
  const Bytes sig = sign(kp.sk, as_bytes("m"));
  EXPECT_EQ(sig.size(), kSigBytes);
}

TEST(Dilithium, SignVerifyRoundTrip) {
  const auto kp = keygen(Bytes(32, 2));
  const auto msg = as_bytes("enclave measurement report");
  const Bytes sig = sign(kp.sk, msg);
  EXPECT_TRUE(verify(kp.pk, msg, sig));
}

TEST(Dilithium, DeterministicSignature) {
  const auto kp = keygen(Bytes(32, 3));
  EXPECT_EQ(sign(kp.sk, as_bytes("x")), sign(kp.sk, as_bytes("x")));
}

TEST(Dilithium, KeygenDeterministic) {
  EXPECT_EQ(keygen(Bytes(32, 4)).pk, keygen(Bytes(32, 4)).pk);
  EXPECT_NE(keygen(Bytes(32, 4)).pk, keygen(Bytes(32, 5)).pk);
}

TEST(Dilithium, TamperedMessageRejected) {
  const auto kp = keygen(Bytes(32, 6));
  const Bytes sig = sign(kp.sk, as_bytes("abc"));
  EXPECT_FALSE(verify(kp.pk, as_bytes("abd"), sig));
}

TEST(Dilithium, TamperedSignatureRejected) {
  const auto kp = keygen(Bytes(32, 7));
  Bytes sig = sign(kp.sk, as_bytes("abc"));
  for (std::size_t pos : {0u, 40u, 1000u, 2400u}) {
    Bytes bad = sig;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(verify(kp.pk, as_bytes("abc"), bad)) << "pos " << pos;
  }
}

TEST(Dilithium, WrongKeyRejected) {
  const auto kp1 = keygen(Bytes(32, 8));
  const auto kp2 = keygen(Bytes(32, 9));
  const Bytes sig = sign(kp1.sk, as_bytes("abc"));
  EXPECT_FALSE(verify(kp2.pk, as_bytes("abc"), sig));
}

TEST(Dilithium, MalformedInputsRejected) {
  const auto kp = keygen(Bytes(32, 10));
  const Bytes sig = sign(kp.sk, as_bytes("m"));
  EXPECT_FALSE(verify(Bytes(100, 0), as_bytes("m"), sig));
  EXPECT_FALSE(verify(kp.pk, as_bytes("m"), Bytes(100, 0)));
  // Corrupt hint encoding: non-monotone positions.
  Bytes bad = sig;
  const std::size_t hint_off = 32 + 576 * kL;
  bad[hint_off + kOmega] = kOmega;  // claim many hints in poly 0
  EXPECT_FALSE(verify(kp.pk, as_bytes("m"), bad));
}

TEST(Dilithium, RandomSeedsRoundTrip) {
  Xoshiro256 rng(4242);
  for (int i = 0; i < 5; ++i) {
    Bytes seed(32);
    rng.fill_bytes(seed);
    const auto kp = keygen(seed);
    Bytes msg(50 + i * 13);
    rng.fill_bytes(msg);
    const Bytes sig = sign(kp.sk, msg);
    EXPECT_TRUE(verify(kp.pk, msg, sig)) << "iteration " << i;
  }
}

TEST(Dilithium, EmptyMessageSupported) {
  const auto kp = keygen(Bytes(32, 11));
  const Bytes sig = sign(kp.sk, {});
  EXPECT_TRUE(verify(kp.pk, {}, sig));
  EXPECT_FALSE(verify(kp.pk, as_bytes("x"), sig));
}

TEST(Dilithium, RejectsBadSeed) {
  EXPECT_THROW(keygen(Bytes(31, 0)), std::invalid_argument);
  EXPECT_THROW(sign(Bytes(100, 0), as_bytes("m")), std::invalid_argument);
  EXPECT_THROW(expand_signing_key(Bytes(kSkBytes - 1, 0)),
               std::invalid_argument);
}

// The expanded key signs the golden message to the digest pinned in
// Golden.DilithiumKeygenSign.
TEST(Dilithium, ExpandedKeyMatchesGoldenSignature) {
  const auto kp = keygen(Bytes(32, 0x33));
  const SigningKey key = expand_signing_key(kp.sk);
  const Bytes sig = sign(key, as_bytes("golden"));
  EXPECT_EQ(to_hex(sha3_256(sig)),
            "6b232df6750e13a595e2cbba2878b2a29f61445097d475c1b0c00e93ac2623e0");
  EXPECT_EQ(sig, sign(kp.sk, as_bytes("golden")));
}

// One expanded key, reused across messages, signs exactly what the packed
// key does, and the signatures verify.
TEST(Dilithium, ExpandedKeyMatchesPackedKeyOnSeededPairs) {
  Xoshiro256 rng(0x51C4EDu);
  for (int i = 0; i < 32; ++i) {
    Bytes seed(32);
    rng.fill_bytes(seed);
    const auto kp = keygen(seed);
    const SigningKey key = expand_signing_key(kp.sk);
    for (int m = 0; m < 2; ++m) {
      Bytes msg(rng.uniform(1100));
      rng.fill_bytes(msg);
      const Bytes sig = sign(key, msg);
      EXPECT_EQ(sig, sign(kp.sk, msg)) << "pair " << i << " message " << m;
      EXPECT_TRUE(verify(kp.pk, msg, sig)) << "pair " << i << " message " << m;
    }
  }
}

// FIPS 204 section 7.4 as written in the spec, with `%`, `/` and branches:
// the oracle for the branch-free detail/dilithium_rounding.hpp functions.
namespace spec {

std::int32_t mod_q(std::int64_t a) {
  std::int64_t r = a % kQ;
  if (r < 0) r += kQ;
  return static_cast<std::int32_t>(r);
}

void power2round(std::int32_t r, std::int32_t& r1, std::int32_t& r0) {
  const std::int32_t half = 1 << (kD - 1);
  r0 = r & ((1 << kD) - 1);
  if (r0 > half) r0 -= (1 << kD);
  r1 = (r - r0) >> kD;
}

void decompose(std::int32_t r, std::int32_t& r1, std::int32_t& r0) {
  const std::int32_t alpha = 2 * kGamma2;
  r0 = r % alpha;
  if (r0 > alpha / 2) r0 -= alpha;
  if (r - r0 == kQ - 1) {
    r1 = 0;
    r0 -= 1;
  } else {
    r1 = (r - r0) / alpha;
  }
}

std::int32_t high_bits(std::int32_t r) {
  std::int32_t r1, r0;
  decompose(r, r1, r0);
  return r1;
}

bool make_hint(std::int32_t z, std::int32_t r) {
  return high_bits(r) != high_bits(mod_q(static_cast<std::int64_t>(r) + z));
}

std::int32_t use_hint(bool hint, std::int32_t r) {
  constexpr std::int32_t m = (kQ - 1) / (2 * kGamma2);
  std::int32_t r1, r0;
  decompose(r, r1, r0);
  if (!hint) return r1;
  return (r0 > 0) ? (r1 + 1) % m : (r1 - 1 + m) % m;
}

}  // namespace spec

// Every r in [0, q): power2round, decompose, make_hint (against a seeded
// centred z, the range signing passes) and use_hint with either hint.
TEST(DilithiumRounding, BranchFreeMatchesSpecOnEveryCoefficient) {
  Xoshiro256 rng(0x70D1u);
  std::int64_t mismatches = 0;
  for (std::int32_t r = 0; r < kQ; ++r) {
    std::int32_t a1, a0, b1, b0;
    detail::power2round(r, a1, a0);
    spec::power2round(r, b1, b0);
    mismatches += (a1 != b1) + (a0 != b0);
    detail::decompose(r, a1, a0);
    spec::decompose(r, b1, b0);
    mismatches += (a1 != b1) + (a0 != b0);
    const auto z = static_cast<std::int32_t>(rng.uniform(2 * kGamma2 - 1)) -
                   (kGamma2 - 1);
    const std::int32_t hint =
        detail::make_hint<std::int32_t, std::int64_t>(z, r);
    mismatches += hint != static_cast<std::int32_t>(spec::make_hint(z, r));
    mismatches += detail::use_hint(0, r) != spec::use_hint(false, r);
    mismatches += detail::use_hint(1, r) != spec::use_hint(true, r);
    if (mismatches != 0) {
      ADD_FAILURE() << "first mismatch at r = " << r << ", z = " << z;
      break;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace convolve::crypto::dilithium
