#include "convolve/crypto/aes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "convolve/common/rng.hpp"

namespace convolve::crypto {
namespace {

// Byte-wise CTR over Aes::encrypt_block, one block per counter value: the
// reference the four-block bit-plane aes256_ctr must match byte for byte.
Bytes blockwise_ctr(ByteView key, ByteView nonce, std::uint32_t ctr,
                    ByteView data) {
  const Aes aes(Aes::KeySize::k256, key);
  Bytes out(data.begin(), data.end());
  std::uint8_t block[16] = {};
  std::copy(nonce.begin(), nonce.end(), block);
  for (std::size_t off = 0; off < out.size(); off += 16) {
    store_be32(block + 12, ctr++);
    std::uint8_t keystream[16];
    aes.encrypt_block(block, keystream);
    for (std::size_t i = 0; i < 16 && off + i < out.size(); ++i) {
      out[off + i] ^= keystream[i];
    }
  }
  return out;
}

// FIPS 197 Appendix C vectors.
TEST(Aes, Fips197Aes128) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  const Aes aes(Aes::KeySize::k128, key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex({ct, 16}), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197Aes256) {
  const Bytes key =
      from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  const Aes aes(Aes::KeySize::k256, key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex({ct, 16}), "8ea2b7ca516745bfeafc49904b496089");
}

// NIST SP 800-38A AES-256 ECB vector.
TEST(Aes, Sp80038aAes256Ecb) {
  const Bytes key = from_hex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  const Aes aes(Aes::KeySize::k256, key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex({ct, 16}), "f3eed1bdb5d2a03c064b5a7e3db181f8");
}

TEST(Aes, DecryptInvertsEncrypt128) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Aes aes(Aes::KeySize::k128, key);
  for (int trial = 0; trial < 32; ++trial) {
    std::uint8_t pt[16], ct[16], back[16];
    for (int i = 0; i < 16; ++i) {
      pt[i] = static_cast<std::uint8_t>(trial * 16 + i);
    }
    aes.encrypt_block(pt, ct);
    aes.decrypt_block(ct, back);
    EXPECT_EQ(Bytes(pt, pt + 16), Bytes(back, back + 16));
  }
}

TEST(Aes, DecryptInvertsEncrypt256) {
  const Bytes key(32, 0x5c);
  const Aes aes(Aes::KeySize::k256, key);
  std::uint8_t pt[16] = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6};
  std::uint8_t ct[16], back[16];
  aes.encrypt_block(pt, ct);
  aes.decrypt_block(ct, back);
  EXPECT_EQ(Bytes(pt, pt + 16), Bytes(back, back + 16));
}

TEST(Aes, RejectsWrongKeyLength) {
  EXPECT_THROW(Aes(Aes::KeySize::k128, Bytes(32, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Aes::KeySize::k256, Bytes(16, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Aes::KeySize::k256, Bytes(31, 0)), std::invalid_argument);
}

TEST(Aes, RoundCounts) {
  EXPECT_EQ(Aes(Aes::KeySize::k128, Bytes(16, 0)).rounds(), 10);
  EXPECT_EQ(Aes(Aes::KeySize::k256, Bytes(32, 0)).rounds(), 14);
}

TEST(AesCtr, RoundTrip) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  const auto view = as_bytes("The quick brown fox jumps over the lazy dog");
  const Bytes pt(view.begin(), view.end());
  const Bytes ct = aes256_ctr(key, nonce, 0, pt);
  EXPECT_NE(ct, pt);
  EXPECT_EQ(aes256_ctr(key, nonce, 0, ct), pt);
}

TEST(AesCtr, CounterOffsetsKeystream) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  const Bytes zeros(32, 0);
  const Bytes ks0 = aes256_ctr(key, nonce, 0, zeros);
  const Bytes ks1 = aes256_ctr(key, nonce, 1, zeros);
  // Block 1 of ks0 equals block 0 of ks1.
  EXPECT_EQ(Bytes(ks0.begin() + 16, ks0.end()),
            Bytes(ks1.begin(), ks1.begin() + 16));
}

TEST(AesCtr, RejectsBadNonce) {
  EXPECT_THROW(aes256_ctr(Bytes(32, 0), Bytes(11, 0), 0, Bytes(4, 0)),
               std::invalid_argument);
}

TEST(AesCtr, NonBlockAlignedLength) {
  const Bytes key(32, 0x33);
  const Bytes nonce(12, 0x44);
  const Bytes pt(23, 0xab);
  EXPECT_EQ(aes256_ctr(key, nonce, 0, aes256_ctr(key, nonce, 0, pt)), pt);
}

// Differential: lengths around the 16-byte block and 64-byte pass edges,
// plus a full 4 KiB seal body, at initial counters whose 32-bit wrap lands
// inside one four-block pass; then seeded random lengths 0-300.
TEST(AesCtr, MatchesBlockwiseReference) {
  Xoshiro256 rng(0xAE5C7Au);
  const auto check = [&rng](std::size_t len, std::uint32_t ctr) {
    Bytes key(32), nonce(12), data(len);
    rng.fill_bytes(key);
    rng.fill_bytes(nonce);
    rng.fill_bytes(data);
    EXPECT_EQ(aes256_ctr(key, nonce, ctr, data),
              blockwise_ctr(key, nonce, ctr, data))
        << "len " << len << " ctr " << ctr;
  };
  const std::vector<std::size_t> edge_lengths = {0,  1,  15, 16,  17,
                                                 63, 64, 65, 300, 4096};
  const std::vector<std::uint32_t> counters = {0u, 1u, 0xfffffffdu,
                                               0xfffffffeu, 0xffffffffu};
  int cases = 0;
  for (const std::size_t len : edge_lengths) {
    for (const std::uint32_t ctr : counters) {
      check(len, ctr);
      ++cases;
    }
  }
  for (int i = 0; i < 200; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniform(301));
    const std::uint32_t ctr =
        (i % 2 == 0) ? counters[rng.uniform(counters.size())]
                     : static_cast<std::uint32_t>(rng.next_u64());
    check(len, ctr);
    ++cases;
  }
  EXPECT_GE(cases, 250);
}

// The keystream at counter 2^32 - 1 continues at counter 0, as in the
// block-at-a-time form.
TEST(AesCtr, CounterWrapsInsideOnePass) {
  const Bytes key(32, 0x5a);
  const Bytes nonce(12, 0xc3);
  const Bytes zeros(64, 0);
  const Bytes wrapped = aes256_ctr(key, nonce, 0xfffffffeu, zeros);
  const Bytes from_zero = aes256_ctr(key, nonce, 0, Bytes(32, 0));
  EXPECT_EQ(Bytes(wrapped.begin() + 32, wrapped.end()), from_zero);
}

TEST(AesCtr, RejectsBadKey) {
  EXPECT_THROW(aes256_ctr(Bytes(16, 0), Bytes(12, 0), 0, Bytes(4, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace convolve::crypto
