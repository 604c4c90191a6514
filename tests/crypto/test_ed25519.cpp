#include "convolve/crypto/ed25519.hpp"

#include <gtest/gtest.h>

#include "convolve/common/rng.hpp"
#include "convolve/crypto/detail/ed25519_core.hpp"

namespace convolve::crypto {
namespace {

Bytes arr_to_bytes(ByteView v) { return Bytes(v.begin(), v.end()); }

// RFC 8032 section 7.1, TEST 1 (empty message).
TEST(Ed25519, Rfc8032Test1) {
  const Bytes seed = from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(to_hex({kp.public_key.data(), 32}),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  const auto sig = ed25519_sign(kp, {});
  EXPECT_EQ(to_hex({sig.data(), 64}),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(ed25519_verify({kp.public_key.data(), 32}, {}, {sig.data(), 64}));
}

// RFC 8032 TEST 2 (one-byte message 0x72).
TEST(Ed25519, Rfc8032Test2) {
  const Bytes seed = from_hex(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(to_hex({kp.public_key.data(), 32}),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  const Bytes msg = {0x72};
  const auto sig = ed25519_sign(kp, msg);
  EXPECT_EQ(to_hex({sig.data(), 64}),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
}

// RFC 8032 TEST 3 (two-byte message af82).
TEST(Ed25519, Rfc8032Test3) {
  const Bytes seed = from_hex(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(to_hex({kp.public_key.data(), 32}),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025");
  const Bytes msg = from_hex("af82");
  const auto sig = ed25519_sign(kp, msg);
  EXPECT_EQ(to_hex({sig.data(), 64}),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
  EXPECT_TRUE(
      ed25519_verify({kp.public_key.data(), 32}, msg, {sig.data(), 64}));
}

TEST(Ed25519, TamperedMessageRejected) {
  const Bytes seed(32, 0x42);
  const auto kp = ed25519_keypair(seed);
  const auto msg_view = as_bytes("attestation report");
  const Bytes msg(msg_view.begin(), msg_view.end());
  const auto sig = ed25519_sign(kp, msg);
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(
      ed25519_verify({kp.public_key.data(), 32}, tampered, {sig.data(), 64}));
}

TEST(Ed25519, TamperedSignatureRejected) {
  const Bytes seed(32, 0x43);
  const auto kp = ed25519_keypair(seed);
  const Bytes msg = {1, 2, 3};
  auto sig = ed25519_sign(kp, msg);
  sig[10] ^= 0x20;
  EXPECT_FALSE(
      ed25519_verify({kp.public_key.data(), 32}, msg, {sig.data(), 64}));
}

TEST(Ed25519, WrongKeyRejected) {
  const auto kp1 = ed25519_keypair(Bytes(32, 1));
  const auto kp2 = ed25519_keypair(Bytes(32, 2));
  const Bytes msg = {9};
  const auto sig = ed25519_sign(kp1, msg);
  EXPECT_FALSE(
      ed25519_verify({kp2.public_key.data(), 32}, msg, {sig.data(), 64}));
}

TEST(Ed25519, MalformedInputsRejected) {
  const auto kp = ed25519_keypair(Bytes(32, 3));
  const Bytes msg = {1};
  const auto sig = ed25519_sign(kp, msg);
  EXPECT_FALSE(ed25519_verify(Bytes(31, 0), msg, {sig.data(), 64}));
  EXPECT_FALSE(ed25519_verify({kp.public_key.data(), 32}, msg, Bytes(63, 0)));
  // Non-canonical S (>= L): set high bits of S.
  auto bad = sig;
  for (int i = 32; i < 64; ++i) bad[i] = 0xff;
  EXPECT_FALSE(
      ed25519_verify({kp.public_key.data(), 32}, msg, {bad.data(), 64}));
}

TEST(Ed25519, SignatureIsDeterministic) {
  const auto kp = ed25519_keypair(Bytes(32, 7));
  const Bytes msg = {5, 5, 5};
  EXPECT_EQ(arr_to_bytes({ed25519_sign(kp, msg).data(), 64}),
            arr_to_bytes({ed25519_sign(kp, msg).data(), 64}));
}

TEST(Ed25519, RejectsBadSeedLength) {
  EXPECT_THROW(ed25519_keypair(Bytes(16, 0)), std::invalid_argument);
}

TEST(Ed25519, ManySeedsRoundTrip) {
  for (int i = 0; i < 8; ++i) {
    Bytes seed(32, 0);
    seed[0] = static_cast<std::uint8_t>(i * 37 + 1);
    seed[31] = static_cast<std::uint8_t>(i);
    const auto kp = ed25519_keypair(seed);
    Bytes msg(i + 1, static_cast<std::uint8_t>(i));
    const auto sig = ed25519_sign(kp, msg);
    EXPECT_TRUE(
        ed25519_verify({kp.public_key.data(), 32}, msg, {sig.data(), 64}))
        << "seed " << i;
  }
}

// --- Differential tests of the detail/ed25519_core.hpp kernels ---------------

namespace ed = detail::ed25519;
using u64 = std::uint64_t;
using u128 = unsigned __int128;
using Words = std::array<u64, 4>;

// Reduction mod l by binary long division over a 9-word accumulator: the
// variable-time reference the fixed-schedule Barrett code replaced.
namespace longdiv {

using Wide = std::array<u64, 9>;  // little-endian

int bit_length(const Wide& a) {
  for (int i = 8; i >= 0; --i) {
    if (a[static_cast<std::size_t>(i)] != 0) {
      int bit = 63;
      while (((a[static_cast<std::size_t>(i)] >> bit) & 1) == 0) --bit;
      return 64 * i + bit + 1;
    }
  }
  return 0;
}

Wide shifted_order(int shift) {
  Wide c{};
  const int word = shift / 64;
  const int bits = shift % 64;
  for (int i = 0; i < 4; ++i) {
    const u64 l = ed::kOrder[static_cast<std::size_t>(i)];
    c[static_cast<std::size_t>(i + word)] |= l << bits;
    if (bits != 0 && i + word + 1 < 9) {
      c[static_cast<std::size_t>(i + word + 1)] |= l >> (64 - bits);
    }
  }
  return c;
}

bool ge(const Wide& a, const Wide& b) {
  for (int i = 8; i >= 0; --i) {
    const auto k = static_cast<std::size_t>(i);
    if (a[k] != b[k]) return a[k] > b[k];
  }
  return true;
}

void sub(Wide& a, const Wide& b) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < 9; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
}

Words mod_l(Wide a) {
  for (int bits = bit_length(a); bits >= 253; bits = bit_length(a)) {
    const int shift = bits - 253;
    if (ge(a, shifted_order(shift))) {
      sub(a, shifted_order(shift));
    } else if (shift > 0) {
      sub(a, shifted_order(shift - 1));
    } else {
      break;
    }
  }
  if (ge(a, shifted_order(0))) sub(a, shifted_order(0));
  return {a[0], a[1], a[2], a[3]};
}

Words muladd(const Words& a, const Words& b, const Words& c) {
  Wide x{};
  for (std::size_t i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + x[i + j] + carry;
      x[i + j] = static_cast<u64>(cur);
      carry = cur >> 64;
    }
    x[i + 4] = static_cast<u64>(carry);
  }
  u128 carry = 0;
  for (std::size_t i = 0; i < 9; ++i) {
    const u128 cur = static_cast<u128>(x[i]) + (i < 4 ? c[i] : 0) + carry;
    x[i] = static_cast<u64>(cur);
    carry = cur >> 64;
  }
  return mod_l(x);
}

}  // namespace longdiv

std::array<u64, 8> wide_words(const longdiv::Wide& w) {
  std::array<u64, 8> out{};
  for (std::size_t i = 0; i < 8; ++i) out[i] = w[i];
  return out;
}

Words random_words(Xoshiro256& rng) {
  return {rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()};
}

TEST(Ed25519Kernels, BarrettReductionMatchesLongDivision) {
  std::vector<longdiv::Wide> inputs;
  const longdiv::Wide l = longdiv::shifted_order(0);
  longdiv::Wide l_minus_1 = l;
  l_minus_1[0] -= 1;
  longdiv::Wide two_l = longdiv::shifted_order(1);
  longdiv::Wide all_ones{};
  for (std::size_t i = 0; i < 8; ++i) all_ones[i] = ~u64{0};
  inputs = {longdiv::Wide{}, l_minus_1, l, two_l, all_ones};
  Xoshiro256 rng(0xBA22E77u);
  for (int n = 0; n < 2000; ++n) {
    longdiv::Wide x{};
    for (std::size_t i = 0; i < 8; ++i) x[i] = rng.next_u64();
    inputs.push_back(x);
  }
  for (const auto& x : inputs) {
    ASSERT_EQ((ed::sc_reduce<u64, u128>(wide_words(x))), longdiv::mod_l(x))
        << "input words " << x[7] << " ... " << x[0];
  }
}

TEST(Ed25519Kernels, MulAddMatchesLongDivision) {
  Xoshiro256 rng(0x5C4A11u);
  const Words zero{};
  const Words l_minus_1 = {ed::kOrder[0] - 1, ed::kOrder[1], ed::kOrder[2],
                           ed::kOrder[3]};
  const Words max = {~u64{0}, ~u64{0}, ~u64{0}, ~u64{0}};
  std::vector<std::array<Words, 3>> cases = {{zero, zero, zero},
                                             {l_minus_1, l_minus_1, l_minus_1},
                                             {max, max, max}};
  for (int n = 0; n < 2000; ++n) {
    cases.push_back({random_words(rng), random_words(rng), random_words(rng)});
  }
  for (const auto& [a, b, c] : cases) {
    ASSERT_EQ((ed::sc_muladd<u64, u128>(a, b, c)), longdiv::muladd(a, b, c));
  }
}

// a * B by plain double-and-add over the bits of a, on the core's group law.
ed::P3<u64> double_and_add_base(const Words& a) {
  const ed::CurveConstants& c = ed::curve();
  const ed::Cached<u64> base = ed::to_cached<u64, u128>(c.base, c.d2);
  ed::P3<u64> r = ed::P3<u64>::identity();
  for (int bit = 255; bit >= 0; --bit) {
    r = ed::to_p3<u64, u128>(ed::dbl<u64, u128>({r.x, r.y, r.z}));
    if ((a[static_cast<std::size_t>(bit / 64)] >> (bit % 64)) & 1) {
      r = ed::to_p3<u64, u128>(ed::add<u64, u128>(r, base));
    }
  }
  return r;
}

// The signing comb (and verification's variable-base window, fed B) against
// double-and-add on 1000 seeded scalars below l and the edge scalars.
TEST(Ed25519Kernels, CombMatchesDoubleAndAdd) {
  const ed::CurveConstants& c = ed::curve();
  std::vector<Words> scalars = {Words{},
                                {1, 0, 0, 0},
                                {0, 0, 0, u64{1} << 60},  // 2^252
                                {ed::kOrder[0] - 1, ed::kOrder[1],
                                 ed::kOrder[2], ed::kOrder[3]}};
  Xoshiro256 rng(0xC0B5u);
  for (int n = 0; n < 1000; ++n) {
    longdiv::Wide x{};
    for (std::size_t i = 0; i < 4; ++i) x[i] = rng.next_u64();
    scalars.push_back(longdiv::mod_l(x));
  }
  for (const Words& a : scalars) {
    const Words want = ed::encode<u64, u128>(double_and_add_base(a));
    ASSERT_EQ((ed::encode<u64, u128>(
                  ed::scalarmult_base<u64, u128>(a, ed::base_table()))),
              want)
        << "scalar words " << a[3] << " " << a[2] << " " << a[1] << " " << a[0];
    ASSERT_EQ((ed::encode<u64, u128>(ed::scalarmult<u128>(a, c.base, c.d2))),
              want);
  }
}

}  // namespace
}  // namespace convolve::crypto
