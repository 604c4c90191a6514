// AES-128/256 block cipher core, generic over the byte type, plus the
// bit-plane CTR core, generic over the plane word type.
//
// Every step is branch-free and index-free with respect to the key and
// state: SubBytes is the bitsliced Boyar-Peralta circuit, MixColumns uses a
// branchless xtime, and ShiftRows/AddRoundKey touch bytes only at public
// positions. Production code (aes.cpp) instantiates with std::uint8_t
// bytes and std::uint64_t planes; the constant-time lint instantiates with
// analysis::Tainted<std::uint8_t> and Tainted<std::uint64_t> and asserts
// that no secret-dependent branch, table index or variable shift was
// recorded -- over exactly this code.
#pragma once

#include <cstddef>
#include <cstdint>

#include "convolve/crypto/detail/aes_sbox_ct.hpp"

namespace convolve::crypto::detail {

inline constexpr std::uint8_t kAesRcon[15] = {0x00, 0x01, 0x02, 0x04, 0x08,
                                              0x10, 0x20, 0x40, 0x80, 0x1b,
                                              0x36, 0x6c, 0xd8, 0xab, 0x4d};

/// Multiply a state byte by a public GF(2^8) constant (AES polynomial),
/// branchlessly: the conditional reduction becomes an arithmetic mask.
template <class B>
B gf_mul_const(B a, int c) {
  B r(0);
  while (c != 0) {
    if (c & 1) r = r ^ a;  // public branch: c is a compile-time constant
    const B hi = (a >> 7) & B(1);
    a = B((a << 1) ^ ((B(0) - hi) & B(0x1b)));
    c >>= 1;
  }
  return r;
}

// State is column-major: s[4*c + r] is row r, column c (FIPS 197).

template <class B>
void aes_shift_rows(B s[16]) {
  B t[16];
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) t[4 * c + r] = s[4 * ((c + r) % 4) + r];
  }
  for (int i = 0; i < 16; ++i) s[i] = t[i];
}

template <class B>
void aes_inv_shift_rows(B s[16]) {
  B t[16];
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) t[4 * ((c + r) % 4) + r] = s[4 * c + r];
  }
  for (int i = 0; i < 16; ++i) s[i] = t[i];
}

template <class B>
void aes_mix_columns(B s[16]) {
  for (int c = 0; c < 4; ++c) {
    B* col = s + 4 * c;
    const B a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = gf_mul_const(a0, 2) ^ gf_mul_const(a1, 3) ^ a2 ^ a3;
    col[1] = a0 ^ gf_mul_const(a1, 2) ^ gf_mul_const(a2, 3) ^ a3;
    col[2] = a0 ^ a1 ^ gf_mul_const(a2, 2) ^ gf_mul_const(a3, 3);
    col[3] = gf_mul_const(a0, 3) ^ a1 ^ a2 ^ gf_mul_const(a3, 2);
  }
}

template <class B>
void aes_inv_mix_columns(B s[16]) {
  for (int c = 0; c < 4; ++c) {
    B* col = s + 4 * c;
    const B a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = gf_mul_const(a0, 14) ^ gf_mul_const(a1, 11) ^
             gf_mul_const(a2, 13) ^ gf_mul_const(a3, 9);
    col[1] = gf_mul_const(a0, 9) ^ gf_mul_const(a1, 14) ^
             gf_mul_const(a2, 11) ^ gf_mul_const(a3, 13);
    col[2] = gf_mul_const(a0, 13) ^ gf_mul_const(a1, 9) ^
             gf_mul_const(a2, 14) ^ gf_mul_const(a3, 11);
    col[3] = gf_mul_const(a0, 11) ^ gf_mul_const(a1, 13) ^
             gf_mul_const(a2, 9) ^ gf_mul_const(a3, 14);
  }
}

template <class B>
void aes_add_round_key(B s[16], const B* rk) {
  for (int i = 0; i < 16; ++i) s[i] = s[i] ^ rk[i];
}

/// FIPS 197 key expansion. `key` has 4*nk bytes, `w` receives
/// 16*(rounds+1) bytes of round keys.
template <class B>
void aes_key_expand(const B* key, std::size_t nk, int rounds, B* w) {
  const std::size_t total_words = 4u * static_cast<std::size_t>(rounds + 1);
  for (std::size_t i = 0; i < 4 * nk; ++i) w[i] = key[i];
  for (std::size_t i = nk; i < total_words; ++i) {
    B temp[4];
    for (int j = 0; j < 4; ++j) temp[j] = w[4 * (i - 1) + std::size_t(j)];
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon.
      const B t0 = temp[0];
      temp[0] = temp[1];
      temp[1] = temp[2];
      temp[2] = temp[3];
      temp[3] = t0;
      aes_sub_bytes_ct(temp, 4);
      temp[0] = temp[0] ^ B(kAesRcon[i / nk]);
    } else if (nk > 6 && i % nk == 4) {
      aes_sub_bytes_ct(temp, 4);
    }
    for (int j = 0; j < 4; ++j) {
      w[4 * i + std::size_t(j)] = w[4 * (i - nk) + std::size_t(j)] ^ temp[j];
    }
  }
}

template <class B>
void aes_encrypt_block(const B* round_keys, int rounds, const B in[16],
                       B out[16]) {
  B s[16];
  for (int i = 0; i < 16; ++i) s[i] = in[i];
  aes_add_round_key(s, round_keys);
  for (int round = 1; round < rounds; ++round) {
    aes_sub_bytes_ct(s, 16);
    aes_shift_rows(s);
    aes_mix_columns(s);
    aes_add_round_key(s, round_keys + 16 * round);
  }
  aes_sub_bytes_ct(s, 16);
  aes_shift_rows(s);
  aes_add_round_key(s, round_keys + 16 * rounds);
  for (int i = 0; i < 16; ++i) out[i] = s[i];
}

template <class B>
void aes_decrypt_block(const B* round_keys, int rounds,
                       const std::uint8_t inv_sbox[256], const B in[16],
                       B out[16]) {
  B s[16];
  for (int i = 0; i < 16; ++i) s[i] = in[i];
  aes_add_round_key(s, round_keys + 16 * rounds);
  for (int round = rounds - 1; round >= 1; --round) {
    aes_inv_shift_rows(s);
    for (int i = 0; i < 16; ++i) s[i] = ct_table_lookup256(inv_sbox, s[i]);
    aes_add_round_key(s, round_keys + 16 * round);
    aes_inv_mix_columns(s);
  }
  aes_inv_shift_rows(s);
  for (int i = 0; i < 16; ++i) s[i] = ct_table_lookup256(inv_sbox, s[i]);
  aes_add_round_key(s, round_keys);
  for (int i = 0; i < 16; ++i) out[i] = s[i];
}

// ---------------------------------------------------------------------
// Bit-plane AES for CTR mode: four blocks per pass in 64-bit planes.
//
// Plane p holds bit 7-p of 64 state bytes (the aes_sbox_planes order), and
// byte i (column-major, FIPS 197) of block k sits at bit 16k + i. The state
// stays in planes for every round: SubBytes is one aes_sbox_planes call
// for all 64 bytes, ShiftRows rotates each row's bits inside a block's
// 16-bit group, MixColumns rotates rows inside each column's nibble and
// does xtime as a plane shuffle, and AddRoundKey XORs round keys sliced
// once per key. All of it is shifts by constants, masks and XORs.
// ---------------------------------------------------------------------

/// 8x8 bit-matrix transpose of the little-endian bytes of x: bit j of
/// byte b of the result is bit b of byte j of x.
template <class W>
W aes_transpose8x8(W x) {
  W t = (x ^ (x >> 7)) & W(0x00AA00AA00AA00AAull);
  x = x ^ t ^ (t << 7);
  t = (x ^ (x >> 14)) & W(0x0000CCCC0000CCCCull);
  x = x ^ t ^ (t << 14);
  t = (x ^ (x >> 28)) & W(0x00000000F0F0F0F0ull);
  return x ^ t ^ (t << 28);
}

/// Bytes in[0 .. 8*groups) -> lanes 0 .. 8*groups of the planes.
template <class B, class W>
void aes_bytes_to_planes(const B* in, int groups, W u[8]) {
  for (int p = 0; p < 8; ++p) u[p] = W(0);
  for (int g = 0; g < groups; ++g) {
    W x(0);
    for (int j = 0; j < 8; ++j) x = x | (W(in[8 * g + j]) << (8 * j));
    x = aes_transpose8x8(x);
    for (int p = 0; p < 8; ++p) {
      u[p] = u[p] | (((x >> (8 * (7 - p))) & W(0xff)) << (8 * g));
    }
  }
}

/// All 64 lanes of the planes -> out[0 .. 64).
template <class B, class W>
void aes_planes_to_bytes(const W u[8], B out[64]) {
  for (int g = 0; g < 8; ++g) {
    W x(0);
    for (int p = 0; p < 8; ++p) {
      x = x | (((u[p] >> (8 * g)) & W(0xff)) << (8 * (7 - p)));
    }
    x = aes_transpose8x8(x);
    for (int j = 0; j < 8; ++j) out[8 * g + j] = B(x >> (8 * j));
  }
}

/// Slice the 16*(rounds+1) round-key bytes into 8*(rounds+1) planes, each
/// key repeated in all four block groups.
template <class B, class W>
void aes_slice_round_keys(const B* round_keys, int rounds, W* rk_planes) {
  for (int r = 0; r <= rounds; ++r) {
    W* u = rk_planes + 8 * r;
    aes_bytes_to_planes(round_keys + 16 * r, 2, u);
    for (int p = 0; p < 8; ++p) {
      u[p] = u[p] | (u[p] << 16) | (u[p] << 32) | (u[p] << 48);
    }
  }
}

/// ShiftRows on one plane: row r of column c takes column c + r, so the
/// row's bits rotate down by 4r inside each 16-bit block group.
template <class W>
W aes_shift_rows_plane(W x) {
  return (x & W(0x1111111111111111ull)) |
         ((x >> 4) & W(0x0222022202220222ull)) |
         ((x << 12) & W(0x2000200020002000ull)) |
         ((x >> 8) & W(0x0044004400440044ull)) |
         ((x << 8) & W(0x4400440044004400ull)) |
         ((x >> 12) & W(0x0008000800080008ull)) |
         ((x << 4) & W(0x8880888088808880ull));
}

/// Row n of each column takes row n + 1 (mod 4): a rotation per nibble.
template <class W>
W aes_rotate_rows1(W x) {
  return ((x >> 1) & W(0x7777777777777777ull)) |
         ((x << 3) & W(0x8888888888888888ull));
}

/// Row n of each column takes row n + 2 (mod 4).
template <class W>
W aes_rotate_rows2(W x) {
  return ((x >> 2) & W(0x3333333333333333ull)) |
         ((x << 2) & W(0xCCCCCCCCCCCCCCCCull));
}

/// MixColumns: 2a[r] ^ 3a[r+1] ^ a[r+2] ^ a[r+3] = a[r] ^ m ^ xtime(t[r]),
/// with t[r] = a[r] ^ a[r+1] and m = t[r] ^ t[r+2] the column's XOR.
/// xtime moves plane p + 1 into plane p (every byte shifts left one bit)
/// and folds bit 7 (plane 0) into bits 4, 3, 1 and 0 (planes 3, 4, 6 and
/// 7) for the 0x1b reduction.
template <class W>
void aes_mix_columns_planes(W u[8]) {
  W t[8] = {};
  for (int p = 0; p < 8; ++p) t[p] = u[p] ^ aes_rotate_rows1(u[p]);
  const W xt[8] = {t[1], t[2], t[3], t[4] ^ t[0], t[5] ^ t[0],
                   t[6], t[7] ^ t[0], t[0]};
  for (int p = 0; p < 8; ++p) {
    u[p] = u[p] ^ t[p] ^ aes_rotate_rows2(t[p]) ^ xt[p];
  }
}

template <class W>
void aes_add_round_key_planes(W u[8], const W* rk) {
  for (int p = 0; p < 8; ++p) u[p] = u[p] ^ rk[p];
}

/// Encrypt the four blocks held in `u` with sliced round keys.
template <class W>
void aes_encrypt_planes(const W* rk_planes, int rounds, W u[8]) {
  aes_add_round_key_planes(u, rk_planes);
  for (int round = 1; round <= rounds; ++round) {
    aes_sbox_planes(u);
    for (int p = 0; p < 8; ++p) u[p] = aes_shift_rows_plane(u[p]);
    if (round != rounds) aes_mix_columns_planes(u);
    aes_add_round_key_planes(u, rk_planes + 8 * round);
  }
}

/// Keystream of the four CTR blocks nonce || be32(ctr + k), k = 0..3, into
/// out[0 .. 64). The 32-bit counter wraps, as in a block-at-a-time CTR.
template <class B, class W>
void aes_ctr_keystream4(const W* rk_planes, int rounds, const B nonce[12],
                        std::uint32_t ctr, B out[64]) {
  B blocks[64] = {};
  for (int k = 0; k < 4; ++k) {
    B* block = blocks + 16 * k;
    for (int i = 0; i < 12; ++i) block[i] = nonce[i];
    const std::uint32_t c = ctr + static_cast<std::uint32_t>(k);
    for (int i = 0; i < 4; ++i) {
      block[12 + i] = B(static_cast<std::uint8_t>(c >> (24 - 8 * i)));
    }
  }
  W u[8] = {};
  aes_bytes_to_planes(blocks, 8, u);
  aes_encrypt_planes(rk_planes, rounds, u);
  aes_planes_to_bytes(u, out);
}

}  // namespace convolve::crypto::detail
