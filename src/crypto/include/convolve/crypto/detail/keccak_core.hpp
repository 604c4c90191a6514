// Keccak-f[1600] permutation, generic over the 64-bit lane type.
//
// The round body is unrolled in the source: every lane index and rotation
// offset is a compile-time constant, and the state lives in 25 locals for
// all 24 rounds. GCC at -O2 does not unroll a looped round body, and that
// form hashed about 5x slower. The only data-dependent operations are
// xor/and/not on whole lanes and rotations by constants, so the
// permutation is constant-time by construction; the taint-tracking
// instantiation in the static analyzer certifies exactly that for the code
// production keccak.cpp runs.
#pragma once

#include <cstdint>

namespace convolve::crypto::detail {

inline constexpr int kKeccakRounds = 24;

inline constexpr std::uint64_t kKeccakRoundConstants[kKeccakRounds] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808aull,
    0x8000000080008000ull, 0x000000000000808bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000aull,
    0x000000008000808bull, 0x800000000000008bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800aull, 0x800000008000000aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull,
};

template <unsigned N, class W>
constexpr W keccak_rotl(W x) {
  if constexpr (N == 0) {
    return x;
  } else {
    return W((x << static_cast<int>(N)) | (x >> static_cast<int>(64 - N)));
  }
}

/// Keccak-f[1600] over lanes a[x + 5y]. Local aNN holds lane a[NN]; the
/// rho offsets (FIPS 202 Table 2) are the keccak_rotl arguments.
template <class W>
void keccak_permute(W a[25]) {
  W a00 = a[0];
  W a01 = a[1];
  W a02 = a[2];
  W a03 = a[3];
  W a04 = a[4];
  W a05 = a[5];
  W a06 = a[6];
  W a07 = a[7];
  W a08 = a[8];
  W a09 = a[9];
  W a10 = a[10];
  W a11 = a[11];
  W a12 = a[12];
  W a13 = a[13];
  W a14 = a[14];
  W a15 = a[15];
  W a16 = a[16];
  W a17 = a[17];
  W a18 = a[18];
  W a19 = a[19];
  W a20 = a[20];
  W a21 = a[21];
  W a22 = a[22];
  W a23 = a[23];
  W a24 = a[24];
  for (int round = 0; round < kKeccakRounds; ++round) {
      // Theta.
      const W c0 = a00 ^ a05 ^ a10 ^ a15 ^ a20;
      const W c1 = a01 ^ a06 ^ a11 ^ a16 ^ a21;
      const W c2 = a02 ^ a07 ^ a12 ^ a17 ^ a22;
      const W c3 = a03 ^ a08 ^ a13 ^ a18 ^ a23;
      const W c4 = a04 ^ a09 ^ a14 ^ a19 ^ a24;
      const W d0 = c4 ^ keccak_rotl<1>(c1);
      const W d1 = c0 ^ keccak_rotl<1>(c2);
      const W d2 = c1 ^ keccak_rotl<1>(c3);
      const W d3 = c2 ^ keccak_rotl<1>(c4);
      const W d4 = c3 ^ keccak_rotl<1>(c0);
      // Rho and Pi: lane (x, y) moves to (y, 2x + 3y).
      const W b00 = keccak_rotl<0>(a00 ^ d0);
      const W b01 = keccak_rotl<44>(a06 ^ d1);
      const W b02 = keccak_rotl<43>(a12 ^ d2);
      const W b03 = keccak_rotl<21>(a18 ^ d3);
      const W b04 = keccak_rotl<14>(a24 ^ d4);
      const W b05 = keccak_rotl<28>(a03 ^ d3);
      const W b06 = keccak_rotl<20>(a09 ^ d4);
      const W b07 = keccak_rotl<3>(a10 ^ d0);
      const W b08 = keccak_rotl<45>(a16 ^ d1);
      const W b09 = keccak_rotl<61>(a22 ^ d2);
      const W b10 = keccak_rotl<1>(a01 ^ d1);
      const W b11 = keccak_rotl<6>(a07 ^ d2);
      const W b12 = keccak_rotl<25>(a13 ^ d3);
      const W b13 = keccak_rotl<8>(a19 ^ d4);
      const W b14 = keccak_rotl<18>(a20 ^ d0);
      const W b15 = keccak_rotl<27>(a04 ^ d4);
      const W b16 = keccak_rotl<36>(a05 ^ d0);
      const W b17 = keccak_rotl<10>(a11 ^ d1);
      const W b18 = keccak_rotl<15>(a17 ^ d2);
      const W b19 = keccak_rotl<56>(a23 ^ d3);
      const W b20 = keccak_rotl<62>(a02 ^ d2);
      const W b21 = keccak_rotl<55>(a08 ^ d3);
      const W b22 = keccak_rotl<39>(a14 ^ d4);
      const W b23 = keccak_rotl<41>(a15 ^ d0);
      const W b24 = keccak_rotl<2>(a21 ^ d1);
      // Chi, then Iota on lane 0.
      a00 = b00 ^ (~b01 & b02);
      a01 = b01 ^ (~b02 & b03);
      a02 = b02 ^ (~b03 & b04);
      a03 = b03 ^ (~b04 & b00);
      a04 = b04 ^ (~b00 & b01);
      a05 = b05 ^ (~b06 & b07);
      a06 = b06 ^ (~b07 & b08);
      a07 = b07 ^ (~b08 & b09);
      a08 = b08 ^ (~b09 & b05);
      a09 = b09 ^ (~b05 & b06);
      a10 = b10 ^ (~b11 & b12);
      a11 = b11 ^ (~b12 & b13);
      a12 = b12 ^ (~b13 & b14);
      a13 = b13 ^ (~b14 & b10);
      a14 = b14 ^ (~b10 & b11);
      a15 = b15 ^ (~b16 & b17);
      a16 = b16 ^ (~b17 & b18);
      a17 = b17 ^ (~b18 & b19);
      a18 = b18 ^ (~b19 & b15);
      a19 = b19 ^ (~b15 & b16);
      a20 = b20 ^ (~b21 & b22);
      a21 = b21 ^ (~b22 & b23);
      a22 = b22 ^ (~b23 & b24);
      a23 = b23 ^ (~b24 & b20);
      a24 = b24 ^ (~b20 & b21);
      a00 = a00 ^ W(kKeccakRoundConstants[round]);
  }
  a[0] = a00;
  a[1] = a01;
  a[2] = a02;
  a[3] = a03;
  a[4] = a04;
  a[5] = a05;
  a[6] = a06;
  a[7] = a07;
  a[8] = a08;
  a[9] = a09;
  a[10] = a10;
  a[11] = a11;
  a[12] = a12;
  a[13] = a13;
  a[14] = a14;
  a[15] = a15;
  a[16] = a16;
  a[17] = a17;
  a[18] = a18;
  a[19] = a19;
  a[20] = a20;
  a[21] = a21;
  a[22] = a22;
  a[23] = a23;
  a[24] = a24;
}

}  // namespace convolve::crypto::detail
