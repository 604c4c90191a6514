// AES-128/AES-256 block cipher (FIPS 197) plus a CTR-mode stream helper.
//
// CONVOLVE uses AES-256 for payload encryption (the HADES case study in
// Table II of the paper targets exactly this algorithm); the TEE's data
// sealing builds an encrypt-then-MAC AEAD on top of AES-256-CTR. The S-box
// table is computed at static-init time from the GF(2^8) inverse so it is
// derived, not transcribed; the cipher itself is constant-time: SubBytes
// runs the bitsliced Boyar-Peralta circuit and the inverse S-box uses a
// full-table scan (detail/aes_core.hpp), so no secret ever indexes memory.
#pragma once

#include <array>
#include <cstdint>

#include "convolve/common/bytes.hpp"

namespace convolve::crypto {

/// AES with a 128- or 256-bit key. Encrypt and decrypt single 16-byte blocks.
class Aes {
 public:
  enum class KeySize { k128, k256 };

  Aes(KeySize size, ByteView key);

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  int rounds() const { return rounds_; }

 private:
  int rounds_ = 0;
  // Round keys as bytes: (rounds+1) * 16.
  std::array<std::uint8_t, 15 * 16> round_keys_{};
};

/// AES-256-CTR keystream XOR. `nonce` is 12 bytes; the 4-byte big-endian
/// block counter starts at `initial_counter` and wraps mod 2^32. Encryption
/// and decryption are the same operation. Runs the bit-plane core four
/// blocks per pass (detail/aes_core.hpp); the output equals CTR over
/// Aes::encrypt_block, which stays the byte-wise reference.
Bytes aes256_ctr(ByteView key, ByteView nonce, std::uint32_t initial_counter,
                 ByteView data);

/// The derived (not transcribed) S-box tables, 256 bytes each. Exposed so
/// the static analyzer can cross-check the bitsliced S-box circuit and so
/// lint harnesses can demonstrate what a *naive* table lookup looks like.
const std::uint8_t* aes_sbox_table();
const std::uint8_t* aes_inv_sbox_table();

}  // namespace convolve::crypto
