#include "convolve/crypto/keccak.hpp"

#include <algorithm>
#include <stdexcept>

#include "convolve/crypto/detail/keccak_core.hpp"

namespace convolve::crypto {

void keccak_f1600(std::array<std::uint64_t, 25>& a) {
  detail::keccak_permute(a.data());
}

KeccakSponge::KeccakSponge(std::size_t rate_bytes, std::uint8_t domain_suffix)
    : rate_(rate_bytes), suffix_(domain_suffix) {
  if (rate_bytes == 0 || rate_bytes >= 200 || rate_bytes % 8 != 0) {
    throw std::invalid_argument("KeccakSponge: invalid rate");
  }
}

namespace {

// Sponge positions are byte offsets into the little-endian lane array.
// `n` bytes (1..8) starting at byte `shift` of a lane never cross into the
// next lane, because callers split at lane boundaries.
std::uint64_t load_lane_bytes(const std::uint8_t* p, std::size_t n) {
  if (n == 8) return load_le64(p);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

void store_lane_bytes(std::uint8_t* p, std::uint64_t v, std::size_t n) {
  if (n == 8) {
    store_le64(p, v);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

void KeccakSponge::absorb(ByteView data) {
  if (squeezing_) throw std::logic_error("KeccakSponge: absorb after squeeze");
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const std::size_t shift = offset_ % 8;
    const std::size_t n = std::min(8 - shift, left);
    state_[offset_ / 8] ^= load_lane_bytes(p, n) << (8 * shift);
    p += n;
    left -= n;
    offset_ += n;
    if (offset_ == rate_) {
      keccak_f1600(state_);
      offset_ = 0;
    }
  }
}

void KeccakSponge::finalize() {
  if (squeezing_) return;
  state_[offset_ / 8] ^= std::uint64_t{suffix_} << (8 * (offset_ % 8));
  state_[rate_ / 8 - 1] ^= std::uint64_t{0x80} << 56;  // rate is lane-aligned
  keccak_f1600(state_);
  offset_ = 0;
  squeezing_ = true;
}

void KeccakSponge::squeeze(std::span<std::uint8_t> out) {
  finalize();
  std::uint8_t* p = out.data();
  std::size_t left = out.size();
  while (left > 0) {
    if (offset_ == rate_) {
      keccak_f1600(state_);
      offset_ = 0;
    }
    const std::size_t shift = offset_ % 8;
    const std::size_t n = std::min(8 - shift, left);
    store_lane_bytes(p, state_[offset_ / 8] >> (8 * shift), n);
    p += n;
    left -= n;
    offset_ += n;
  }
}

namespace {
Bytes fixed_hash(ByteView data, std::size_t digest_len) {
  KeccakSponge sponge(200 - 2 * digest_len, 0x06);
  sponge.absorb(data);
  Bytes out(digest_len);
  sponge.squeeze(out);
  return out;
}
}  // namespace

Bytes sha3_256(ByteView data) { return fixed_hash(data, 32); }
Bytes sha3_512(ByteView data) { return fixed_hash(data, 64); }

Bytes shake128(ByteView data, std::size_t out_len) {
  Shake x(Shake::Variant::k128);
  x.absorb(data);
  return x.squeeze(out_len);
}

Bytes shake256(ByteView data, std::size_t out_len) {
  Shake x(Shake::Variant::k256);
  x.absorb(data);
  return x.squeeze(out_len);
}

}  // namespace convolve::crypto
