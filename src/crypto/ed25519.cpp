#include "convolve/crypto/ed25519.hpp"

#include <algorithm>
#include <stdexcept>

#include "convolve/crypto/detail/ed25519_core.hpp"
#include "convolve/crypto/sha512.hpp"

namespace convolve::crypto {

namespace detail::ed25519 {

namespace {

using W = unsigned __int128;

Fe<u64> fe_inv(const Fe<u64>& a) { return fe_invert<u64, W>(a); }
Fe<u64> fe_times(const Fe<u64>& a, const Fe<u64>& b) {
  return fe_mul<u64, W>(a, b);
}

}  // namespace

// d = -121665/121666 and sqrt(-1) = 2^((p-1)/4) = (2^((p-5)/8))^2 * 2,
// derived rather than transcribed; B is the point with y = 4/5 and even x.
const CurveConstants& curve() {
  static const CurveConstants c = [] {
    CurveConstants k;
    k.d = fe_times(fe_neg(fe_const<u64>(121665)),
                   fe_inv(fe_const<u64>(121666)));
    k.d2 = fe_add(k.d, k.d);
    fe_weak_reduce(k.d2);
    const Fe<u64> two = fe_const<u64>(2);
    k.sqrt_m1 = fe_times(fe_sq<u64, W>(fe_pow22523<u64, W>(two)), two);
    const auto b = decode<W>(
        fe_to_words(fe_times(fe_const<u64>(4), fe_inv(fe_const<u64>(5)))), k.d,
        k.sqrt_m1);
    if (!b) throw std::logic_error("ed25519: base point decode failed");
    k.base = *b;
    return k;
  }();
  return c;
}

// The 256 multiples j * 256^i * B, brought to affine form with one batched
// inversion (Montgomery's trick) and stored as (y + x, y - x, 2dxy).
const BaseTable& base_table() {
  static const BaseTable table = [] {
    const CurveConstants& k = curve();
    std::array<P3<u64>, 256> points;
    P3<u64> row_base = k.base;
    for (std::size_t i = 0; i < 32; ++i) {
      const Cached<u64> step = to_cached<u64, W>(row_base, k.d2);
      points[8 * i] = row_base;
      for (std::size_t j = 1; j < 8; ++j) {
        points[8 * i + j] =
            to_p3<u64, W>(add<u64, W>(points[8 * i + j - 1], step));
      }
      for (int n = 0; n < 2; ++n) row_base = times16<u64, W>(row_base);
    }
    std::array<Fe<u64>, 256> prefix;  // z_0 * ... * z_n
    prefix[0] = points[0].z;
    for (std::size_t n = 1; n < 256; ++n) {
      prefix[n] = fe_times(prefix[n - 1], points[n].z);
    }
    Fe<u64> inv = fe_inv(prefix[255]);  // (z_0 * ... * z_n)^-1
    BaseTable t;
    for (std::size_t n = 256; n-- > 0;) {
      const Fe<u64> zinv = n == 0 ? inv : fe_times(inv, prefix[n - 1]);
      if (n > 0) inv = fe_times(inv, points[n].z);
      const Fe<u64> x = fe_times(points[n].x, zinv);
      const Fe<u64> y = fe_times(points[n].y, zinv);
      Niels<u64>& e = t[n / 8][n % 8];
      e.ypx = fe_add(y, x);
      fe_weak_reduce(e.ypx);
      e.ymx = fe_sub(y, x);
      e.xy2d = fe_times(fe_times(x, y), k.d2);
    }
    return t;
  }();
  return table;
}

}  // namespace detail::ed25519

namespace {

namespace ed = detail::ed25519;
using u64 = std::uint64_t;
using W = unsigned __int128;
using Words = std::array<u64, 4>;

std::array<std::uint8_t, 32> to_bytes(const Words& w) {
  std::array<std::uint8_t, 32> out{};
  for (int i = 0; i < 4; ++i) store_le64(out.data() + 8 * i, w[i]);
  return out;
}

Words encode_base_multiple(const Words& scalar) {
  return ed::encode<u64, W>(
      ed::scalarmult_base<u64, W>(scalar, ed::base_table()));
}

Words clamped_secret(const std::array<std::uint8_t, 64>& h) {
  return ed::clamp(ed::load_words<u64, 4>(h.data()));
}

}  // namespace

Ed25519KeyPair ed25519_keypair(ByteView seed) {
  if (seed.size() != 32) {
    throw std::invalid_argument("ed25519_keypair: seed must be 32 bytes");
  }
  Ed25519KeyPair kp;
  std::copy(seed.begin(), seed.end(), kp.seed.begin());
  const auto h = Sha512::hash(seed);
  kp.public_key = to_bytes(encode_base_multiple(clamped_secret(h)));
  return kp;
}

std::array<std::uint8_t, 64> ed25519_sign(const Ed25519KeyPair& kp,
                                          ByteView message) {
  const auto h = Sha512::hash({kp.seed.data(), kp.seed.size()});
  const Words a = clamped_secret(h);

  // r = SHA512(prefix || M) mod l
  Sha512 hr;
  hr.update({h.data() + 32, 32});
  hr.update(message);
  const Words r =
      ed::sc_reduce<u64, W>(ed::load_words<u64, 8>(hr.digest().data()));

  const auto r_enc = to_bytes(encode_base_multiple(r));

  // k = SHA512(R || A || M) mod l
  Sha512 hk;
  hk.update({r_enc.data(), 32});
  hk.update({kp.public_key.data(), 32});
  hk.update(message);
  const Words k =
      ed::sc_reduce<u64, W>(ed::load_words<u64, 8>(hk.digest().data()));

  const auto s = to_bytes(ed::sc_muladd<u64, W>(k, a, r));

  std::array<std::uint8_t, 64> sig{};
  std::copy(r_enc.begin(), r_enc.end(), sig.begin());
  std::copy(s.begin(), s.end(), sig.begin() + 32);
  return sig;
}

bool ed25519_verify(ByteView public_key, ByteView message,
                    ByteView signature) {
  if (public_key.size() != 32 || signature.size() != 64) return false;
  const ed::CurveConstants& c = ed::curve();
  const auto a =
      ed::decode<W>(ed::load_words<u64, 4>(public_key.data()), c.d, c.sqrt_m1);
  if (!a) return false;
  const auto r =
      ed::decode<W>(ed::load_words<u64, 4>(signature.data()), c.d, c.sqrt_m1);
  if (!r) return false;
  const Words s = ed::load_words<u64, 4>(signature.data() + 32);
  if (!ed::sc_is_canonical(s)) return false;

  Sha512 hk;
  hk.update(signature.first(32));
  hk.update(public_key);
  hk.update(message);
  const Words k =
      ed::sc_reduce<u64, W>(ed::load_words<u64, 8>(hk.digest().data()));

  // Check S*B == R + k*A.
  const ed::P3<u64> lhs = ed::scalarmult_base<u64, W>(s, ed::base_table());
  const ed::P3<u64> rhs = ed::to_p3<u64, W>(ed::add<u64, W>(
      ed::scalarmult<W>(k, *a, c.d2), ed::to_cached<u64, W>(*r, c.d2)));
  return ed::encode<u64, W>(lhs) == ed::encode<u64, W>(rhs);
}

}  // namespace convolve::crypto
