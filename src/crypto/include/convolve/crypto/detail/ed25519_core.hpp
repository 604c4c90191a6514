// Ed25519 arithmetic shared by production (ed25519.cpp) and the
// constant-time lint, generic over the limb type L and its double-width
// product type W, like the other detail/ cores: ct_lint instantiates the
// signing path with Tainted<std::uint64_t> limbs and Tainted<unsigned
// __int128> products, so its verdict is about the code that ships.
//
// - Field GF(p), p = 2^255 - 19: five 51-bit limbs (the ref10 / donna-c64
//   layout), with the limb bounds of curve25519-dalek's u64 backend:
//   fe_mul/fe_sq take limbs below 2^54 and return limbs below 2^52;
//   fe_add does not carry, fe_sub and fe_neg always do. Inversion is
//   ref10's fixed chain of 254 squarings and 11 multiplications.
// - Group: extended twisted Edwards coordinates (X : Y : Z : T) with
//   ref10's completed (P1P1), projective (P2) and precomputed (Niels,
//   Cached) forms and its a = -1 formulas.
// - Scalars mod the group order
//   l = 2^252 + 27742317777372353535851937790883648493: four 64-bit words,
//   reduced by Barrett with a fixed limb schedule.
//
// Everything on the signing path -- the field and scalar arithmetic, the
// fixed-base signed radix-16 comb (which reads every entry of a table row
// under a mask) and the encoding -- runs one instruction sequence and one
// set of addresses for every secret. Only decode() and scalarmult(), which
// verification runs on public data, branch on their inputs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

namespace convolve::crypto::detail::ed25519 {

using u64 = std::uint64_t;

inline constexpr u64 kMask51 = (u64{1} << 51) - 1;

// ---------------------------------------------------------------------
// Field.
// ---------------------------------------------------------------------

template <class L>
struct Fe {
  L v[5]{};
};

template <class L>
Fe<L> fe_const(u64 c) {
  Fe<L> r;
  r.v[0] = L(c);
  return r;
}

/// A public field element as an L element.
template <class L>
Fe<L> fe_lift(const Fe<u64>& a) {
  Fe<L> r;
  for (int i = 0; i < 5; ++i) r.v[i] = L(a.v[i]);
  return r;
}

/// One carry pass: limbs 1..4 below 2^51, limb 0 below 2^51 + 2^18.
template <class L>
void fe_weak_reduce(Fe<L>& a) {
  const L c0 = a.v[0] >> 51, c1 = a.v[1] >> 51, c2 = a.v[2] >> 51,
          c3 = a.v[3] >> 51, c4 = a.v[4] >> 51;
  a.v[0] = (a.v[0] & kMask51) + c4 * 19;
  a.v[1] = (a.v[1] & kMask51) + c0;
  a.v[2] = (a.v[2] & kMask51) + c1;
  a.v[3] = (a.v[3] & kMask51) + c2;
  a.v[4] = (a.v[4] & kMask51) + c3;
}

template <class L>
Fe<L> fe_add(const Fe<L>& a, const Fe<L>& b) {
  Fe<L> r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

/// a - b, biased by 16p so that no limb underflows for b below 2^54.
template <class L>
Fe<L> fe_sub(const Fe<L>& a, const Fe<L>& b) {
  constexpr u64 k16p0 = 16 * ((u64{1} << 51) - 19);
  constexpr u64 k16pi = 16 * ((u64{1} << 51) - 1);
  Fe<L> r;
  r.v[0] = (a.v[0] + k16p0) - b.v[0];
  for (int i = 1; i < 5; ++i) r.v[i] = (a.v[i] + k16pi) - b.v[i];
  fe_weak_reduce(r);
  return r;
}

template <class L>
Fe<L> fe_neg(const Fe<L>& a) {
  return fe_sub(Fe<L>{}, a);
}

/// Carries the five wide column sums of a product into 51-bit limbs.
template <class L, class W>
Fe<L> fe_carry_wide(W c0, W c1, W c2, W c3, W c4) {
  Fe<L> r;
  c1 = c1 + W(L(c0 >> 51));
  r.v[0] = L(c0) & kMask51;
  c2 = c2 + W(L(c1 >> 51));
  r.v[1] = L(c1) & kMask51;
  c3 = c3 + W(L(c2 >> 51));
  r.v[2] = L(c2) & kMask51;
  c4 = c4 + W(L(c3 >> 51));
  r.v[3] = L(c3) & kMask51;
  const L carry = L(c4 >> 51);  // below 2^59.33 for limbs below 2^54
  r.v[4] = L(c4) & kMask51;
  r.v[0] = r.v[0] + carry * 19;
  r.v[1] = r.v[1] + (r.v[0] >> 51);
  r.v[0] = r.v[0] & kMask51;
  return r;
}

template <class L, class W>
Fe<L> fe_mul(const Fe<L>& a, const Fe<L>& b) {
  const L b1_19 = b.v[1] * 19, b2_19 = b.v[2] * 19, b3_19 = b.v[3] * 19,
          b4_19 = b.v[4] * 19;
  auto m = [](L x, L y) { return W(x) * W(y); };
  const auto& x = a.v;
  const auto& y = b.v;
  return fe_carry_wide<L, W>(
      m(x[0], y[0]) + m(x[4], b1_19) + m(x[3], b2_19) + m(x[2], b3_19) +
          m(x[1], b4_19),
      m(x[1], y[0]) + m(x[0], y[1]) + m(x[4], b2_19) + m(x[3], b3_19) +
          m(x[2], b4_19),
      m(x[2], y[0]) + m(x[1], y[1]) + m(x[0], y[2]) + m(x[4], b3_19) +
          m(x[3], b4_19),
      m(x[3], y[0]) + m(x[2], y[1]) + m(x[1], y[2]) + m(x[0], y[3]) +
          m(x[4], b4_19),
      m(x[4], y[0]) + m(x[3], y[1]) + m(x[2], y[2]) + m(x[1], y[3]) +
          m(x[0], y[4]));
}

/// a^2 with the 15 distinct limb products of a.
template <class L, class W>
Fe<L> fe_sq(const Fe<L>& a) {
  const auto& x = a.v;
  const L x3_19 = x[3] * 19, x4_19 = x[4] * 19;
  auto m = [](L p, L q) { return W(p) * W(q); };
  return fe_carry_wide<L, W>(
      m(x[0], x[0]) + (m(x[1], x4_19) + m(x[2], x3_19)) * 2,
      m(x[3], x3_19) + (m(x[0], x[1]) + m(x[2], x4_19)) * 2,
      m(x[1], x[1]) + (m(x[0], x[2]) + m(x[4], x3_19)) * 2,
      m(x[4], x4_19) + (m(x[0], x[3]) + m(x[1], x[2])) * 2,
      m(x[2], x[2]) + (m(x[0], x[4]) + m(x[1], x[3])) * 2);
}

template <class L, class W>
Fe<L> fe_sq_n(Fe<L> a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq<L, W>(a);
  return a;
}

/// z^(2^250 - 1), and z^11 on the side: the shared head of ref10's
/// inversion and square-root chains.
template <class L, class W>
Fe<L> fe_pow_2_250_1(const Fe<L>& z, Fe<L>& z11) {
  const Fe<L> z2 = fe_sq<L, W>(z);
  const Fe<L> z9 = fe_mul<L, W>(fe_sq_n<L, W>(z2, 2), z);
  z11 = fe_mul<L, W>(z9, z2);
  const Fe<L> e5 = fe_mul<L, W>(fe_sq<L, W>(z11), z9);          // 2^5 - 1
  const Fe<L> e10 = fe_mul<L, W>(fe_sq_n<L, W>(e5, 5), e5);      // 2^10 - 1
  const Fe<L> e20 = fe_mul<L, W>(fe_sq_n<L, W>(e10, 10), e10);   // 2^20 - 1
  const Fe<L> e40 = fe_mul<L, W>(fe_sq_n<L, W>(e20, 20), e20);   // 2^40 - 1
  const Fe<L> e50 = fe_mul<L, W>(fe_sq_n<L, W>(e40, 10), e10);   // 2^50 - 1
  const Fe<L> e100 = fe_mul<L, W>(fe_sq_n<L, W>(e50, 50), e50);  // 2^100 - 1
  const Fe<L> e200 = fe_mul<L, W>(fe_sq_n<L, W>(e100, 100), e100);
  return fe_mul<L, W>(fe_sq_n<L, W>(e200, 50), e50);  // 2^250 - 1
}

/// z^(p - 2) = z^(2^255 - 21): 254 squarings and 11 multiplications.
template <class L, class W>
Fe<L> fe_invert(const Fe<L>& z) {
  Fe<L> z11;
  const Fe<L> t = fe_pow_2_250_1<L, W>(z, z11);
  return fe_mul<L, W>(fe_sq_n<L, W>(t, 5), z11);
}

/// z^((p - 5) / 8) = z^(2^252 - 3), the square-root candidate exponent.
template <class L, class W>
Fe<L> fe_pow22523(const Fe<L>& z) {
  Fe<L> z11;
  const Fe<L> t = fe_pow_2_250_1<L, W>(z, z11);
  return fe_mul<L, W>(fe_sq_n<L, W>(t, 2), z);
}

/// The canonical value (fully reduced mod p) as four little-endian words.
template <class L>
std::array<L, 4> fe_to_words(const Fe<L>& a) {
  Fe<L> t = a;
  fe_weak_reduce(t);
  // t < 2p, so q = floor((t + 19) / 2^255) is 1 exactly when t >= p.
  L q = (t.v[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (t.v[i] + q) >> 51;
  t.v[0] = t.v[0] + q * 19;
  for (int i = 0; i < 4; ++i) {
    t.v[i + 1] = t.v[i + 1] + (t.v[i] >> 51);
    t.v[i] = t.v[i] & kMask51;
  }
  t.v[4] = t.v[4] & kMask51;  // drops the 2^255 * q carry
  return {t.v[0] | (t.v[1] << 51), (t.v[1] >> 13) | (t.v[2] << 38),
          (t.v[2] >> 26) | (t.v[3] << 25), (t.v[3] >> 39) | (t.v[4] << 12)};
}

/// The element encoded by four little-endian words; bit 255 is ignored.
template <class L>
Fe<L> fe_from_words(const std::array<L, 4>& w) {
  Fe<L> r;
  r.v[0] = w[0] & kMask51;
  r.v[1] = ((w[0] >> 51) | (w[1] << 13)) & kMask51;
  r.v[2] = ((w[1] >> 38) | (w[2] << 26)) & kMask51;
  r.v[3] = ((w[2] >> 25) | (w[3] << 39)) & kMask51;
  r.v[4] = (w[3] >> 12) & kMask51;
  return r;
}

/// f = mask ? g : f, for mask all-ones or zero.
template <class L, class G>
void fe_cmov(Fe<L>& f, const Fe<G>& g, L mask) {
  for (int i = 0; i < 5; ++i) f.v[i] = f.v[i] ^ ((f.v[i] ^ L(g.v[i])) & mask);
}

// ---------------------------------------------------------------------
// Group.
// ---------------------------------------------------------------------

/// Extended coordinates: x = X/Z, y = Y/Z, xy = T/Z.
template <class L>
struct P3 {
  Fe<L> x, y, z, t;
  static P3 identity() {
    return {Fe<L>{}, fe_const<L>(1), fe_const<L>(1), Fe<L>{}};
  }
};

/// Completed coordinates: x = X/Z, y = Y/T.
template <class L>
struct P1P1 {
  Fe<L> x, y, z, t;
};

/// Projective coordinates: x = X/Z, y = Y/Z.
template <class L>
struct P2 {
  Fe<L> x, y, z;
};

/// Affine precomputed form: y + x, y - x, 2dxy.
template <class L>
struct Niels {
  Fe<L> ypx, ymx, xy2d;
  static Niels identity() { return {fe_const<L>(1), fe_const<L>(1), Fe<L>{}}; }
};

/// Projective precomputed form: Y + X, Y - X, Z, 2dT.
template <class L>
struct Cached {
  Fe<L> ypx, ymx, z, t2d;
  static Cached identity() {
    return {fe_const<L>(1), fe_const<L>(1), fe_const<L>(1), Fe<L>{}};
  }
};

template <class L, class W>
P2<L> to_p2(const P1P1<L>& r) {
  return {fe_mul<L, W>(r.x, r.t), fe_mul<L, W>(r.y, r.z),
          fe_mul<L, W>(r.z, r.t)};
}

template <class L, class W>
P3<L> to_p3(const P1P1<L>& r) {
  return {fe_mul<L, W>(r.x, r.t), fe_mul<L, W>(r.y, r.z),
          fe_mul<L, W>(r.z, r.t), fe_mul<L, W>(r.x, r.y)};
}

/// 2p, from the projective part of p (dbl-2008-hwcd).
template <class L, class W>
P1P1<L> dbl(const P2<L>& p) {
  const Fe<L> xx = fe_sq<L, W>(p.x);
  const Fe<L> yy = fe_sq<L, W>(p.y);
  const Fe<L> zz = fe_sq<L, W>(p.z);
  const Fe<L> aa = fe_sq<L, W>(fe_add(p.x, p.y));
  P1P1<L> r;
  r.y = fe_add(yy, xx);
  r.z = fe_sub(yy, xx);
  r.x = fe_sub(aa, r.y);
  r.t = fe_sub(fe_add(zz, zz), r.z);
  return r;
}

/// The sum's shared tail: E = A - B, H = A + B, G = D + C, F = D - C.
template <class L>
P1P1<L> add_tail(const Fe<L>& a, const Fe<L>& b, const Fe<L>& c,
                 const Fe<L>& d) {
  return {fe_sub(a, b), fe_add(a, b), fe_add(d, c), fe_sub(d, c)};
}

/// p + q for a precomputed affine q (madd-2008-hwcd-3).
template <class L, class W>
P1P1<L> madd(const P3<L>& p, const Niels<L>& q) {
  return add_tail(fe_mul<L, W>(fe_add(p.y, p.x), q.ypx),
                  fe_mul<L, W>(fe_sub(p.y, p.x), q.ymx),
                  fe_mul<L, W>(q.xy2d, p.t), fe_add(p.z, p.z));
}

/// p + q for a precomputed projective q (add-2008-hwcd-3).
template <class L, class W>
P1P1<L> add(const P3<L>& p, const Cached<L>& q) {
  const Fe<L> zz = fe_mul<L, W>(p.z, q.z);
  return add_tail(fe_mul<L, W>(fe_add(p.y, p.x), q.ypx),
                  fe_mul<L, W>(fe_sub(p.y, p.x), q.ymx),
                  fe_mul<L, W>(q.t2d, p.t), fe_add(zz, zz));
}

template <class L, class W>
Cached<L> to_cached(const P3<L>& p, const Fe<u64>& d2) {
  Fe<L> ypx = fe_add(p.y, p.x);
  fe_weak_reduce(ypx);
  return {ypx, fe_sub(p.y, p.x), p.z, fe_mul<L, W>(p.t, fe_lift<L>(d2))};
}

template <class L, class W>
P3<L> times16(const P3<L>& p) {
  P2<L> s{p.x, p.y, p.z};
  for (int i = 0; i < 3; ++i) s = to_p2<L, W>(dbl<L, W>(s));
  return to_p3<L, W>(dbl<L, W>(s));
}

template <class L>
Niels<L> neg(const Niels<L>& a) {
  return {a.ymx, a.ypx, fe_neg(a.xy2d)};
}

template <class L>
Cached<L> neg(const Cached<L>& a) {
  return {a.ymx, a.ypx, a.z, fe_neg(a.t2d)};
}

template <class L, class G>
void cmov(Niels<L>& f, const Niels<G>& g, L mask) {
  fe_cmov(f.ypx, g.ypx, mask);
  fe_cmov(f.ymx, g.ymx, mask);
  fe_cmov(f.xy2d, g.xy2d, mask);
}

template <class L, class G>
void cmov(Cached<L>& f, const Cached<G>& g, L mask) {
  fe_cmov(f.ypx, g.ypx, mask);
  fe_cmov(f.ymx, g.ymx, mask);
  fe_cmov(f.z, g.z, mask);
  fe_cmov(f.t2d, g.t2d, mask);
}

/// The compressed encoding: y with the sign of x in bit 255.
template <class L, class W>
std::array<L, 4> encode(const P3<L>& p) {
  const Fe<L> zinv = fe_invert<L, W>(p.z);
  std::array<L, 4> y = fe_to_words(fe_mul<L, W>(p.y, zinv));
  const std::array<L, 4> x = fe_to_words(fe_mul<L, W>(p.x, zinv));
  y[3] = y[3] | ((x[0] & 1) << 63);
  return y;
}

/// The point encoded by `w` (RFC 8032 5.1.3), given d and sqrt(-1); no
/// value for a y with no matching x, or for x = 0 with the sign bit set.
/// Branches on its input, which verification only ever passes in public.
template <class W>
std::optional<P3<u64>> decode(const std::array<u64, 4>& w, const Fe<u64>& d,
                              const Fe<u64>& sqrt_m1) {
  using L = u64;
  auto is_zero = [](const Fe<L>& a) {
    const auto b = fe_to_words(a);
    return (b[0] | b[1] | b[2] | b[3]) == 0;
  };
  const Fe<L> y = fe_from_words(w);
  const bool sign = (w[3] >> 63) != 0;
  // x^2 = u / v with u = y^2 - 1, v = d y^2 + 1; candidate root
  // x = u v^3 (u v^7)^((p-5)/8).
  const Fe<L> yy = fe_sq<L, W>(y);
  const Fe<L> u = fe_sub(yy, fe_const<L>(1));
  Fe<L> v = fe_add(fe_mul<L, W>(d, yy), fe_const<L>(1));
  fe_weak_reduce(v);
  const Fe<L> v3 = fe_mul<L, W>(fe_sq<L, W>(v), v);
  const Fe<L> v7 = fe_mul<L, W>(fe_sq<L, W>(v3), v);
  Fe<L> x = fe_mul<L, W>(fe_mul<L, W>(u, v3),
                         fe_pow22523<L, W>(fe_mul<L, W>(u, v7)));
  const Fe<L> vxx = fe_mul<L, W>(v, fe_sq<L, W>(x));
  if (!is_zero(fe_sub(vxx, u))) {
    if (!is_zero(fe_add(vxx, u))) return std::nullopt;  // not a curve point
    x = fe_mul<L, W>(x, sqrt_m1);
  }
  if (is_zero(x) && sign) return std::nullopt;  // -0 is not an encoding
  if (((fe_to_words(x)[0] & 1) != 0) != sign) x = fe_neg(x);
  return P3<L>{x, y, fe_const<L>(1), fe_mul<L, W>(x, y)};
}

// ---------------------------------------------------------------------
// Scalar multiplication.
// ---------------------------------------------------------------------

/// Row i of the comb table holds j * 256^i * B for j = 1..8.
using BaseTable = std::array<std::array<Niels<u64>, 8>, 32>;

/// The curve's derived constants and base point (ed25519.cpp derives them
/// once per process).
struct CurveConstants {
  Fe<u64> d, d2, sqrt_m1;
  P3<u64> base;
};
const CurveConstants& curve();

/// The comb table, built once per process from B with one batched
/// inversion (ed25519.cpp).
const BaseTable& base_table();

/// Signed radix-16 digits e[0..63] of a < 2^255: a = sum e[i] 16^i with
/// e[i] in [-8, 8], negative digits held in two's complement.
template <class L>
std::array<L, 64> recode16(const std::array<L, 4>& a) {
  std::array<L, 64> e;
  for (int i = 0; i < 64; ++i) e[i] = (a[i / 16] >> (4 * (i % 16))) & 15;
  L carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = e[i] + carry;
    carry = (e[i] + 8) >> 4;
    e[i] = e[i] - (carry << 4);
  }
  e[63] = e[63] + carry;
  return e;
}

/// The entry for `digit` in a row of 1x..8x multiples: row[|digit| - 1],
/// negated for a negative digit, or the identity for 0. Every entry of the
/// row is read under a mask, so no address or branch depends on the digit.
template <template <class> class Entry, class L>
Entry<L> table_select(const Entry<u64>* row, L digit) {
  const L negative = digit >> 63;
  const L magnitude = (digit ^ (L(0) - negative)) + negative;
  Entry<L> t = Entry<L>::identity();
  for (u64 j = 1; j <= 8; ++j) {
    const L diff = magnitude ^ j;  // 0 exactly at j == |digit|
    cmov(t, row[j - 1], L(0) - ((diff - 1) >> 63));
  }
  cmov(t, neg(t), L(0) - negative);
  return t;
}

/// a * B for a < 2^255 (a clamped secret or a reduced nonce): the odd
/// digits, times 16, plus the even digits, one table row per digit pair --
/// 64 mixed additions and 4 doublings.
template <class L, class W>
P3<L> scalarmult_base(const std::array<L, 4>& a, const BaseTable& table) {
  const std::array<L, 64> e = recode16(a);
  P3<L> h = P3<L>::identity();
  for (int i = 1; i < 64; i += 2) {
    h = to_p3<L, W>(madd<L, W>(h, table_select(table[i / 2].data(), e[i])));
  }
  h = times16<L, W>(h);
  for (int i = 0; i < 64; i += 2) {
    h = to_p3<L, W>(madd<L, W>(h, table_select(table[i / 2].data(), e[i])));
  }
  return h;
}

/// a * p for a < 2^255 over a window of 1p..8p. Verification only
/// (public a and p); it reuses the masked select, so it is constant-time
/// too, but nothing relies on that.
template <class W>
P3<u64> scalarmult(const std::array<u64, 4>& a, const P3<u64>& p,
                   const Fe<u64>& d2) {
  std::array<Cached<u64>, 8> multiples;
  multiples[0] = to_cached<u64, W>(p, d2);
  P3<u64> acc = p;
  for (std::size_t j = 1; j < 8; ++j) {
    acc = to_p3<u64, W>(add<u64, W>(acc, multiples[0]));
    multiples[j] = to_cached<u64, W>(acc, d2);
  }
  const std::array<u64, 64> e = recode16(a);
  P3<u64> h = P3<u64>::identity();
  for (int i = 63; i >= 0; --i) {
    if (i != 63) h = times16<u64, W>(h);
    h = to_p3<u64, W>(add<u64, W>(h, table_select(multiples.data(), e[i])));
  }
  return h;
}

// ---------------------------------------------------------------------
// Scalars mod l, as little-endian 64-bit words.
// ---------------------------------------------------------------------

inline constexpr std::array<u64, 4> kOrder = {
    0x5812631a5cf5d3edull, 0x14def9dea2f79cd6ull, 0, 0x1000000000000000ull};

/// Barrett's constant mu = floor(2^512 / l) (261 bits), by long division
/// at compile time, and whether the remainder 2^512 mod l is below l / 2.
struct BarrettConstant {
  std::array<u64, 5> mu{};
  bool remainder_below_half = false;
};

inline constexpr BarrettConstant kBarrett = [] {
  auto at_least_order = [](const std::array<u64, 4>& r) {
    for (int i = 3; i >= 0; --i) {
      if (r[i] != kOrder[i]) return r[i] > kOrder[i];
    }
    return true;
  };
  auto shift_in = [](std::array<u64, 4>& r, u64 bit) {
    for (int i = 3; i > 0; --i) r[i] = (r[i] << 1) | (r[i - 1] >> 63);
    r[0] = (r[0] << 1) | bit;
  };
  BarrettConstant c;
  std::array<u64, 4> r{};  // remainder: below l, so 2r + 1 fits 254 bits
  for (int bit = 512; bit >= 0; --bit) {
    shift_in(r, bit == 512 ? 1 : 0);
    if (!at_least_order(r)) continue;
    u64 borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const u64 d = r[i] - kOrder[i] - borrow;
      borrow = (r[i] < kOrder[i] || (r[i] == kOrder[i] && borrow != 0)) ? 1 : 0;
      r[i] = d;
    }
    c.mu[static_cast<std::size_t>(bit / 64)] |= u64{1} << (bit % 64);
  }
  shift_in(r, 0);
  c.remainder_below_half = !at_least_order(r);
  return c;
}();

/// N little-endian words from 8N bytes (B = byte type).
template <class L, std::size_t N, class B>
std::array<L, N> load_words(const B* bytes) {
  std::array<L, N> w{};
  for (std::size_t i = 0; i < 8 * N; ++i) {
    w[i / 8] = w[i / 8] | (L(bytes[i]) << static_cast<int>(8 * (i % 8)));
  }
  return w;
}

/// RFC 8032's clamping of the secret scalar: clear bits 0-2 and 255, set
/// bit 254.
template <class L>
std::array<L, 4> clamp(std::array<L, 4> a) {
  a[0] = a[0] & ~u64{7};
  a[3] = (a[3] & (~u64{0} >> 1)) | (u64{1} << 62);
  return a;
}

/// Schoolbook product of an NA- and an NB-word number.
template <class L, class W, std::size_t NA, std::size_t NB>
std::array<L, NA + NB> mul_words(const std::array<L, NA>& a,
                                 const std::array<L, NB>& b) {
  std::array<L, NA + NB> r{};
  for (std::size_t i = 0; i < NA; ++i) {
    W carry = 0;
    for (std::size_t j = 0; j < NB; ++j) {
      const W cur = W(a[i]) * W(b[j]) + W(r[i + j]) + carry;
      r[i + j] = L(cur);
      carry = cur >> 64;
    }
    r[i + NB] = L(carry);
  }
  return r;
}

/// a - b mod 2^(64N), and the borrow out (1 when a < b).
template <class L, class W, std::size_t N>
std::array<L, N> sub_words(const std::array<L, N>& a,
                           const std::array<L, N>& b, L& borrow) {
  std::array<L, N> r;
  borrow = 0;
  for (std::size_t i = 0; i < N; ++i) {
    const W d = W(a[i]) - W(b[i]) - W(borrow);
    r[i] = L(d);
    borrow = L(d >> 64) & 1;
  }
  return r;
}

/// r - l when r >= l, else r: both computed, one kept under a mask.
template <class L, class W>
std::array<L, 5> sub_order_if_ge(const std::array<L, 5>& r) {
  std::array<L, 5> l;
  for (std::size_t i = 0; i < 5; ++i) l[i] = L(i < 4 ? kOrder[i] : 0);
  L borrow;
  const std::array<L, 5> d = sub_words<L, W>(r, l, borrow);
  const L keep = L(0) - borrow;  // all-ones when r < l
  std::array<L, 5> out;
  for (std::size_t i = 0; i < 5; ++i) out[i] = (r[i] & keep) | (d[i] & ~keep);
  return out;
}

/// x mod l for x < 2^512 (Barrett, HAC 14.42 with b = 2^64, k = 4). The
/// estimate q = floor(floor(x / b^3) * mu / b^5) falls short of x / l by
/// less than 1 + (2^512 mod l) / l + 2^-60, which is below 2 because the
/// remainder is below l / 2: x - q l lies in [0, 2l), and one masked
/// subtraction finishes it.
template <class L, class W>
std::array<L, 4> sc_reduce(const std::array<L, 8>& x) {
  std::array<L, 5> q1, mu, r1;
  for (std::size_t i = 0; i < 5; ++i) {
    q1[i] = x[i + 3];
    mu[i] = L(kBarrett.mu[i]);
    r1[i] = x[i];
  }
  const std::array<L, 10> q2 = mul_words<L, W>(q1, mu);
  std::array<L, 5> q3;
  for (std::size_t i = 0; i < 5; ++i) q3[i] = q2[i + 5];
  std::array<L, 4> l;
  for (std::size_t i = 0; i < 4; ++i) l[i] = L(kOrder[i]);
  const std::array<L, 9> ql = mul_words<L, W>(q3, l);
  std::array<L, 5> r2;
  for (std::size_t i = 0; i < 5; ++i) r2[i] = ql[i];
  L borrow;
  std::array<L, 5> r = sub_words<L, W>(r1, r2, borrow);  // mod 2^320
  static_assert(kBarrett.remainder_below_half);
  r = sub_order_if_ge<L, W>(r);
  return {r[0], r[1], r[2], r[3]};
}

/// (a * b + c) mod l for a, b, c < 2^256.
template <class L, class W>
std::array<L, 4> sc_muladd(const std::array<L, 4>& a, const std::array<L, 4>& b,
                           const std::array<L, 4>& c) {
  std::array<L, 8> x = mul_words<L, W>(a, b);
  W carry = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const W cur = W(x[i]) + W(i < 4 ? c[i] : L(0)) + carry;
    x[i] = L(cur);
    carry = cur >> 64;
  }
  return sc_reduce<L, W>(x);
}

/// Whether s < l (RFC 8032's canonical-S check).
inline bool sc_is_canonical(const std::array<u64, 4>& s) {
  for (int i = 3; i >= 0; --i) {
    if (s[i] != kOrder[i]) return s[i] < kOrder[i];
  }
  return false;
}

}  // namespace convolve::crypto::detail::ed25519
