// Dilithium rounding (FIPS 204 section 7.4) without branches, division or
// secret-indexed memory, in the style of the pq-crystals reference code.
// Templated on the coefficient type C (and the product type W where a sum
// is reduced), so ct_lint instantiates the shipped functions with
// Tainted<T> words. Inputs are canonical coefficients in [0, q).
#pragma once

#include "convolve/crypto/detail/pqc_ntt.hpp"
#include "convolve/crypto/dilithium.hpp"

namespace convolve::crypto::detail {

/// r = r1 * 2^d + r0 with r0 in (-2^(d-1), 2^(d-1)].
template <class C>
void power2round(C r, C& r1, C& r0) {
  constexpr int d = dilithium::kD;
  r1 = C((r + C((1 << (d - 1)) - 1)) >> d);
  r0 = C(r - (r1 << d));
}

/// r = r1 * 2 gamma2 + r0 with r0 in (-gamma2, gamma2]; the top interval,
/// where r - r0 would be q - 1, wraps to r1 = 0 and r0 = r - q. r1 is
/// ceil(r / 128) * 11275 / 2^24 rounded, i.e. r / (2 gamma2) rounded,
/// since 2 gamma2 = 128 * 1488 and 2^24 / 11275 is just above 1488.
template <class C>
void decompose(C r, C& r1, C& r0) {
  constexpr std::int32_t q = dilithium::kQ;
  constexpr std::int32_t gamma2 = dilithium::kGamma2;
  static_assert(gamma2 == (q - 1) / 88, "multiplier is for (q-1)/88");
  C a1 = C((r + C(127)) >> 7);
  a1 = C((a1 * C(11275) + C(1 << 23)) >> 24);
  a1 = C(a1 ^ (((C(43) - a1) >> 31) & a1));  // 44 -> 0
  r0 = C(r - a1 * C(2 * gamma2));
  r0 = C(r0 - (((C((q - 1) / 2) - r0) >> 31) & C(q)));  // > (q-1)/2 -> -q
  r1 = a1;
}

/// 1 when adding z (centred) to r changes the high bits of r, else 0.
template <class C, class W>
C make_hint(C z, C r) {
  C hi_r, lo_r, hi_rz, lo_rz;
  decompose(r, hi_r, lo_r);
  decompose(freeze<DilithiumField, C, W>(W(r) + W(z)), hi_rz, lo_rz);
  const C diff = C(hi_r ^ hi_rz);  // in [0, 63]
  return C(((C(0) - diff) >> 31) & C(1));
}

/// The high bits of r, moved one step (mod 44) towards r's low bits when
/// hint is 1.
template <class C>
C use_hint(C hint, C r) {
  constexpr std::int32_t m = (dilithium::kQ - 1) / (2 * dilithium::kGamma2);
  C r1, r0;
  decompose(r, r1, r0);
  const C up = C(((C(0) - r0) >> 31) & C(1));   // r0 > 0
  C v = C(r1 + hint * (C(2) * up - C(1)));      // in [-1, m]
  v = C(v + ((v >> 31) & C(m)));                // -1 -> m - 1
  return C(v - (((C(m - 1) - v) >> 31) & C(m)));  // m -> 0
}

}  // namespace convolve::crypto::detail
