// Montgomery number-theoretic transform shared by Kyber (q = 3329, int16
// coefficients, layers down to len = 2) and Dilithium (q = 8380417, int32
// coefficients, layers down to len = 1), in the style of the pq-crystals
// reference code.
//
// The core is templated on the parameter set F (q, root of unity and
// coefficient width) and on the coefficient types C (storage) and W (the
// product type, twice as wide), so ct_lint instantiates the code that
// ships with Tainted<T> coefficients. Every reduction below is a
// multiply-shift (Montgomery or Barrett): there is no `%`, no branch and
// no table index that depends on a coefficient.
//
// Montgomery domain: R = 2^kBits, kBits = the width of F::Coeff. The
// twiddles are stored times R, so a butterfly's Montgomery product
// zeta*R*f*R^-1 is the plain product. ntt_multiply returns a*b*R^-1, and
// ntt_inverse's final scale carries the compensating R, so
// ntt_inverse(ntt_multiply(ntt_forward(a), ntt_forward(b))) is the plain
// negacyclic product a*b.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

namespace convolve::crypto::detail {

/// Kyber / ML-KEM: 128 degree-1 factors of X^256 + 1 (17 is a primitive
/// 256th root of unity).
struct KyberField {
  using Coeff = std::int16_t;
  using Wide = std::int32_t;
  static constexpr std::int32_t kQ = 3329;
  static constexpr std::int32_t kRoot = 17;
  static constexpr int kMinLen = 2;
  /// reduce(): round(a / q) is (a * round(2^26 / q) + 2^25) >> 26.
  static constexpr int kReduceShift = 26;
};

/// Dilithium / ML-DSA: full splitting into 256 linear factors (1753 is a
/// primitive 512th root of unity).
struct DilithiumField {
  using Coeff = std::int32_t;
  using Wide = std::int64_t;
  static constexpr std::int32_t kQ = 8380417;
  static constexpr std::int32_t kRoot = 1753;
  static constexpr int kMinLen = 1;
  /// reduce(): q is just below 2^23, so round(a / q) is (a + 2^22) >> 23.
  static constexpr int kReduceShift = 23;
};

template <class F>
struct NttConst {
  static constexpr int kN = 256;
  static constexpr int kBits =
      std::numeric_limits<typename F::Coeff>::digits + 1;
  /// Zetas per table: one per butterfly group, N / kMinLen.
  static constexpr int kZetas = kN / F::kMinLen;
  /// Butterfly layers: log2(kZetas).
  static constexpr int kLayers =
      std::countr_zero(static_cast<unsigned>(kZetas));

  /// q^-1 mod 2^kBits as a signed Coeff-range value (Newton iteration:
  /// each step doubles the number of correct low bits).
  static constexpr std::int64_t kQInv = [] {
    std::uint64_t x = static_cast<std::uint64_t>(F::kQ);
    for (int i = 0; i < 5; ++i) {
      x *= 2 - static_cast<std::uint64_t>(F::kQ) * x;
    }
    const auto m = static_cast<std::int64_t>(
        x & ((std::uint64_t{1} << kBits) - 1));
    return m >> (kBits - 1) ? m - (std::int64_t{1} << kBits) : m;
  }();
  static constexpr std::int64_t kReduceMul =
      ((std::int64_t{1} << F::kReduceShift) + F::kQ / 2) / F::kQ;

  /// Layers of the inverse transform whose sums may stay unreduced: the
  /// sums double per layer from |f| < q, and 2^kLazyLayers * q must still
  /// fit in Coeff.
  static constexpr int kLazyLayers = [] {
    int l = 0;
    while ((std::int64_t{F::kQ} << (l + 1)) <=
           std::numeric_limits<typename F::Coeff>::max()) {
      ++l;
    }
    return l;
  }();
};

/// a * R^-1 mod q for |a| < 2^(kBits-1) * q; the result lies in (-q, q).
template <class F, class C = typename F::Coeff, class W = typename F::Wide>
C montgomery_reduce(std::type_identity_t<W> a) {
  using K = NttConst<F>;
  const C t = C(W(C(a)) * W(K::kQInv));
  return C((a - W(t) * W(F::kQ)) >> K::kBits);
}

/// a * b * R^-1 mod q (Kyber's fqmul).
template <class F, class C = typename F::Coeff, class W = typename F::Wide>
C mont_mul(std::type_identity_t<C> a, std::type_identity_t<C> b) {
  return montgomery_reduce<F, C, W>(W(a) * W(b));
}

/// a - round(a / q) * q, with round(a / q) approximated by a multiply and
/// a shift (Dilithium's reduce32, Kyber's barrett_reduce): a
/// representative of a mod q in (-q, q) -- about q/2 from zero for |a| of a
/// few q -- for any a whose product with the multiplier fits W.
template <class F, class C = typename F::Coeff, class W = typename F::Wide>
C reduce(std::type_identity_t<W> a) {
  using K = NttConst<F>;
  const W half(std::int64_t{1} << (F::kReduceShift - 1));
  const W t = (a * W(K::kReduceMul) + half) >> F::kReduceShift;
  return C(a - t * W(F::kQ));
}

/// Adds q to a negative a (a in (-q, q) -> [0, q)).
template <class F, class C = typename F::Coeff>
C caddq(std::type_identity_t<C> a) {
  return C(a + ((a >> (NttConst<F>::kBits - 1)) & C(F::kQ)));
}

/// The canonical representative in [0, q).
template <class F, class C = typename F::Coeff, class W = typename F::Wide>
C freeze(std::type_identity_t<W> a) {
  return caddq<F, C>(reduce<F, C, W>(a));
}

/// Twiddles in the Montgomery domain, centred in (-q/2, q/2]: zetas[k] =
/// root^bitrev(k) * R, inv_zetas[k] = root^-bitrev(k) * R, the inverse
/// scale s = (N / kMinLen)^-1 * R^2, and s * inv_zetas[1] for the inverse's
/// last layer, which applies the scale. Computed at compile time from the
/// root.
template <class F>
struct NttTwiddles {
  std::array<typename F::Coeff, NttConst<F>::kZetas> zetas{};
  std::array<typename F::Coeff, NttConst<F>::kZetas> inv_zetas{};
  typename F::Coeff scale = 0;
  typename F::Coeff scaled_last_zeta = 0;

  constexpr NttTwiddles() {
    using K = NttConst<F>;
    constexpr std::int64_t q = F::kQ;
    auto mul = [](std::int64_t a, std::int64_t b) { return a * b % q; };
    auto pow = [&](std::int64_t b, std::int64_t e) {
      std::int64_t r = 1;
      for (; e > 0; e >>= 1, b = mul(b, b)) {
        if (e & 1) r = mul(r, b);
      }
      return r;
    };
    const std::int64_t r_mod_q = (std::int64_t{1} << K::kBits) % q;
    auto mont = [&](std::int64_t a) {  // a * R, centred
      const std::int64_t m = mul(a, r_mod_q);
      return static_cast<typename F::Coeff>(m > q / 2 ? m - q : m);
    };
    constexpr int bits = K::kLayers;
    for (int k = 0; k < K::kZetas; ++k) {
      int rev = 0;
      for (int b = 0; b < bits; ++b) rev |= ((k >> b) & 1) << (bits - 1 - b);
      const std::int64_t z = pow(F::kRoot, rev);
      zetas[static_cast<std::size_t>(k)] = mont(z);
      inv_zetas[static_cast<std::size_t>(k)] = mont(pow(z, q - 2));
    }
    const std::int64_t n_inv = pow(K::kZetas, q - 2);
    scale = mont(mul(n_inv, r_mod_q));
    const std::int64_t zeta1 = pow(F::kRoot, 1 << (bits - 1));  // bitrev(1)
    scaled_last_zeta = mont(mul(mul(n_inv, pow(zeta1, q - 2)), r_mod_q));
  }
};

template <class F>
inline constexpr NttTwiddles<F> kNttTwiddles{};

/// One Cooley-Tukey layer with butterfly span kLen. The span is a template
/// argument so that the short inner loops of the last layers unroll.
template <int kLen, class F, class C, class W>
void ntt_forward_layer(C* f) {
  constexpr int n = NttConst<F>::kN;
  const auto& zetas = kNttTwiddles<F>.zetas;
  std::size_t k = n / (2 * kLen);  // this layer's groups use zetas[k...]
  for (int start = 0; start < n; start += 2 * kLen) {
    const C zeta(zetas[k++]);
    for (int j = start; j < start + kLen; ++j) {
      const C t = mont_mul<F, C, W>(zeta, f[j + kLen]);
      f[j + kLen] = C(f[j] - t);
      f[j] = C(f[j] + t);
    }
  }
}

/// Forward NTT, input in standard order with |f| < q, output in
/// bit-reversed order with |f| < (1 + layers) * q: the additions are lazy,
/// and no layer's growth leaves C (8q for Kyber, 9q for Dilithium).
template <class F, class C = typename F::Coeff, class W = typename F::Wide>
void ntt_forward(std::type_identity_t<C>* f) {
  using K = NttConst<F>;
  [f]<int... kLayer>(std::integer_sequence<int, kLayer...>) {
    (ntt_forward_layer<((K::kN / 2) >> kLayer), F, C, W>(f), ...);
  }(std::make_integer_sequence<int, K::kLayers>{});
}

/// One Gentleman-Sande layer with butterfly span kLen. kReduceSums is a
/// property of the layer, not of the data: the sums are formed in W and
/// reduced on the layers where they would otherwise leave C.
template <int kLen, bool kReduceSums, class F, class C, class W>
void ntt_inverse_layer(C* f) {
  constexpr int n = NttConst<F>::kN;
  const auto& inv_zetas = kNttTwiddles<F>.inv_zetas;
  std::size_t k = n / (2 * kLen);  // this layer's groups use inv_zetas[k...]
  for (int start = 0; start < n; start += 2 * kLen) {
    const W zeta(inv_zetas[k++]);
    for (int j = start; j < start + kLen; ++j) {
      const C t = f[j];
      if constexpr (kReduceSums) {
        f[j] = reduce<F, C, W>(W(t) + W(f[j + kLen]));
      } else {
        f[j] = C(t + f[j + kLen]);
      }
      f[j + kLen] = montgomery_reduce<F, C, W>(zeta * (W(t) - W(f[j + kLen])));
    }
  }
}

/// Gentleman-Sande inverse of ntt_forward times R, for input |f| < q;
/// output in (-q, q). The sums double per layer, so layer L (from 1)
/// reduces them when L is a multiple of kLazyLayers + 1: Kyber's fourth
/// layer, and never for Dilithium, whose 2^8 q still fits an int32. The
/// last layer multiplies both halves by the scale instead of a separate
/// pass.
template <class F, class C = typename F::Coeff, class W = typename F::Wide>
void ntt_inverse(std::type_identity_t<C>* f) {
  using K = NttConst<F>;
  [f]<int... kLayer>(std::integer_sequence<int, kLayer...>) {
    (ntt_inverse_layer<(F::kMinLen << kLayer),
                       (kLayer + 1) % (K::kLazyLayers + 1) == 0, F, C, W>(f),
     ...);
  }(std::make_integer_sequence<int, K::kLayers - 1>{});
  constexpr int half = K::kN / 2;
  const W scale(kNttTwiddles<F>.scale);
  const W zeta(kNttTwiddles<F>.scaled_last_zeta);
  for (int j = 0; j < half; ++j) {
    const W t(f[j]);
    const W u(f[j + half]);
    f[j] = montgomery_reduce<F, C, W>(scale * (t + u));
    f[j + half] = montgomery_reduce<F, C, W>(zeta * (t - u));
  }
}

/// r = a * b * R^-1 in the NTT domain. With full splitting that is one
/// Montgomery product per coefficient, |r| < q for |a * b| < 2^31 q. With
/// Kyber's degree-1 factors each pair is a product mod X^2 - gamma, where
/// gamma = +-zetas[64 + i / 2] (the eighth layer's twiddles), and |r| < 2q
/// for |a|, |b| < 2^12.
template <class F, class C = typename F::Coeff, class W = typename F::Wide>
void ntt_multiply(std::type_identity_t<C>* r, const std::type_identity_t<C>* a,
                  const std::type_identity_t<C>* b) {
  constexpr int n = NttConst<F>::kN;
  if constexpr (F::kMinLen == 1) {
    for (int i = 0; i < n; ++i) r[i] = mont_mul<F, C, W>(a[i], b[i]);
  } else {
    static_assert(F::kMinLen == 2);
    const auto& zetas = kNttTwiddles<F>.zetas;
    for (int i = 0; i < n / 2; ++i) {
      const auto z = zetas[static_cast<std::size_t>(n / 4 + i / 2)];
      const C gamma((i & 1) ? -z : z);
      const C a0 = a[2 * i], a1 = a[2 * i + 1];
      const C b0 = b[2 * i], b1 = b[2 * i + 1];
      r[2 * i] = C(mont_mul<F, C, W>(mont_mul<F, C, W>(a1, b1), gamma) +
                   mont_mul<F, C, W>(a0, b0));
      r[2 * i + 1] =
          C(mont_mul<F, C, W>(a0, b1) + mont_mul<F, C, W>(a1, b0));
    }
  }
}

}  // namespace convolve::crypto::detail
