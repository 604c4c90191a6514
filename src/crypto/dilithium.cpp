#include "convolve/crypto/dilithium.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "convolve/crypto/detail/dilithium_rounding.hpp"
#include "convolve/crypto/detail/pqc_ntt.hpp"
#include "convolve/crypto/keccak.hpp"

namespace convolve::crypto::dilithium {

namespace {

using F = detail::DilithiumField;

// The canonical representative in [0, q).
std::int32_t mod_q(std::int64_t a) { return detail::freeze<F>(a); }

// Centered representative in [-(q-1)/2, (q-1)/2].
std::int32_t centered(std::int32_t a) {
  return a - ((((kQ - 1) / 2 - a) >> 31) & kQ);
}

// ---------------------------------------------------------------------
// NTT over Z_q[X]/(X^256+1), the Montgomery core of detail/pqc_ntt.hpp.
// ntt() leaves |f| < 9q, which only ever feeds a product (pointwise,
// matvec: 9q * q summed four times stays far inside the Montgomery input
// range). intt() expects such a Montgomery product, whose R^-1 its scale
// cancels, and leaves (-q, q): poly_add/poly_sub, or caddq_poly where
// rounding needs canonical coefficients, finish the reduction.
// ---------------------------------------------------------------------

void freeze_poly(Poly& f) {
  for (auto& c : f) c = detail::freeze<F>(c);
}

// (-q, q) -> [0, q).
void caddq_poly(Poly& f) {
  for (auto& c : f) c = detail::caddq<F>(c);
}

void ntt(Poly& f) { detail::ntt_forward<F>(f.data()); }

void intt(Poly& f) { detail::ntt_inverse<F>(f.data()); }

Poly pointwise(const Poly& a, const Poly& b) {
  Poly r;
  detail::ntt_multiply<F>(r.data(), a.data(), b.data());
  return r;
}

Poly poly_add(const Poly& a, const Poly& b) {
  Poly r;
  for (int i = 0; i < kN; ++i) r[i] = detail::freeze<F>(a[i] + b[i]);
  return r;
}

Poly poly_sub(const Poly& a, const Poly& b) {
  Poly r;
  for (int i = 0; i < kN; ++i) r[i] = detail::freeze<F>(a[i] - b[i]);
  return r;
}

template <std::size_t Len>
using Vec = std::array<Poly, Len>;

template <std::size_t Len>
void vec_ntt(Vec<Len>& v) {
  for (auto& p : v) ntt(p);
}

template <std::size_t Len>
void vec_intt(Vec<Len>& v) {
  for (auto& p : v) intt(p);
}

template <std::size_t Len>
void vec_freeze(Vec<Len>& v) {
  for (auto& p : v) freeze_poly(p);
}

// Whether some coefficient's centred magnitude reaches `bound`. Only the
// verdict is public (it decides a rejection), so no coefficient steers a
// branch: the sign bits of bound - 1 - |c| are ORed together.
bool poly_norm_reaches(const Poly& p, std::int32_t bound) {
  std::int32_t over = 0;
  for (auto coeff : p) {
    const std::int32_t c = centered(coeff);
    const std::int32_t mag = c - ((c >> 31) & (2 * c));
    over |= bound - 1 - mag;
  }
  return over < 0;
}

template <std::size_t Len>
bool vec_norm_reaches(const Vec<Len>& v, std::int32_t bound) {
  bool reaches = false;
  for (const auto& p : v) reaches |= poly_norm_reaches(p, bound);
  return reaches;
}

// ---------------------------------------------------------------------
// Rounding: the branch-free detail/dilithium_rounding.hpp functions.
// ---------------------------------------------------------------------

std::int32_t high_bits(std::int32_t r) {
  std::int32_t r1, r0;
  detail::decompose(r, r1, r0);
  return r1;
}

std::int32_t low_bits(std::int32_t r) {
  std::int32_t r1, r0;
  detail::decompose(r, r1, r0);
  return r0;
}

// ---------------------------------------------------------------------
// Samplers.
// ---------------------------------------------------------------------

Poly expand_a_entry(ByteView rho, int row, int col) {
  Shake xof(Shake::Variant::k128);
  const std::uint8_t idx[2] = {static_cast<std::uint8_t>(col),
                               static_cast<std::uint8_t>(row)};
  xof.absorb(rho);
  xof.absorb({idx, 2});
  Poly f{};
  int count = 0;
  std::uint8_t buf[168];  // one SHAKE128 block: 56 three-byte candidates
  while (count < kN) {
    xof.squeeze(buf);
    for (std::size_t i = 0; i < sizeof buf && count < kN; i += 3) {
      const std::int32_t v =
          (buf[i] | (buf[i + 1] << 8) | (buf[i + 2] << 16)) & 0x7fffff;
      if (v < kQ) f[count++] = v;
    }
  }
  return f;
}

// eta = 2 short secret via nibble rejection.
Poly expand_s_entry(ByteView rho_prime, std::uint16_t nonce) {
  Shake xof(Shake::Variant::k256);
  const std::uint8_t n[2] = {static_cast<std::uint8_t>(nonce),
                             static_cast<std::uint8_t>(nonce >> 8)};
  xof.absorb(rho_prime);
  xof.absorb({n, 2});
  Poly f{};
  int count = 0;
  std::uint8_t buf[136];  // one SHAKE256 block
  while (count < kN) {
    xof.squeeze(buf);
    for (std::size_t i = 0; i < sizeof buf && count < kN; ++i) {
      for (const int nib : {buf[i] & 0x0f, buf[i] >> 4}) {
        if (nib < 15 && count < kN) {
          f[count++] = mod_q(kEta - (nib % (2 * kEta + 1)));
        }
      }
    }
  }
  return f;
}

// Sparse +-1 challenge polynomial with tau nonzero coefficients.
Poly sample_in_ball(ByteView c_tilde) {
  Shake xof(Shake::Variant::k256);
  xof.absorb(c_tilde);
  std::uint8_t buf[136];  // one SHAKE256 block: 8 sign bytes, then positions
  xof.squeeze(buf);
  std::uint64_t sign_bits = load_le64(buf);
  std::size_t next = 8;
  Poly c{};
  for (int i = kN - kTau; i < kN; ++i) {
    int j;
    do {
      if (next == sizeof buf) {
        xof.squeeze(buf);
        next = 0;
      }
      j = buf[next++];
    } while (j > i);
    c[i] = c[j];
    c[j] = (sign_bits & 1) ? mod_q(-1) : 1;
    sign_bits >>= 1;
  }
  return c;
}

// ---------------------------------------------------------------------
// Bit packing.
// ---------------------------------------------------------------------

// Fields are packed little-endian, `bits` per coefficient.
template <class Transform>
void pack_bits(Bytes& out, const Poly& f, int bits, Transform transform) {
  out.reserve(out.size() + static_cast<std::size_t>(kN * bits / 8));
  std::uint64_t acc = 0;
  int acc_bits = 0;
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t raw =
        static_cast<std::uint32_t>(transform(f[i])) &
        ((1u << bits) - 1);
    acc |= raw << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  assert(acc_bits == 0);
}

template <class Transform>
Poly unpack_bits(const std::uint8_t*& p, int bits, Transform transform) {
  Poly f{};
  std::uint64_t acc = 0;
  int acc_bits = 0;
  for (int i = 0; i < kN; ++i) {
    while (acc_bits < bits) {
      acc |= static_cast<std::uint64_t>(*p++) << acc_bits;
      acc_bits += 8;
    }
    f[i] = transform(static_cast<std::int32_t>(acc & ((1u << bits) - 1)));
    acc >>= bits;
    acc_bits -= bits;
  }
  return f;
}

// Per-field transforms (raw <-> coefficient), as closures so that the
// packing loops inline them. Every unpacked value lies in (-q, q), so
// adding q to the negative ones makes it canonical.
constexpr auto id_fwd = [](std::int32_t x) { return x; };
constexpr auto eta_fwd = [](std::int32_t c) { return kEta - centered(c); };
constexpr auto eta_bwd = [](std::int32_t raw) {
  return detail::caddq<F>(kEta - raw);
};
constexpr auto t0_fwd = [](std::int32_t c) {
  return (1 << (kD - 1)) - centered(c);
};
constexpr auto t0_bwd = [](std::int32_t raw) {
  return detail::caddq<F>((1 << (kD - 1)) - raw);
};
constexpr auto z_fwd = [](std::int32_t c) { return kGamma1 - centered(c); };
constexpr auto z_bwd = [](std::int32_t raw) {
  return detail::caddq<F>(kGamma1 - raw);
};

// The 18-bit fields of y and z, four per nine bytes: the signing loop
// unpacks four such polynomials per attempt, so they get shifts by
// constants instead of the general loop below.
Poly unpack_gamma1(const std::uint8_t*& p) {
  constexpr std::uint64_t m = (1u << 18) - 1;
  Poly f;
  for (int i = 0; i < kN; i += 4, p += 9) {
    std::uint64_t w = 0;
    for (int b = 0; b < 8; ++b) w |= std::uint64_t{p[b]} << (8 * b);
    const std::uint64_t top = (w >> 54) | (std::uint64_t{p[8]} << 10);
    f[i] = z_bwd(static_cast<std::int32_t>(w & m));
    f[i + 1] = z_bwd(static_cast<std::int32_t>((w >> 18) & m));
    f[i + 2] = z_bwd(static_cast<std::int32_t>((w >> 36) & m));
    f[i + 3] = z_bwd(static_cast<std::int32_t>(top & m));
  }
  return f;
}

// y coefficients in [-(gamma1-1), gamma1]: 18-bit fields of the SHAKE256
// stream, little-endian, mapped like a packed z.
Poly expand_mask_entry(ByteView rho_pp, std::uint16_t nonce) {
  Shake xof(Shake::Variant::k256);
  std::uint8_t n[2] = {static_cast<std::uint8_t>(nonce),
                       static_cast<std::uint8_t>(nonce >> 8)};
  xof.absorb(rho_pp);
  xof.absorb({n, 2});
  std::uint8_t buf[576];
  xof.squeeze(buf);
  const std::uint8_t* p = buf;
  return unpack_gamma1(p);
}

// Hint vector: omega position bytes plus k cumulative-count bytes.
Bytes pack_hints(const Vec<kK>& h) {
  Bytes out(kOmega + kK, 0);
  std::size_t idx = 0;
  for (int i = 0; i < kK; ++i) {
    for (int j = 0; j < kN; ++j) {
      if (h[static_cast<std::size_t>(i)][j] != 0) {
        out[idx++] = static_cast<std::uint8_t>(j);
      }
    }
    out[kOmega + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(idx);
  }
  return out;
}

bool unpack_hints(ByteView data, Vec<kK>& h) {
  if (data.size() != kOmega + kK) return false;
  for (auto& p : h) p.fill(0);
  std::size_t idx = 0;
  for (int i = 0; i < kK; ++i) {
    const std::size_t end = data[kOmega + static_cast<std::size_t>(i)];
    if (end < idx || end > kOmega) return false;
    std::size_t prev_pos = 0;
    for (std::size_t j = idx; j < end; ++j) {
      const std::size_t pos = data[j];
      if (j > idx && pos <= prev_pos) return false;  // must be ascending
      h[static_cast<std::size_t>(i)][pos] = 1;
      prev_pos = pos;
    }
    idx = end;
  }
  // Remaining position bytes must be zero padding.
  for (std::size_t j = idx; j < kOmega; ++j) {
    if (data[j] != 0) return false;
  }
  return true;
}

int count_hints(const Vec<kK>& h) {
  int n = 0;
  for (const auto& p : h) {
    for (auto c : p) n += (c != 0);
  }
  return n;
}

// w1 has coefficients in [0, 43]: 6 bits each.
Bytes pack_w1(const Vec<kK>& w1) {
  Bytes out;
  for (const auto& p : w1) pack_bits(out, p, 6, id_fwd);
  return out;
}

// ---------------------------------------------------------------------
// Matrix application.
// ---------------------------------------------------------------------

using Matrix = std::array<Vec<kL>, kK>;  // NTT domain

Matrix expand_a(ByteView rho) {
  Matrix a;
  for (int i = 0; i < kK; ++i) {
    for (int j = 0; j < kL; ++j) {
      a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          expand_a_entry(rho, i, j);
    }
  }
  return a;
}

// A * v_hat in the NTT domain, as a Montgomery product (times R^-1): each
// coefficient's kL products (A canonical, |v_hat| < 9q) are summed in 64
// bits (kL * 9q * q < 2^31 * q) and reduced once.
Vec<kK> matvec(const Matrix& a, const Vec<kL>& v_hat) {
  Vec<kK> w;
  for (std::size_t i = 0; i < kK; ++i) {
    for (int n = 0; n < kN; ++n) {
      std::int64_t acc = 0;
      for (std::size_t j = 0; j < kL; ++j) {
        acc += std::int64_t{a[i][j][n]} * v_hat[j][n];
      }
      w[i][n] = detail::montgomery_reduce<F>(acc);
    }
  }
  return w;
}

}  // namespace

KeyPair keygen(ByteView seed32) {
  if (seed32.size() != 32) throw std::invalid_argument("keygen: seed != 32B");
  Shake h(Shake::Variant::k256);
  const std::uint8_t kl[2] = {kK, kL};
  h.absorb(seed32);
  h.absorb({kl, 2});
  const Bytes expanded = h.squeeze(128);
  const ByteView rho{expanded.data(), 32};
  const ByteView rho_prime{expanded.data() + 32, 64};
  const ByteView cap_k{expanded.data() + 96, 32};

  const Matrix a = expand_a(rho);
  Vec<kL> s1{};
  Vec<kK> s2{};
  std::uint16_t nonce = 0;
  for (auto& p : s1) p = expand_s_entry(rho_prime, nonce++);
  for (auto& p : s2) p = expand_s_entry(rho_prime, nonce++);

  Vec<kL> s1_hat = s1;
  vec_ntt(s1_hat);
  Vec<kK> t = matvec(a, s1_hat);
  vec_intt(t);
  for (int i = 0; i < kK; ++i) {
    t[static_cast<std::size_t>(i)] =
        poly_add(t[static_cast<std::size_t>(i)],
                 s2[static_cast<std::size_t>(i)]);
  }

  Vec<kK> t1{}, t0{};
  for (int i = 0; i < kK; ++i) {
    for (int j = 0; j < kN; ++j) {
      std::int32_t hi, lo;
      detail::power2round(t[static_cast<std::size_t>(i)][j], hi, lo);
      t1[static_cast<std::size_t>(i)][j] = hi;
      t0[static_cast<std::size_t>(i)][j] = mod_q(lo);
    }
  }

  KeyPair kp;
  kp.pk.insert(kp.pk.end(), rho.begin(), rho.end());
  for (const auto& p : t1) pack_bits(kp.pk, p, 10, id_fwd);
  assert(kp.pk.size() == kPkBytes);

  const Bytes tr = shake256(kp.pk, 64);
  kp.sk.insert(kp.sk.end(), rho.begin(), rho.end());
  kp.sk.insert(kp.sk.end(), cap_k.begin(), cap_k.end());
  kp.sk.insert(kp.sk.end(), tr.begin(), tr.end());
  for (const auto& p : s1) pack_bits(kp.sk, p, 3, eta_fwd);
  for (const auto& p : s2) pack_bits(kp.sk, p, 3, eta_fwd);
  for (const auto& p : t0) pack_bits(kp.sk, p, 13, t0_fwd);
  assert(kp.sk.size() == kSkBytes);
  return kp;
}

SigningKey expand_signing_key(ByteView sk) {
  if (sk.size() != kSkBytes) throw std::invalid_argument("sign: bad sk");
  SigningKey key;
  const ByteView rho{sk.data(), 32};
  std::copy_n(sk.data() + 32, 32, key.seed_k.begin());
  std::copy_n(sk.data() + 64, 64, key.tr.begin());
  const std::uint8_t* p = sk.data() + 128;
  for (auto& poly : key.s1_hat) poly = unpack_bits(p, 3, eta_bwd);
  for (auto& poly : key.s2_hat) poly = unpack_bits(p, 3, eta_bwd);
  for (auto& poly : key.t0_hat) poly = unpack_bits(p, 13, t0_bwd);
  vec_ntt(key.s1_hat);
  vec_ntt(key.s2_hat);
  vec_ntt(key.t0_hat);
  vec_freeze(key.s1_hat);
  vec_freeze(key.s2_hat);
  vec_freeze(key.t0_hat);
  key.a_hat = expand_a(rho);
  return key;
}

Bytes sign(ByteView sk, ByteView message) {
  return sign(expand_signing_key(sk), message);
}

Bytes sign(const SigningKey& key, ByteView message) {
  const Matrix& a = key.a_hat;
  const Vec<kL>& s1_hat = key.s1_hat;
  const Vec<kK>& s2_hat = key.s2_hat;
  const Vec<kK>& t0_hat = key.t0_hat;

  Shake hmu(Shake::Variant::k256);
  hmu.absorb(key.tr);
  hmu.absorb(message);
  const Bytes mu = hmu.squeeze(64);

  // Deterministic variant: rnd is 32 zero bytes.
  Shake hrho(Shake::Variant::k256);
  const Bytes rnd(32, 0);
  hrho.absorb(key.seed_k);
  hrho.absorb(rnd);
  hrho.absorb(mu);
  const Bytes rho_pp = hrho.squeeze(64);

  for (std::uint16_t kappa = 0;; kappa = static_cast<std::uint16_t>(kappa + kL)) {
    Vec<kL> y{};
    for (int i = 0; i < kL; ++i) {
      y[static_cast<std::size_t>(i)] = expand_mask_entry(
          rho_pp, static_cast<std::uint16_t>(kappa + i));
    }
    Vec<kL> y_hat = y;
    vec_ntt(y_hat);
    Vec<kK> w = matvec(a, y_hat);
    vec_intt(w);
    for (auto& p : w) caddq_poly(p);

    Vec<kK> w1{};
    for (int i = 0; i < kK; ++i) {
      for (int j = 0; j < kN; ++j) {
        w1[static_cast<std::size_t>(i)][j] =
            high_bits(w[static_cast<std::size_t>(i)][j]);
      }
    }

    Shake hc(Shake::Variant::k256);
    hc.absorb(mu);
    const Bytes w1_packed = pack_w1(w1);
    hc.absorb(w1_packed);
    const Bytes c_tilde = hc.squeeze(32);

    Poly c = sample_in_ball(c_tilde);
    Poly c_hat = c;
    ntt(c_hat);

    // The attempt is accepted only if every norm check passes, so their
    // order cannot change the signature. They run polynomial by polynomial,
    // the likeliest to reject (r0, then z) first, and stop at the first
    // rejection. Which polynomial rejects reveals nothing about the key:
    // each coefficient exceeds its bound with a probability set by the
    // uniform mask alone (the reference code even stops at the first such
    // coefficient).
    // r0 = LowBits(w - c*s2)
    bool reject = false;
    Vec<kK> w_minus_cs2{}, ct0{};
    for (std::size_t i = 0; i < kK && !reject; ++i) {
      Poly cs2 = pointwise(c_hat, s2_hat[i]);
      intt(cs2);
      w_minus_cs2[i] = poly_sub(w[i], cs2);
      Poly r0;
      for (int j = 0; j < kN; ++j) r0[j] = mod_q(low_bits(w_minus_cs2[i][j]));
      reject = poly_norm_reaches(r0, kGamma2 - kBeta);
    }

    // z = y + c*s1
    Vec<kL> z{};
    for (std::size_t i = 0; i < kL && !reject; ++i) {
      Poly cs1 = pointwise(c_hat, s1_hat[i]);
      intt(cs1);
      z[i] = poly_add(y[i], cs1);
      reject = poly_norm_reaches(z[i], kGamma1 - kBeta);
    }

    for (std::size_t i = 0; i < kK && !reject; ++i) {
      ct0[i] = pointwise(c_hat, t0_hat[i]);
      intt(ct0[i]);
      caddq_poly(ct0[i]);
      reject = poly_norm_reaches(ct0[i], kGamma2);
    }

    if (!reject) {
      Vec<kK> h{};
      int ones = 0;
      for (int i = 0; i < kK; ++i) {
        for (int j = 0; j < kN; ++j) {
          const std::int32_t neg_ct0 =
              mod_q(-static_cast<std::int64_t>(
                  ct0[static_cast<std::size_t>(i)][j]));
          const std::int32_t r = mod_q(
              static_cast<std::int64_t>(
                  w_minus_cs2[static_cast<std::size_t>(i)][j]) +
              ct0[static_cast<std::size_t>(i)][j]);
          const std::int32_t hint =
              detail::make_hint<std::int32_t, std::int64_t>(centered(neg_ct0),
                                                            r);
          h[static_cast<std::size_t>(i)][j] = hint;
          ones += hint;
        }
      }
      if (ones <= kOmega) {
        Bytes sig;
        sig.insert(sig.end(), c_tilde.begin(), c_tilde.end());
        for (const auto& zp : z) pack_bits(sig, zp, 18, z_fwd);
        const Bytes hp = pack_hints(h);
        sig.insert(sig.end(), hp.begin(), hp.end());
        assert(sig.size() == kSigBytes);
        return sig;
      }
    }
  }
}

bool verify(ByteView pk, ByteView message, ByteView signature) {
  if (pk.size() != kPkBytes || signature.size() != kSigBytes) return false;
  const ByteView rho{pk.data(), 32};
  const std::uint8_t* pt = pk.data() + 32;
  Vec<kK> t1{};
  for (auto& poly : t1) poly = unpack_bits(pt, 10, id_fwd);

  const ByteView c_tilde{signature.data(), 32};
  const std::uint8_t* pz = signature.data() + 32;
  Vec<kL> z{};
  for (auto& poly : z) poly = unpack_gamma1(pz);
  Vec<kK> h{};
  if (!unpack_hints({signature.data() + 32 + 576 * kL, kOmega + kK}, h)) {
    return false;
  }
  if (count_hints(h) > kOmega) return false;
  if (vec_norm_reaches(z, kGamma1 - kBeta)) return false;

  const Matrix a = expand_a(rho);
  const Bytes tr = shake256(pk, 64);
  Shake hmu(Shake::Variant::k256);
  hmu.absorb(tr);
  hmu.absorb(message);
  const Bytes mu = hmu.squeeze(64);

  Poly c = sample_in_ball(c_tilde);
  Poly c_hat = c;
  ntt(c_hat);

  Vec<kL> z_hat = z;
  vec_ntt(z_hat);
  Vec<kK> az = matvec(a, z_hat);

  // w' = A z - c * t1 * 2^d  (all in NTT domain, then inverse).
  Vec<kK> w_approx{};
  for (int i = 0; i < kK; ++i) {
    Poly t1_shifted = t1[static_cast<std::size_t>(i)];
    for (auto& coeff : t1_shifted) {
      coeff = mod_q(static_cast<std::int64_t>(coeff) << kD);
    }
    ntt(t1_shifted);
    Poly ct1 = pointwise(c_hat, t1_shifted);
    Poly diff = poly_sub(az[static_cast<std::size_t>(i)], ct1);
    intt(diff);
    caddq_poly(diff);
    w_approx[static_cast<std::size_t>(i)] = diff;
  }

  Vec<kK> w1{};
  for (int i = 0; i < kK; ++i) {
    for (int j = 0; j < kN; ++j) {
      w1[static_cast<std::size_t>(i)][j] = detail::use_hint(
          h[static_cast<std::size_t>(i)][j],
          w_approx[static_cast<std::size_t>(i)][j]);
    }
  }

  Shake hc(Shake::Variant::k256);
  hc.absorb(mu);
  const Bytes w1_packed = pack_w1(w1);
  hc.absorb(w1_packed);
  const Bytes c_tilde_prime = hc.squeeze(32);
  return ct_equal(c_tilde, c_tilde_prime);
}

}  // namespace convolve::crypto::dilithium
