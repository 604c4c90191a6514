#include "convolve/analysis/ct_taint.hpp"

#include <array>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "convolve/crypto/aes.hpp"
#include "convolve/crypto/chacha20.hpp"
#include "convolve/crypto/detail/aes_core.hpp"
#include "convolve/crypto/detail/chacha_core.hpp"
#include "convolve/crypto/detail/dilithium_rounding.hpp"
#include "convolve/crypto/detail/ed25519_core.hpp"
#include "convolve/crypto/detail/keccak_core.hpp"
#include "convolve/crypto/detail/pqc_ntt.hpp"
#include "convolve/crypto/detail/sha512_core.hpp"
#include "convolve/crypto/ed25519.hpp"
#include "convolve/crypto/hmac.hpp"
#include "convolve/crypto/keccak.hpp"
#include "convolve/crypto/sha512.hpp"

namespace convolve::analysis {

namespace {

thread_local TaintSink* g_sink = nullptr;

}  // namespace

const char* hazard_name(Hazard h) {
  switch (h) {
    case Hazard::kBranch:
      return "secret-dependent branch";
    case Hazard::kTableIndex:
      return "secret-dependent table index";
    case Hazard::kVariableShift:
      return "secret-dependent shift amount";
    case Hazard::kDivision:
      return "division on secret operand";
  }
  return "unknown hazard";
}

TaintSink* TaintSink::current() { return g_sink; }

void TaintSink::record(Hazard h) {
  std::string path;
  for (const char* c : context_) {
    if (!path.empty()) path += '/';
    path += c;
  }
  ++counts_[{h, std::move(path)}];
  ++total_;
}

void TaintSink::push_context(const char* label) { context_.push_back(label); }

void TaintSink::pop_context() {
  if (!context_.empty()) context_.pop_back();
}

std::vector<TaintFinding> TaintSink::findings() const {
  std::vector<TaintFinding> out;
  out.reserve(counts_.size());
  for (const auto& [key, count] : counts_) {
    out.push_back(TaintFinding{key.first, key.second, count});
  }
  return out;
}

ScopedTaintSink::ScopedTaintSink() : prev_(g_sink) { g_sink = &sink_; }

ScopedTaintSink::~ScopedTaintSink() { g_sink = prev_; }

TaintScope::TaintScope(const char* label) {
  if (g_sink != nullptr) g_sink->push_context(label);
}

TaintScope::~TaintScope() {
  if (g_sink != nullptr) g_sink->pop_context();
}

namespace detail {

void report_hazard(Hazard h) {
  if (g_sink != nullptr) g_sink->record(h);
}

}  // namespace detail

namespace {

namespace cd = convolve::crypto::detail;

using T8 = Tainted<std::uint8_t>;
using T32 = Tainted<std::uint32_t>;
using T64 = Tainted<std::uint64_t>;

LintResult finish(const char* suite, const TaintSink& sink, bool matches) {
  LintResult r;
  r.suite = suite;
  r.findings = sink.findings();
  r.hazard_count = sink.total();
  r.output_matches = matches;
  return r;
}

/// Deterministic test-pattern byte (public; keeps lints self-contained).
std::uint8_t pattern(std::size_t i, std::uint8_t salt) {
  return static_cast<std::uint8_t>(0x61u + 0x45u * i + salt);
}

}  // namespace

LintResult lint_aes256() {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 16> pt{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = pattern(i, 0x11);
  for (std::size_t i = 0; i < pt.size(); ++i) pt[i] = pattern(i, 0x7f);

  // Production reference.
  const crypto::Aes aes(crypto::Aes::KeySize::k256, key);
  std::array<std::uint8_t, 16> want_ct{};
  aes.encrypt_block(pt.data(), want_ct.data());

  ScopedTaintSink guard;
  TaintScope scope("aes256");

  std::array<T8, 32> tkey;
  for (std::size_t i = 0; i < key.size(); ++i) tkey[i] = T8::secret(key[i]);
  std::array<T8, 15 * 16> round_keys;
  {
    TaintScope s("key-expand");
    cd::aes_key_expand(tkey.data(), std::size_t{8}, aes.rounds(),
                       round_keys.data());
  }

  std::array<T8, 16> tpt;
  for (std::size_t i = 0; i < pt.size(); ++i) tpt[i] = T8(pt[i]);
  std::array<T8, 16> tct;
  {
    TaintScope s("encrypt");
    cd::aes_encrypt_block(round_keys.data(), aes.rounds(), tpt.data(),
                          tct.data());
  }
  std::array<T8, 16> tback;
  {
    TaintScope s("decrypt");
    cd::aes_decrypt_block(round_keys.data(), aes.rounds(),
                          crypto::aes_inv_sbox_table(), tct.data(),
                          tback.data());
  }

  bool matches = true;
  for (std::size_t i = 0; i < 16; ++i) {
    matches = matches && tct[i].value() == want_ct[i] && tct[i].tainted();
    matches = matches && tback[i].value() == pt[i];
  }
  return finish("aes256", guard.sink(), matches);
}

LintResult lint_aes256_ctr() {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  std::vector<std::uint8_t> data(100);  // a full pass plus a partial one
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = pattern(i, 0x6b);
  for (std::size_t i = 0; i < nonce.size(); ++i) nonce[i] = pattern(i, 0x19);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = pattern(i, 0xc1);
  // The 32-bit counter wraps inside the first four-block pass.
  const std::uint32_t counter = 0xfffffffeu;

  const Bytes want = crypto::aes256_ctr(key, nonce, counter, data);

  ScopedTaintSink guard;
  TaintScope scope("aes256-ctr");

  constexpr int kRounds = 14;
  std::array<T8, 32> tkey;
  for (std::size_t i = 0; i < key.size(); ++i) tkey[i] = T8::secret(key[i]);
  std::array<T8, 16 * (kRounds + 1)> round_keys;
  std::array<T64, 8 * (kRounds + 1)> rk_planes;
  {
    TaintScope s("key-slice");
    cd::aes_key_expand(tkey.data(), std::size_t{8}, kRounds,
                       round_keys.data());
    cd::aes_slice_round_keys(round_keys.data(), kRounds, rk_planes.data());
  }

  std::array<T8, 12> tnonce;
  for (std::size_t i = 0; i < nonce.size(); ++i) tnonce[i] = T8(nonce[i]);
  bool matches = true;
  {
    TaintScope s("keystream");
    std::uint32_t ctr = counter;
    for (std::size_t off = 0; off < data.size(); off += 64, ctr += 4) {
      std::array<T8, 64> keystream;
      cd::aes_ctr_keystream4(rk_planes.data(), kRounds, tnonce.data(), ctr,
                             keystream.data());
      for (std::size_t i = 0; i < 64 && off + i < data.size(); ++i) {
        const T8 out = T8(data[off + i]) ^ keystream[i];
        matches = matches && out.value() == want[off + i] && out.tainted();
      }
    }
  }
  return finish("aes256-ctr", guard.sink(), matches);
}

LintResult lint_chacha20() {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = pattern(i, 0x29);
  for (std::size_t i = 0; i < nonce.size(); ++i) nonce[i] = pattern(i, 0x3d);
  const std::uint32_t counter = 1;

  const auto want = crypto::chacha20_block(key, nonce, counter);

  ScopedTaintSink guard;
  TaintScope scope("chacha20");

  auto le32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  };

  T32 x[16];
  x[0] = T32(0x61707865u);
  x[1] = T32(0x3320646eu);
  x[2] = T32(0x79622d32u);
  x[3] = T32(0x6b206574u);
  for (int i = 0; i < 8; ++i) x[4 + i] = T32::secret(le32(key.data() + 4 * i));
  x[12] = T32(counter);
  for (int i = 0; i < 3; ++i) x[13 + i] = T32(le32(nonce.data() + 4 * i));

  {
    TaintScope s("core");
    cd::chacha20_core(x);
  }

  bool matches = true;
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t w = le32(want.data() + 4 * i);
    matches = matches && x[i].value() == w && x[i].tainted();
  }
  return finish("chacha20", guard.sink(), matches);
}

LintResult lint_keccak_f1600() {
  std::array<std::uint64_t, 25> state{};
  for (std::size_t i = 0; i < 25; ++i) {
    state[i] = 0x0123456789abcdefull * (i + 1) + 0xf00du * i;
  }
  auto want = state;
  crypto::keccak_f1600(want);

  ScopedTaintSink guard;
  TaintScope scope("keccak");

  T64 a[25];
  for (std::size_t i = 0; i < 25; ++i) a[i] = T64::secret(state[i]);
  {
    TaintScope s("permute");
    cd::keccak_permute(a);
  }

  bool matches = true;
  for (std::size_t i = 0; i < 25; ++i) {
    matches = matches && a[i].value() == want[i] && a[i].tainted();
  }
  return finish("keccak", guard.sink(), matches);
}

LintResult lint_hmac_sha512() {
  std::vector<std::uint8_t> key(40);
  std::vector<std::uint8_t> msg(113);  // spans a block boundary with padding
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = pattern(i, 0x55);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = pattern(i, 0xa3);

  const auto want = crypto::hmac_sha512(key, msg);

  ScopedTaintSink guard;
  TaintScope scope("hmac-sha512");

  std::vector<T8> tkey(key.size());
  for (std::size_t i = 0; i < key.size(); ++i) tkey[i] = T8::secret(key[i]);
  std::vector<T8> tmsg(msg.size());
  for (std::size_t i = 0; i < msg.size(); ++i) tmsg[i] = T8(msg[i]);

  std::array<T8, 64> mac;
  {
    TaintScope s("mac");
    cd::hmac_sha512_ct<T64>(tkey.data(), tkey.size(), tmsg.data(), tmsg.size(),
                            mac.data());
  }

  bool matches = want.size() == 64;
  for (std::size_t i = 0; i < 64 && matches; ++i) {
    matches = mac[i].value() == want[i] && mac[i].tainted();
  }
  return finish("hmac", guard.sink(), matches);
}

namespace {

/// The negacyclic product a * b in Z_q[X]/(X^256 + 1), schoolbook, on
/// public values: the reference the NTT suites check their output against.
std::vector<std::int64_t> negacyclic_product(const std::vector<std::int64_t>& a,
                                             const std::vector<std::int64_t>& b,
                                             std::int64_t q) {
  const std::size_t n = a.size();
  std::vector<std::int64_t> r(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::int64_t p = a[i] * b[j] % q;
      if (i + j < n) {
        r[i + j] = (r[i + j] + p) % q;
      } else {
        r[i + j - n] = (r[i + j - n] - p + q) % q;
      }
    }
  }
  return r;
}

/// Drives a secret polynomial through the shipped Montgomery core with
/// tainted coefficients the way the scheme does -- forward transform
/// (frozen for Kyber, whose basemul needs 12-bit inputs), product with a
/// public canonical polynomial, reduction of the product for Kyber,
/// inverse, freeze -- and checks the result against the schoolbook
/// product. Leaves the tainted, canonical product in `product`.
template <class F>
bool drive_ntt(std::vector<Tainted<typename F::Coeff>>& product) {
  using C = typename F::Coeff;
  using TC = Tainted<C>;
  using TW = Tainted<typename F::Wide>;
  constexpr std::size_t n = 256;
  constexpr std::int64_t q = F::kQ;

  std::vector<std::int64_t> secret(n), pub(n);
  for (std::size_t i = 0; i < n; ++i) {
    secret[i] = static_cast<std::int64_t>(i * 31 + 7) % q;
    pub[i] = static_cast<std::int64_t>(i * 1103 + 2549) % q;
  }
  const std::vector<std::int64_t> want = negacyclic_product(secret, pub, q);

  std::vector<TC> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = TC::secret(static_cast<C>(secret[i]));
    b[i] = TC(static_cast<C>(pub[i]));
  }
  auto freeze_all = [](std::vector<TC>& v) {
    for (auto& c : v) c = cd::freeze<F, TC, TW>(TW(c));
  };
  {
    TaintScope s("forward");
    cd::ntt_forward<F, TC, TW>(a.data());
    cd::ntt_forward<F, TC, TW>(b.data());
    freeze_all(b);
    if constexpr (F::kMinLen == 2) freeze_all(a);
  }
  product.assign(n, TC());
  {
    TaintScope s("multiply");
    cd::ntt_multiply<F, TC, TW>(product.data(), a.data(), b.data());
    if constexpr (F::kMinLen == 2) {
      for (auto& c : product) c = cd::reduce<F, TC, TW>(TW(c));
    }
  }
  {
    TaintScope s("inverse");
    cd::ntt_inverse<F, TC, TW>(product.data());
    freeze_all(product);
  }
  bool matches = true;
  for (std::size_t i = 0; i < n; ++i) {
    matches = matches && product[i].value() == want[i] && product[i].tainted();
  }
  return matches;
}

}  // namespace

LintResult lint_kyber_ntt() {
  ScopedTaintSink guard;
  TaintScope scope("kyber-ntt");
  std::vector<Tainted<std::int16_t>> product;
  const bool matches = drive_ntt<cd::KyberField>(product);
  return finish("kyber-ntt", guard.sink(), matches);
}

LintResult lint_dilithium_ntt() {
  using TC = Tainted<std::int32_t>;
  using TW = Tainted<std::int64_t>;
  ScopedTaintSink guard;
  TaintScope scope("dilithium-ntt");
  std::vector<TC> product;
  bool matches = drive_ntt<cd::DilithiumField>(product);

  // Rounding on the secret product, as keygen (power2round) and signing
  // (decompose, make_hint) run it, checked against the plain instantiation.
  TaintScope s("rounding");
  for (std::size_t i = 0; i < product.size(); ++i) {
    const std::int32_t v = product[i].value();
    const std::int32_t z = static_cast<std::int32_t>(i % 157) - 78;  // public
    TC hi, lo, r1, r0;
    std::int32_t want_hi, want_lo, want_r1, want_r0;
    cd::power2round(product[i], hi, lo);
    cd::power2round(v, want_hi, want_lo);
    cd::decompose(product[i], r1, r0);
    cd::decompose(v, want_r1, want_r0);
    const TC hint = cd::make_hint<TC, TW>(TC(z), product[i]);
    const TC used = cd::use_hint(hint, product[i]);
    const std::int32_t want_hint =
        cd::make_hint<std::int32_t, std::int64_t>(z, v);
    matches = matches && hi.value() == want_hi && lo.value() == want_lo &&
              r1.value() == want_r1 && r0.value() == want_r0 &&
              hint.value() == want_hint &&
              used.value() == cd::use_hint(want_hint, v) && r0.tainted();
  }
  return finish("dilithium-ntt", guard.sink(), matches);
}

LintResult lint_ed25519_sign() {
  namespace ed = cd::ed25519;
  using T128 = Tainted<unsigned __int128>;
  std::array<std::uint8_t, 32> seed{};
  std::vector<std::uint8_t> msg(71);
  for (std::size_t i = 0; i < seed.size(); ++i) seed[i] = pattern(i, 0x2f);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = pattern(i, 0x91);

  const auto kp = crypto::ed25519_keypair(seed);
  const auto want = crypto::ed25519_sign(kp, msg);

  ScopedTaintSink guard;
  TaintScope scope("ed25519-sign");

  std::array<T8, 32> tseed;
  for (std::size_t i = 0; i < seed.size(); ++i) tseed[i] = T8::secret(seed[i]);
  std::array<T8, 64> h;
  {
    TaintScope s("expand-seed");
    cd::sha512_hash_ct<T64>(tseed.data(), tseed.size(), h.data());
  }
  const std::array<T64, 4> a = ed::clamp(ed::load_words<T64, 4>(h.data()));
  std::array<T64, 4> pk;
  {
    TaintScope s("public-key");
    pk = ed::encode<T64, T128>(
        ed::scalarmult_base<T64, T128>(a, ed::base_table()));
  }

  // r = SHA-512(prefix || M) mod l, R = r * B.
  std::vector<T8> nonce_input(32 + msg.size());
  for (std::size_t i = 0; i < 32; ++i) nonce_input[i] = h[32 + i];
  for (std::size_t i = 0; i < msg.size(); ++i) nonce_input[32 + i] = T8(msg[i]);
  std::array<T8, 64> nonce_hash;
  std::array<T64, 4> r, commit;
  {
    TaintScope s("nonce");
    cd::sha512_hash_ct<T64>(nonce_input.data(), nonce_input.size(),
                            nonce_hash.data());
    r = ed::sc_reduce<T64, T128>(ed::load_words<T64, 8>(nonce_hash.data()));
  }
  {
    TaintScope s("commit");
    commit = ed::encode<T64, T128>(
        ed::scalarmult_base<T64, T128>(r, ed::base_table()));
  }

  // R and A are published; k = SHA-512(R || A || M) mod l is public.
  std::array<std::uint8_t, 64> k_input{};
  for (std::size_t i = 0; i < 4; ++i) {
    store_le64(k_input.data() + 8 * i, commit[i].value());
    store_le64(k_input.data() + 32 + 8 * i, pk[i].value());
  }
  crypto::Sha512 hk;
  hk.update(k_input);
  hk.update(msg);
  const auto k_hash = hk.digest();
  std::array<T64, 8> k_wide;
  for (std::size_t i = 0; i < 8; ++i) {
    k_wide[i] = T64(load_le64(k_hash.data() + 8 * i));
  }
  std::array<T64, 4> s_out;
  {
    TaintScope s("response");
    s_out = ed::sc_muladd<T64, T128>(ed::sc_reduce<T64, T128>(k_wide), a, r);
  }

  bool matches = true;
  for (std::size_t i = 0; i < 4; ++i) {
    matches = matches &&
              pk[i].value() == load_le64(kp.public_key.data() + 8 * i) &&
              commit[i].value() == load_le64(want.data() + 8 * i) &&
              s_out[i].value() == load_le64(want.data() + 32 + 8 * i) &&
              commit[i].tainted() && s_out[i].tainted();
  }
  return finish("ed25519-sign", guard.sink(), matches);
}

std::vector<LintResult> lint_all() {
  return {lint_aes256(),       lint_aes256_ctr(),  lint_chacha20(),
          lint_keccak_f1600(), lint_hmac_sha512(), lint_kyber_ntt(),
          lint_dilithium_ntt(), lint_ed25519_sign()};
}

LintResult lint_planted_hazard() {
  ScopedTaintSink guard;
  TaintScope scope("planted-hazard");
  const std::uint32_t v = 0x01234567u;
  const T32 s = T32::secret(v);
  T32 r = s % T32(3329u);                   // division on a secret
  if (r > T32(3329u / 2)) r = r - T32(3329u);  // branch on a secret
  const std::uint32_t rem = v % 3329u;
  const std::uint32_t want = rem > 3329u / 2 ? rem - 3329u : rem;
  return finish("planted-hazard", guard.sink(), r.value() == want);
}

}  // namespace convolve::analysis
