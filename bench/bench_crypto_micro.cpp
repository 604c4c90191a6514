// google-benchmark microbenchmarks of the cryptographic substrate.
//
// These are the primitives the TEE's boot, attestation and sealing paths
// spend their time in; the relative costs (ML-DSA sign >> Ed25519 sign >>
// AES block) are what motivates the paper's hardware acceleration of
// Keccak/AES and its bootrom/stack findings.
#include <benchmark/benchmark.h>

#include <array>
#include <memory>

#include "convolve/crypto/aead.hpp"
#include "convolve/crypto/aes.hpp"
#include "convolve/crypto/chacha20.hpp"
#include "convolve/crypto/detail/pqc_ntt.hpp"
#include "convolve/crypto/dilithium.hpp"
#include "convolve/crypto/ed25519.hpp"
#include "convolve/crypto/keccak.hpp"
#include "convolve/crypto/kyber.hpp"
#include "convolve/crypto/sha512.hpp"

namespace {

using namespace convolve;
using namespace convolve::crypto;

void BM_Sha3_256_1KiB(benchmark::State& state) {
  const Bytes data(1024, 0x5a);
  for (auto _ : state) benchmark::DoNotOptimize(sha3_256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha3_256_1KiB);

// The enclave-measurement hash: create_enclave runs SHA3-512 over the
// 256 KiB image.
void BM_Sha3_512_256KiB(benchmark::State& state) {
  const Bytes data(256 * 1024, 0x5a);
  for (auto _ : state) benchmark::DoNotOptimize(sha3_512(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256 * 1024);
}
BENCHMARK(BM_Sha3_512_256KiB);

void BM_Sha512_1KiB(benchmark::State& state) {
  const Bytes data(1024, 0x5a);
  for (auto _ : state) benchmark::DoNotOptimize(sha512(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha512_1KiB);

void BM_Aes256_Block(benchmark::State& state) {
  const Aes aes(Aes::KeySize::k256, Bytes(32, 1));
  std::uint8_t block[16] = {};
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_Aes256_Block);

// The sealed body: seal and unseal run AES-256-CTR over 4 KiB.
void BM_Aes256Ctr_4KiB(benchmark::State& state) {
  const Bytes key(32, 1), nonce(12, 2), data(4096, 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes256_ctr(key, nonce, 0, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Aes256Ctr_4KiB);

void BM_ChaCha20_1KiB(benchmark::State& state) {
  const Bytes key(32, 2), nonce(12, 3), data(1024, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chacha20_xor(key, nonce, 0, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_ChaCha20_1KiB);

void BM_Ed25519_Sign(benchmark::State& state) {
  const auto kp = ed25519_keypair(Bytes(32, 4));
  const Bytes msg(64, 7);
  for (auto _ : state) benchmark::DoNotOptimize(ed25519_sign(kp, msg));
}
BENCHMARK(BM_Ed25519_Sign);

void BM_Ed25519_Verify(benchmark::State& state) {
  const auto kp = ed25519_keypair(Bytes(32, 4));
  const Bytes msg(64, 7);
  const auto sig = ed25519_sign(kp, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ed25519_verify({kp.public_key.data(), 32}, msg, {sig.data(), 64}));
  }
}
BENCHMARK(BM_Ed25519_Verify);

void BM_MlDsa44_Sign(benchmark::State& state) {
  const auto kp = dilithium::keygen(Bytes(32, 5));
  const Bytes msg(64, 8);
  for (auto _ : state) benchmark::DoNotOptimize(dilithium::sign(kp.sk, msg));
}
BENCHMARK(BM_MlDsa44_Sign);

// What attest runs: the SM expands its key once at install.
void BM_MlDsa44_SignExpanded(benchmark::State& state) {
  const auto kp = dilithium::keygen(Bytes(32, 5));
  const auto key = std::make_unique<dilithium::SigningKey>(
      dilithium::expand_signing_key(kp.sk));
  const Bytes msg(64, 8);
  for (auto _ : state) benchmark::DoNotOptimize(dilithium::sign(*key, msg));
}
BENCHMARK(BM_MlDsa44_SignExpanded);

void BM_MlDsa44_Verify(benchmark::State& state) {
  const auto kp = dilithium::keygen(Bytes(32, 5));
  const Bytes msg(64, 8);
  const Bytes sig = dilithium::sign(kp.sk, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dilithium::verify(kp.pk, msg, sig));
  }
}
BENCHMARK(BM_MlDsa44_Verify);

// Forward plus inverse transform through the shared Montgomery core, the
// kernel ML-DSA signing spends most of its time in. The forward output is
// frozen first, as the inverse expects coefficients below q.
template <class F>
void ntt_pair(benchmark::State& state) {
  std::array<typename F::Coeff, 256> f{};
  for (int i = 0; i < 256; ++i) {
    f[static_cast<std::size_t>(i)] =
        static_cast<typename F::Coeff>((i * 31 + 7) % F::kQ);
  }
  for (auto _ : state) {
    detail::ntt_forward<F>(f.data());
    for (auto& c : f) c = detail::freeze<F>(c);
    detail::ntt_inverse<F>(f.data());
    benchmark::DoNotOptimize(f.data());
  }
}
BENCHMARK(ntt_pair<detail::DilithiumField>)->Name("BM_MlDsa44_NttPair");
BENCHMARK(ntt_pair<detail::KyberField>)->Name("BM_MlKem512_NttPair");

void BM_MlKem512_EncapsDecaps(benchmark::State& state) {
  const auto kp = kyber::keygen(Bytes(64, 6));
  for (auto _ : state) {
    const auto enc = kyber::encaps(kp.ek, Bytes(32, 9));
    benchmark::DoNotOptimize(kyber::decaps(kp.dk, enc.ciphertext));
  }
}
BENCHMARK(BM_MlKem512_EncapsDecaps);

void BM_Seal_4KiB(benchmark::State& state) {
  const Bytes key(32, 10), nonce(12, 11), data(4096, 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead_seal(key, nonce, data, {}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Seal_4KiB);

}  // namespace
