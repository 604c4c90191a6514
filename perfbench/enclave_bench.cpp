// Enclave-service benchmark: closed-loop workloads over EnclaveService.
//
//   enclave_bench --workload run_small|run_compute|crypto_mix --seed N
//                 --seconds S --trace 0|1
//
// Setting: the edge deployment of CONVOLVE -- many small tenants sharing one
// secure processor. One process serves a frozen PQ-enabled world (hybrid
// Ed25519 + ML-DSA boot, SM stack 128 KiB per the paper's Table III, one
// 256 KB enclave image) through EnclaveService. Four tenants share the TDM
// wheel round-robin; the pool runs at kThreads threads, the calling thread
// included. The loop is closed: submit a batch of requests, drain()
// it, check the responses, repeat.
//
// --trace 0 times from outside only and prints the end-to-end metrics.
// --trace 1 prints the per-layer metrics: it serves the workload once more
// with every submit() and drain() timed, then re-serves a prefix at one
// thread and replays each of its batches call by call right after it,
// through the public API of each layer (compsoc, service, tee, rv32,
// crypto, pool), checking every replayed result against the service's own
// response.
//
// Every percentile is nearest-rank over raw samples, printed with its sample
// count. Each run checks every response: kRun results against a host-side
// reference, attestation reports with verify_report and the enclave
// measurement pinned, seal blobs by unsealing them, unseal results against
// the sealed plaintext, and a prefix of the responses for bit-identity with
// a one-thread run of the same seed. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "convolve/common/parallel.hpp"
#include "convolve/common/rng.hpp"
#include "convolve/common/telemetry.hpp"
#include "convolve/crypto/aead.hpp"
#include "convolve/crypto/aes.hpp"
#include "convolve/crypto/dilithium.hpp"
#include "convolve/crypto/ed25519.hpp"
#include "convolve/crypto/hmac.hpp"
#include "convolve/crypto/keccak.hpp"
#include "convolve/tee/service/enclave_service.hpp"

#if !CONVOLVE_TELEMETRY_ENABLED
#error "enclave_bench reads the rv32 and pool telemetry counters"
#endif

namespace {

using namespace convolve;
using namespace convolve::tee;
using namespace convolve::tee::service;
namespace rv = rv32asm;

constexpr int kThreads = 4;
constexpr int kTenants = 4;
// Requests per closed-loop batch: four per pool thread, which keeps the
// threads balanced under crypto_mix's mixed op costs; a 20 s run still
// collects over a thousand batch latencies on every workload for the p99.
constexpr std::size_t kBatch = 16;
constexpr std::uint64_t kMachineBytes = 4 << 20;
constexpr std::uint64_t kImageBytes = 256 * 1024;
constexpr std::size_t kSmStackBytes = 128 * 1024;
// The untraced run's timed loop is cut into kWindows windows, with
// kSetupsPerWindow extra set-ups sampled after each.
constexpr int kWindows = 20;
constexpr int kSetupsPerWindow = 2;
constexpr std::size_t kSealedBlobs = 8;
constexpr std::size_t kSealBytes = 4096;
constexpr std::size_t kAttestDataBytes = 64;
// Batches whose four-thread responses are kept for the one-thread check.
constexpr std::size_t kKeptBatches = 64;
// Traced run: at most this many batches in the timed closed loop, and this
// many requests per op kind the workload lacks, served so that every layer
// metric has samples on every workload.
constexpr std::size_t kTraceBatches = 512;
constexpr std::size_t kTopUpPerKind = 16;
// The replayed layer medians of a kRun request must sum to the service's own
// one-thread latency median within this share.
constexpr double kLayerSumTolerance = 0.25;

// run_small: the 11-instruction byte-sum guest. Input and result sit in the
// code page, so staging and the result store both invalidate its decode.
constexpr std::uint32_t kSumInput = 0x600;
constexpr std::uint32_t kSumResult = 0x700;
constexpr std::uint32_t kSumInputLen = 256;
// run_compute: an add-rotate-xor loop of ~1M steps whose input and result
// live in the page after the code, so a request decodes exactly once.
constexpr std::uint32_t kArxInput = 0x1000;
constexpr std::uint32_t kArxResult = 0x1010;
constexpr std::uint32_t kArxWords = 4;
constexpr std::uint32_t kArxRounds = 83000;

// Salts separating the seed's streams: request fields, batch op-kind order,
// seal fixtures. The service's own input stream is rooted at the seed.
constexpr std::uint64_t kRequestSalt = 0x7265717565737473ull;
constexpr std::uint64_t kKindSalt = 0x6b696e646f726472ull;
constexpr std::uint64_t kFixtureSalt = 0x6669787475726573ull;

enum class Workload { kRunSmall, kRunCompute, kCryptoMix };

constexpr std::array<RequestKind, 4> kAllKinds = {
    RequestKind::kRun, RequestKind::kAttest, RequestKind::kSeal,
    RequestKind::kUnseal};

const char* kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kRun: return "run";
    case RequestKind::kAttest: return "attest";
    case RequestKind::kSeal: return "seal";
    case RequestKind::kUnseal: return "unseal";
  }
  return "?";
}

std::size_t kind_index(RequestKind kind) {
  return static_cast<std::size_t>(kind);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Nearest-rank percentile of raw samples: the smallest sample with at least
// pct% of all samples at or below it. NaN when there are no samples.
double percentile(std::vector<std::uint64_t> v, double pct) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return static_cast<double>(v[index]);
}

double mean(const std::vector<std::uint64_t>& v) {
  if (v.empty()) return std::nan("");
  double sum = 0;
  for (const std::uint64_t x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

double ratio(double num, double den) {
  return den > 0 ? num / den : std::nan("");
}

// --- Guest programs and their host-side references ------------------------

Bytes pad_image(Bytes code) {
  code.resize(kImageBytes, 0x00);
  return code;
}

Bytes byte_sum_program() {
  return pad_image(rv::assemble({
      rv::auipc(6, 0),
      rv::addi(5, 0, 0),
      rv::addi(7, 0, 0),
      rv::addi(8, 0, kSumInputLen),
      // loop:
      rv::add(9, 6, 7),
      rv::lbu(10, 9, kSumInput),
      rv::add(5, 5, 10),
      rv::addi(7, 7, 1),
      rv::bne(7, 8, -16),
      rv::sw(5, 6, kSumResult),
      rv::ecall(),
  }));
}

// Half a ChaCha quarter-round per iteration over words a,b,c,d (x5..x8):
// a += b; d ^= a; d <<<= 16; c += d; b ^= c; b <<<= 12.
Bytes arx_program() {
  static_assert(kArxRounds == 20 * 4096 + 1080, "lui/addi split below");
  return pad_image(rv::assemble({
      rv::auipc(12, kArxInput >> 12),  // x12 = data page
      rv::lw(5, 12, 0),
      rv::lw(6, 12, 4),
      rv::lw(7, 12, 8),
      rv::lw(8, 12, 12),
      rv::lui(9, 20),
      rv::addi(9, 9, 1080),
      // loop:
      rv::add(5, 5, 6),
      rv::xor_(8, 8, 5),
      rv::slli(10, 8, 16),
      rv::srli(11, 8, 16),
      rv::or_(8, 10, 11),
      rv::add(7, 7, 8),
      rv::xor_(6, 6, 7),
      rv::slli(10, 6, 12),
      rv::srli(11, 6, 20),
      rv::or_(6, 10, 11),
      rv::addi(9, 9, -1),
      rv::bne(9, 0, -44),
      rv::sw(5, 12, kArxResult - kArxInput),
      rv::sw(6, 12, kArxResult - kArxInput + 4),
      rv::sw(7, 12, kArxResult - kArxInput + 8),
      rv::sw(8, 12, kArxResult - kArxInput + 12),
      rv::ecall(),
  }));
}

Bytes byte_sum_reference(ByteView input) {
  std::uint32_t sum = 0;
  for (const std::uint8_t b : input) sum += b;
  Bytes out(4);
  store_le32(out.data(), sum);
  return out;
}

Bytes arx_reference(ByteView input) {
  std::uint32_t a = load_le32(input.data());
  std::uint32_t b = load_le32(input.data() + 4);
  std::uint32_t c = load_le32(input.data() + 8);
  std::uint32_t d = load_le32(input.data() + 12);
  for (std::uint32_t i = 0; i < kArxRounds; ++i) {
    a += b;
    d = rotl32(d ^ a, 16);
    c += d;
    b = rotl32(b ^ c, 12);
  }
  Bytes out(4 * kArxWords);
  store_le32(out.data(), a);
  store_le32(out.data() + 4, b);
  store_le32(out.data() + 8, c);
  store_le32(out.data() + 12, d);
  return out;
}

// --- World set-up -----------------------------------------------------------

struct World {
  MachineSnapshot snapshot;
  int enclave = 0;
  Bytes measurement;          // enclave measurement, computed host-side
  VerifierTrustAnchor anchor;
  BootRecord boot;            // SM keys the crypto replay signs with
  std::vector<Bytes> sealed;  // blobs sealed at set-up, for kUnseal
  std::vector<Bytes> plain;   // their plaintexts
};

// Boot, SM install, create_enclave, seal fixtures, freeze: the set-up cost
// that setup_s reports.
World build_world(const Bytes& image, const Bytes& measurement,
                  std::uint64_t seed) {
  Machine machine(kMachineBytes);
  const Bootrom rom(BootromConfig{true},
                    DeviceKeys::from_entropy(Bytes(32, 0xB3)));
  const BootRecord boot = rom.boot(Bytes(4096, 0x5C));
  SmConfig config;
  config.stack_bytes = kSmStackBytes;
  SecurityMonitor sm(machine, boot, config);
  const int enclave = sm.create_enclave(image, kImageBytes);
  std::vector<Bytes> sealed, plain;
  const Xoshiro256 fixtures(seed ^ kFixtureSalt);
  for (std::size_t k = 0; k < kSealedBlobs; ++k) {
    Bytes pt(kSealBytes);
    fixtures.split(k).fill_bytes(pt);
    sealed.push_back(sm.seal(enclave, pt));
    plain.push_back(std::move(pt));
  }
  return World{MachineSnapshot::freeze(machine, sm), enclave, measurement,
               sm.trust_anchor(), boot, std::move(sealed), std::move(plain)};
}

// --- Requests ---------------------------------------------------------------

struct Job {
  Request request;
  std::uint64_t seq = 0;
  std::size_t blob = 0;  // kUnseal: index into World::sealed
};

class RequestStream {
 public:
  RequestStream(Workload workload, std::uint64_t seed, const World& world)
      : workload_(workload),
        world_(world),
        fields_(seed ^ kRequestSalt),
        kinds_(seed ^ kKindSalt) {}

  // crypto_mix: every batch holds each op kind equally often, in a seeded
  // order; the other workloads are kRun only.
  Job make(std::uint64_t seq) const {
    if (workload_ != Workload::kCryptoMix) {
      return make_kind(seq, RequestKind::kRun);
    }
    static_assert(kBatch % kAllKinds.size() == 0);
    std::array<std::size_t, kBatch> order{};
    for (std::size_t i = 0; i < kBatch; ++i) order[i] = i;
    Xoshiro256 rng = kinds_.split(seq / kBatch);
    for (std::size_t i = kBatch - 1; i > 0; --i) {
      std::swap(order[i], order[rng.uniform(i + 1)]);
    }
    return make_kind(seq, kAllKinds[order[seq % kBatch] % kAllKinds.size()]);
  }

  Job make_kind(std::uint64_t seq, RequestKind kind) const {
    Xoshiro256 rng = fields_.split(seq);
    Job job;
    job.seq = seq;
    Request& r = job.request;
    r.kind = kind;
    r.enclave = world_.enclave;
    r.tenant = static_cast<int>(rng.uniform(kTenants));
    switch (kind) {
      case RequestKind::kRun:
        if (workload_ == Workload::kRunCompute) {
          r.max_steps = 2'000'000;
          r.input_offset = kArxInput;
          r.input_len = 4 * kArxWords;
          r.result_offset = kArxResult;
          r.result_len = 4 * kArxWords;
        } else {
          r.max_steps = 100'000;
          r.input_offset = kSumInput;
          r.input_len = kSumInputLen;
          r.result_offset = kSumResult;
          r.result_len = 4;
        }
        break;
      case RequestKind::kAttest:
        r.payload.resize(kAttestDataBytes);
        rng.fill_bytes(r.payload);
        break;
      case RequestKind::kSeal:
        r.payload.resize(kSealBytes);
        rng.fill_bytes(r.payload);
        break;
      case RequestKind::kUnseal:
        job.blob = static_cast<std::size_t>(rng.uniform(kSealedBlobs));
        r.payload = world_.sealed[job.blob];
        break;
    }
    return job;
  }

  std::vector<Job> batch(std::uint64_t first_seq) const {
    std::vector<Job> jobs;
    jobs.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) jobs.push_back(make(first_seq + i));
    return jobs;
  }

 private:
  Workload workload_;
  const World& world_;
  Xoshiro256 fields_;
  Xoshiro256 kinds_;
};

ServiceConfig service_config(std::uint64_t seed) {
  ServiceConfig config;
  config.seed = seed;
  config.tenant_slots.assign(kTenants, {});
  for (int s = 0; s < config.tdm_period; ++s) {
    config.tenant_slots[static_cast<std::size_t>(s % kTenants)].push_back(s);
  }
  return config;
}

// --- Output checks ----------------------------------------------------------

class Checker {
 public:
  Checker(Workload workload, std::uint64_t seed, const World& world)
      : workload_(workload), world_(world), inputs_(seed) {}

  // The bytes the service stages for kRun request `seq`: its split(seq).
  Bytes run_input(const Request& r, std::uint64_t seq) const {
    Bytes input(r.input_len);
    inputs_.split(seq).fill_bytes(input);
    return input;
  }

  bool ok(const Job& job, const Response& r) const {
    const Request& req = job.request;
    if (r.status != Status::kOk || r.seq != job.seq) return false;
    switch (req.kind) {
      case RequestKind::kRun: {
        const Bytes input = run_input(req, job.seq);
        return r.data == (workload_ == Workload::kRunCompute
                              ? arx_reference(input)
                              : byte_sum_reference(input));
      }
      case RequestKind::kAttest:
        return r.report && r.report->enclave_data == req.payload &&
               verify_report(*r.report, world_.anchor,
                             &world_.boot.sm_measurement,
                             &world_.measurement);
      case RequestKind::kSeal: {
        const EnclaveWorld fork = world_.snapshot.fork(0);
        const auto opened = fork.sm->unseal(req.enclave, r.data);
        return opened && *opened == req.payload;
      }
      case RequestKind::kUnseal:
        return r.data == world_.plain[job.blob];
    }
    return false;
  }

  // Checks a batch across the pool; returns the per-request verdicts.
  std::vector<char> ok_all(const std::vector<Job>& jobs,
                           const std::vector<Response>& responses) const {
    std::vector<char> good(jobs.size(), 0);
    if (responses.size() != jobs.size()) return good;
    par::parallel_for(jobs.size(), [&](std::uint64_t i) {
      good[i] = ok(jobs[i], responses[i]) ? 1 : 0;
    });
    return good;
  }

 private:
  Workload workload_;
  const World& world_;
  Xoshiro256 inputs_;
};

bool same_trap(const std::optional<Trap>& a, const std::optional<Trap>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->cause == b->cause && a->pc == b->pc && a->tval == b->tval);
}

// Bit-identity of everything a response carries except its wall-clock times.
bool same_payload(const Response& a, const Response& b) {
  if (a.status != b.status || a.seq != b.seq || a.steps != b.steps ||
      a.wait_slots != b.wait_slots || a.data != b.data ||
      !same_trap(a.trap, b.trap) || a.report.has_value() != b.report.has_value()) {
    return false;
  }
  return !a.report || a.report->serialize() == b.report->serialize();
}

// --- Serving ----------------------------------------------------------------

struct Served {
  std::vector<Response> responses;
  std::uint64_t wall_ns = 0;   // first submit() .. drain() return
  std::uint64_t drain_ns = 0;  // the drain() call alone
};

Served serve(EnclaveService& service, const std::vector<Job>& jobs,
             std::vector<std::uint64_t>* submit_ns = nullptr) {
  Served out;
  const std::uint64_t t0 = now_ns();
  for (const Job& job : jobs) {
    if (submit_ns) {
      const std::uint64_t s = now_ns();
      service.submit(job.request);
      submit_ns->push_back(now_ns() - s);
    } else {
      service.submit(job.request);
    }
  }
  const std::uint64_t t1 = now_ns();
  out.responses = service.drain();
  const std::uint64_t t2 = now_ns();
  out.wall_ns = t2 - t0;
  out.drain_ns = t2 - t1;
  return out;
}

// Untimed warm-up on a throwaway service, so the timed loop starts with the
// allocator past its first frees of the per-request decode cache and fork
// backing store (glibc raises its mmap threshold on those frees).
void warm_up(const World& world, const ServiceConfig& config,
             const RequestStream& stream, double seconds) {
  EnclaveService service(world.snapshot, config);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t seq = 0;
  do {
    serve(service, stream.batch(seq));
    seq += kBatch;
  } while (now_ns() < deadline);
}

// Serves `batches` in order on a fresh one-thread service, stopping after
// `budget_s` seconds (at least one batch).
std::vector<Served> serve_one_thread(const World& world,
                                     const ServiceConfig& config,
                                     const std::vector<std::vector<Job>>& batches,
                                     double budget_s) {
  const par::ScopedThreadCount one(1);
  EnclaveService service(world.snapshot, config);
  std::vector<Served> out;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  for (const auto& jobs : batches) {
    out.push_back(serve(service, jobs));
    if (now_ns() >= deadline) break;
  }
  return out;
}

std::size_t count_mismatches(const std::vector<Served>& one_thread,
                             const std::vector<std::vector<Response>>& expect,
                             std::size_t& compared) {
  std::size_t mismatches = 0;
  compared = 0;
  for (std::size_t b = 0; b < one_thread.size(); ++b) {
    const auto& got = one_thread[b].responses;
    if (got.size() != expect[b].size()) {
      mismatches += expect[b].size();
      compared += expect[b].size();
      continue;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      ++compared;
      if (!same_payload(got[i], expect[b][i])) ++mismatches;
    }
  }
  return mismatches;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Call-by-call replay (traced run) ---------------------------------------

struct LayerSamples {
  // kRun layers, one sample per replayed request.
  std::vector<std::uint64_t> fork, stage, sm_switch, setup_decode, cont, load,
      teardown;
  // Replayed request total: every timed layer of the request.
  std::vector<std::uint64_t> total;
  std::vector<std::uint64_t> attest, seal, unseal;
  std::vector<std::uint64_t> ed25519, mldsa, hkdf, aes, hmac;
  std::uint64_t cow_pages = 0;
  std::uint64_t continue_steps = 0;
  std::uint64_t continue_ns = 0;
};

class Replayer {
 public:
  Replayer(const World& world, const Checker& checker)
      : world_(world), checker_(checker) {}

  // Re-executes one request through each layer's public API, timing every
  // call. True when every result is bit-identical to the service's response.
  bool replay(const Job& job, const Response& expect, LayerSamples& s) const {
    const Request& req = job.request;
    const auto fork_id = static_cast<std::uint32_t>(job.seq + 1);
    RequestContext ctx;
    ctx.seq = job.seq;
    ctx.fork_id = fork_id;
    ctx.tenant = static_cast<std::uint8_t>(req.tenant);
    ctx.enclave = static_cast<std::uint8_t>(req.enclave);

    std::uint64_t t = now_ns();
    EnclaveWorld w = world_.snapshot.fork(fork_id, ctx);
    const std::uint64_t fork_ns = now_ns() - t;
    std::uint64_t layers_ns = 0;
    bool match = expect.status == Status::kOk;
    switch (req.kind) {
      case RequestKind::kRun:
        match = replay_run(job, expect, w, s, layers_ns) && match;
        break;
      case RequestKind::kAttest: {
        t = now_ns();
        const AttestationReport report = w.sm->attest(req.enclave, req.payload);
        layers_ns = now_ns() - t;
        s.attest.push_back(layers_ns);
        match = match && expect.report &&
                report.serialize() == expect.report->serialize() &&
                replay_signatures(req.payload, report, s);
        break;
      }
      case RequestKind::kSeal: {
        t = now_ns();
        const Bytes blob = w.sm->seal(req.enclave, req.payload);
        layers_ns = now_ns() - t;
        s.seal.push_back(layers_ns);
        match = match && blob == expect.data &&
                replay_aead(blob, req.payload, s);
        break;
      }
      case RequestKind::kUnseal: {
        t = now_ns();
        const auto plain = w.sm->unseal(req.enclave, req.payload);
        layers_ns = now_ns() - t;
        s.unseal.push_back(layers_ns);
        match = match && plain && *plain == expect.data &&
                replay_aead(req.payload, *plain, s);
        break;
      }
    }
    s.cow_pages += w.machine->cow_pages_materialized();
    t = now_ns();
    w.sm.reset();
    w.machine.reset();
    const std::uint64_t teardown_ns = now_ns() - t;
    if (req.kind == RequestKind::kRun) {
      s.fork.push_back(fork_ns);
      s.teardown.back() += teardown_ns;
    }
    s.total.push_back(fork_ns + layers_ns + teardown_ns);
    return match;
  }

 private:
  // EnclaveService::execute's kRun path, split at each layer boundary:
  // Machine::store, the SM switch pair, Rv32Cpu::run(1) on a fresh CPU,
  // the remaining run(max_steps - 1), CPU teardown and Machine::load.
  bool replay_run(const Job& job, const Response& expect, EnclaveWorld& w,
                  LayerSamples& s, std::uint64_t& layers_ns) const {
    const Request& req = job.request;
    const auto& enclave = w.sm->enclave(req.enclave);
    const Bytes input = checker_.run_input(req, job.seq);

    std::uint64_t t = now_ns();
    w.machine->store(enclave.base + req.input_offset, input,
                     PrivMode::kMachine);
    const std::uint64_t stage = now_ns() - t;

    t = now_ns();
    w.sm->enter_enclave(req.enclave);
    const std::uint64_t enter = now_ns() - t;

    t = now_ns();
    std::optional<Rv32Cpu> cpu(
        std::in_place, *w.machine,
        static_cast<std::uint32_t>(enclave.base) + req.entry_offset,
        PrivMode::kUser);
    if (enclave.engine != cpu->engine()) cpu->set_engine(enclave.engine);
    const Rv32Cpu::RunResult first = cpu->run(1);
    const std::uint64_t setup_decode = now_ns() - t;

    t = now_ns();
    Rv32Cpu::RunResult rest;
    if (!first.trap && req.max_steps > 1) rest = cpu->run(req.max_steps - 1);
    const std::uint64_t cont = now_ns() - t;

    t = now_ns();
    w.sm->enter_os();
    const std::uint64_t leave = now_ns() - t;

    t = now_ns();
    cpu.reset();
    const std::uint64_t cpu_teardown = now_ns() - t;

    t = now_ns();
    const Bytes data = w.machine->load(enclave.base + req.result_offset,
                                       req.result_len, PrivMode::kMachine);
    const std::uint64_t load = now_ns() - t;

    s.stage.push_back(stage);
    s.sm_switch.push_back(enter + leave);
    s.setup_decode.push_back(setup_decode);
    s.cont.push_back(cont);
    s.load.push_back(load);
    s.teardown.push_back(cpu_teardown);  // the world's teardown is added later
    s.continue_steps += rest.steps;
    s.continue_ns += cont;
    layers_ns = stage + enter + setup_decode + cont + leave + cpu_teardown + load;

    const std::optional<Trap> trap = first.trap ? first.trap : rest.trap;
    const Status status = !trap ? Status::kStepLimit
                          : trap->cause == TrapCause::kEcall ? Status::kOk
                                                             : Status::kTrap;
    return status == expect.status && first.steps + rest.steps == expect.steps &&
           same_trap(trap, expect.trap) && data == expect.data;
  }

  // SecurityMonitor::attest's two signatures over the 1064 B enclave
  // payload (measurement || le64 length || user data padded to 992 B).
  bool replay_signatures(const Bytes& user_data, const AttestationReport& report,
                         LayerSamples& s) const {
    Bytes payload = world_.measurement;
    std::uint8_t len_le[8];
    store_le64(len_le, user_data.size());
    payload.insert(payload.end(), len_le, len_le + 8);
    Bytes padded = user_data;
    padded.resize(kEnclaveDataMax, 0);
    payload.insert(payload.end(), padded.begin(), padded.end());

    std::uint64_t t = now_ns();
    const auto ed = crypto::ed25519_sign(world_.boot.sm_ed25519, payload);
    s.ed25519.push_back(now_ns() - t);
    t = now_ns();
    const Bytes ml = crypto::dilithium::sign(world_.boot.sm_mldsa.sk, payload);
    s.mldsa.push_back(now_ns() - t);
    return ed == report.sm_sig_ed25519 && ml == report.sm_sig_mldsa;
  }

  // The sealing AEAD: sealing-key HKDF, enc|mac HKDF, AES-256-CTR over the
  // 4 KiB body and HMAC-SHA512 over nonce || lengths || AAD || ciphertext.
  bool replay_aead(const Bytes& blob, const Bytes& plaintext,
                   LayerSamples& s) const {
    const auto box = crypto::aead_deserialize(blob);
    if (!box) return false;
    std::uint64_t t = now_ns();
    const Bytes key =
        crypto::hkdf(world_.boot.sealing_root, world_.measurement,
                     as_bytes("convolve-sealing-key-v1"), 32);
    s.hkdf.push_back(now_ns() - t);
    t = now_ns();
    const Bytes okm =
        crypto::hkdf(as_bytes("convolve-aead-v1"), key, as_bytes("enc|mac"), 64);
    s.hkdf.push_back(now_ns() - t);
    const ByteView enc(okm.data(), 32);
    const ByteView mac(okm.data() + 32, 32);

    t = now_ns();
    const Bytes ciphertext = crypto::aes256_ctr(enc, box->nonce, 0, plaintext);
    s.aes.push_back(now_ns() - t);

    std::uint8_t lens[16];
    store_le64(lens, world_.measurement.size());
    store_le64(lens + 8, ciphertext.size());
    const Bytes msg =
        concat({box->nonce, {lens, 16}, world_.measurement, ciphertext});
    t = now_ns();
    Bytes tag = crypto::hmac_sha512(mac, msg);
    s.hmac.push_back(now_ns() - t);
    tag.resize(32);
    return ciphertext == box->ciphertext && tag == box->tag;
  }

  const World& world_;
  const Checker& checker_;
};

// --- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// Per-layer metrics, with the end-to-end metric and workload each should
// move (printed beside the value in the traced run).
struct LayerInfo {
  const char* name;
  const char* unit;
  const char* moves;
};
constexpr LayerInfo kLayerMetrics[] = {
    {"compsoc.submit_ns_p50", "ns", "latency_p50_us on run_small (<1%)"},
    {"compsoc.wait_slots_mean", "slots", "modelled TDM wait, not wall time"},
    {"compsoc.shed_ratio", "ratio", "failed requests on every workload"},
    {"service.fork_ns_p50", "ns", "throughput_rps, latency_p50_us on run_small"},
    {"service.fork_ns_p99", "ns", "throughput_rps, latency_p50_us on run_small"},
    {"service.dispatch_gap_ns", "ns", "throughput_rps on run_small"},
    {"run_service_p50_us", "us", "service_p50_us on run_small, run_compute"},
    {"attest_service_p50_us", "us", "latency_p50_us on crypto_mix"},
    {"seal_service_p50_us", "us", "latency_p50_us on crypto_mix"},
    {"unseal_service_p50_us", "us", "latency_p50_us on crypto_mix"},
    {"tee.stage_input_ns_p50", "ns", "service_p50_us on run_small"},
    {"tee.load_result_ns_p50", "ns", "service_p50_us on run_small"},
    {"tee.cow_pages_per_req", "pages", "peak_rss_mb and run_small"},
    {"tee.sm_switch_ns_p50", "ns", "service_p50_us on run_small"},
    {"tee.teardown_ns_p50", "ns", "service_p50_us on run_small"},
    {"tee.attest_ns_p50", "ns", "attest_service_p50_us on crypto_mix"},
    {"tee.seal_ns_p50", "ns", "seal_service_p50_us on crypto_mix"},
    {"tee.unseal_ns_p50", "ns", "unseal_service_p50_us on crypto_mix"},
    {"rv32.setup_decode_ns_p50", "ns",
     "service_p50_us on run_small; <1% of run_compute"},
    {"rv32.continue_ns_p50", "ns", "service_p50_us on run_compute"},
    {"rv32.decodes_per_req", "count", "run_small"},
    {"rv32.invalidations_per_req", "count", "run_small"},
    {"rv32.steps_per_req", "count", "fixed by the guest program"},
    {"rv32.fused_share", "ratio", "rv32.mips on run_compute"},
    {"rv32.mips", "MIPS", "throughput_rps on run_compute"},
    {"crypto.ed25519_sign_ns_p50", "ns", "attest_service_p50_us on crypto_mix"},
    {"crypto.mldsa_sign_ns_p50", "ns", "attest_service_p50_us on crypto_mix"},
    {"crypto.hkdf_ns_p50", "ns", "seal/unseal_service_p50_us on crypto_mix"},
    {"crypto.aes256_ctr_4k_ns_p50", "ns",
     "seal/unseal_service_p50_us on crypto_mix"},
    {"crypto.hmac_sha512_4k_ns_p50", "ns",
     "seal/unseal_service_p50_us on crypto_mix"},
    {"crypto.aes256_ctr_MBps", "MB/s",
     "seal/unseal_service_p50_us on crypto_mix"},
    {"pool.steals_per_batch", "count", "throughput_rps on run_small"},
    {"pool.worker_wait_ns_per_req", "ns",
     "throughput_rps on run_small, not run_compute"},
    {"trace.overhead_ns", "ns",
     "replayed kRun layer-median sum minus the service's own median"},
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Prints the result object as the last stdout line. A metric that could not
// be measured (no samples) makes the run incorrect and reads 0.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  bool measured = true;
  for (const Metric& m : metrics) measured = measured && std::isfinite(m.value);
  out += (correct && measured) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " +
           json_number(std::isfinite(m.value) ? m.value : 0.0) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("  %-30s %14.3f %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

struct Options {
  Workload workload = Workload::kRunSmall;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload_name = value;
      if (value == "run_small") {
        opt.workload = Workload::kRunSmall;
      } else if (value == "run_compute") {
        opt.workload = Workload::kRunCompute;
      } else if (value == "crypto_mix") {
        opt.workload = Workload::kCryptoMix;
      } else {
        return std::nullopt;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt.seconds > 0) ||
          opt.seconds > 120) {
        return std::nullopt;
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      opt.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) return std::nullopt;
  return opt;
}

// --- The two runs -----------------------------------------------------------

struct Bench {
  Options opt;
  Bytes image;
  Bytes measurement;
  std::vector<double> setup_s;
  World world;

  explicit Bench(const Options& o)
      : opt(o),
        image(o.workload == Workload::kRunCompute ? arx_program()
                                                  : byte_sum_program()),
        measurement(crypto::sha3_512(image)),
        world(timed_set_up()) {}

  // One timed set-up; the serving world is the first, later ones are
  // discarded and only sample setup_s.
  World timed_set_up() {
    const std::uint64_t t0 = now_ns();
    World built = build_world(image, measurement, opt.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return built;
  }

  double warm_up_seconds() const { return std::min(1.0, 0.1 * opt.seconds); }
};

// Median of per-window values (kWindows of them).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? std::nan("") : v[v.size() / 2];
}

int run_untraced(const Options& opt) {
  Bench bench(opt);
  const World& world = bench.world;
  const ServiceConfig config = service_config(opt.seed);
  const RequestStream stream(opt.workload, opt.seed, world);
  const Checker checker(opt.workload, opt.seed, world);
  warm_up(world, config, stream, bench.warm_up_seconds());

  // The timed loop runs in kWindows equal windows. Throughput and the batch
  // latency median are taken per window and reported as the median window,
  // so a host stall that spans less than half the windows does not move
  // them; the p99 pools every batch of the run. service_p50_us is a
  // one-thread cost per request that host interference can only inflate,
  // so it reports the least-disturbed (lowest) window median. Set-ups
  // sampled between windows spread setup_s over the run.
  EnclaveService service(world.snapshot, config);
  std::vector<std::uint64_t> batch_ns, run_ns;
  std::array<std::vector<std::uint64_t>, 4> kind_ns;
  std::vector<double> window_rps, window_p50, window_p99, window_service_p50;
  std::vector<std::vector<Job>> kept_jobs;
  std::vector<std::vector<Response>> kept;
  std::uint64_t submitted = 0, failed = 0, seq = 0;
  for (int w = 0; w < kWindows; ++w) {
    std::vector<std::uint64_t> w_batch_ns, w_service_ns;
    std::uint64_t w_serve_ns = 0, w_ok = 0;
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(opt.seconds / kWindows * 1e9);
    for (; now_ns() < deadline; seq += kBatch) {
      std::vector<Job> jobs = stream.batch(seq);
      Served served = serve(service, jobs);
      w_batch_ns.push_back(served.wall_ns);
      w_serve_ns += served.wall_ns;
      const std::vector<char> good = checker.ok_all(jobs, served.responses);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        ++submitted;
        if (!good[i]) {
          ++failed;
          continue;
        }
        ++w_ok;
        const std::uint64_t latency = served.responses[i].latency_ns;
        kind_ns[kind_index(jobs[i].request.kind)].push_back(latency);
        w_service_ns.push_back(latency);
      }
      if (kept.size() < kKeptBatches) {
        kept_jobs.push_back(std::move(jobs));
        kept.push_back(std::move(served.responses));
      }
    }
    window_rps.push_back(
        ratio(static_cast<double>(w_ok), static_cast<double>(w_serve_ns) / 1e9));
    window_p50.push_back(percentile(w_batch_ns, 50) / 1e3);
    window_p99.push_back(percentile(w_batch_ns, 99) / 1e3);
    window_service_p50.push_back(percentile(w_service_ns, 50) / 1e3);
    batch_ns.insert(batch_ns.end(), w_batch_ns.begin(), w_batch_ns.end());
    for (int i = 0; i < kSetupsPerWindow; ++i) bench.timed_set_up();
  }

  std::size_t compared = 0;
  const std::size_t mismatches = count_mismatches(
      serve_one_thread(world, config, kept_jobs, bench.warm_up_seconds()),
      kept, compared);
  failed += mismatches;

  const std::vector<Metric> metrics = {
      {"throughput_rps", "req/s", median(window_rps)},
      {"latency_p50_us", "us", median(window_p50)},
      {"latency_p99_us", "us", percentile(batch_ns, 99) / 1e3},
      {"service_p50_us", "us",
       *std::min_element(window_service_p50.begin(), window_service_p50.end())},
      {"setup_s", "s", median(bench.setup_s)},
      {"peak_rss_mb", "MiB", peak_rss_mb()},
  };

  std::printf("enclave_bench workload=%s seed=%llu seconds=%g trace=0 "
              "threads=%d tenants=%d batch=%zu (closed loop)\n",
              opt.workload_name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              kThreads, kTenants, kBatch);
  for (const Metric& m : metrics) print_metric(m);
  std::printf("  samples: %zu batch latencies of %zu requests in %d windows; "
              "%zu set-ups\n",
              batch_ns.size(), kBatch, kWindows, bench.setup_s.size());
  for (int w = 0; w < kWindows; ++w) {
    const auto i = static_cast<std::size_t>(w);
    std::printf("  window %d: %.1f req/s, batch p50 %.3f us, p99 %.3f us, "
                "service p50 %.3f us\n",
                w, window_rps[i], window_p50[i], window_p99[i],
                window_service_p50[i]);
  }
  for (const RequestKind kind : kAllKinds) {
    const auto& v = kind_ns[kind_index(kind)];
    if (v.empty()) continue;
    std::printf("  %s_service_p50_us %.3f  p99_us %.3f  (n=%zu)\n",
                kind_name(kind), percentile(v, 50) / 1e3,
                percentile(v, 99) / 1e3, v.size());
  }
  std::printf("  fail_ratio %.6f (%llu of %llu submitted; %zu of %zu "
              "responses differ from a one-thread run)\n",
              ratio(static_cast<double>(failed), static_cast<double>(submitted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(submitted), mismatches, compared);
  print_result(failed == 0 && compared > 0, submitted, failed, metrics);
  return 0;
}

int run_traced(const Options& opt) {
  Bench bench(opt);
  const World& world = bench.world;
  const ServiceConfig config = service_config(opt.seed);
  const RequestStream stream(opt.workload, opt.seed, world);
  const Checker checker(opt.workload, opt.seed, world);
  const Replayer replayer(world, checker);
  warm_up(world, config, stream, bench.warm_up_seconds());

  // 1. The closed loop with every submit() and drain() timed. Responses are
  // checked after the loop, so the pool idles only for the submits.
  std::vector<std::uint64_t> submit_ns;
  std::vector<std::vector<Job>> jobs;
  std::vector<std::vector<Response>> responses;
  std::uint64_t drain_ns = 0;
  const auto pool_before = telemetry::snapshot();
  {
    EnclaveService service(world.snapshot, config);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(0.4 * opt.seconds * 1e9);
    for (std::uint64_t seq = 0; jobs.size() < kTraceBatches &&
                                now_ns() < deadline;
         seq += kBatch) {
      jobs.push_back(stream.batch(seq));
      Served served = serve(service, jobs.back(), &submit_ns);
      drain_ns += served.drain_ns;
      responses.push_back(std::move(served.responses));
    }
  }
  const auto pool_after = telemetry::snapshot();

  std::array<std::vector<std::uint64_t>, 4> kind_ns;
  std::uint64_t submitted = 0, failed = 0, rejected = 0, wait_slots = 0;
  auto tally = [&](const std::vector<Job>& batch,
                   const std::vector<Response>& served) {
    const std::vector<char> good = checker.ok_all(batch, served);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ++submitted;
      if (i < served.size()) {
        wait_slots += static_cast<std::uint64_t>(served[i].wait_slots);
        if (served[i].status == Status::kRejected) ++rejected;
      }
      if (!good[i]) {
        ++failed;
        continue;
      }
      kind_ns[kind_index(batch[i].request.kind)].push_back(
          served[i].latency_ns);
    }
  };
  for (std::size_t b = 0; b < jobs.size(); ++b) tally(jobs[b], responses[b]);
  const std::uint64_t loop_requests = submitted;

  // 2. A prefix re-served at one thread, each batch followed by its
  // call-by-call replay. The one-thread responses check bit-identity and
  // give the service's own latency that the replayed layers must add up
  // to; alternating batch by batch keeps both under the same host speed,
  // which on a shared host drifts over seconds. The rv32 counters are
  // summed over the replays only.
  std::vector<Served> one;
  LayerSamples layers;
  std::uint64_t replay_mismatches = 0;
  constexpr std::array<const char*, 5> kRvCounters = {
      "rv32.decode_cache.misses", "rv32.decode_cache.invalidations",
      "rv32.instructions_retired", "rv32.fusion.pairs",
      "rv32.bytecode.instructions"};
  std::map<std::string, double> rv_replay;
  {
    const par::ScopedThreadCount single(1);
    EnclaveService service(world.snapshot, config);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(
                       std::min(3.0, 0.3 * opt.seconds) * 1e9);
    for (std::size_t b = 0; b < jobs.size(); ++b) {
      one.push_back(serve(service, jobs[b]));
      const auto before = telemetry::snapshot();
      for (std::size_t i = 0; i < jobs[b].size(); ++i) {
        if (!replayer.replay(jobs[b][i], responses[b][i], layers)) {
          ++replay_mismatches;
        }
      }
      const auto after = telemetry::snapshot();
      for (const char* name : kRvCounters) {
        rv_replay[name] += static_cast<double>(after.counter_value(name) -
                                               before.counter_value(name));
      }
      if (now_ns() >= deadline) break;
    }
  }
  std::size_t compared = 0;
  const std::size_t mismatches = count_mismatches(one, responses, compared);
  failed += mismatches;
  std::array<std::vector<std::uint64_t>, 4> one_ns;
  for (std::size_t b = 0; b < one.size(); ++b) {
    for (std::size_t i = 0; i < one[b].responses.size(); ++i) {
      one_ns[kind_index(jobs[b][i].request.kind)].push_back(
          one[b].responses[i].latency_ns);
    }
  }
  auto rv_delta = [&](const char* name) { return rv_replay.at(name); };

  // 4. Op kinds the workload lacks: one batch each at four threads on a
  // fresh service, checked and replayed, feeding only their kind's layers.
  LayerSamples top_up;
  {
    EnclaveService service(world.snapshot, config);
    std::uint64_t seq = 0;
    for (const RequestKind kind : kAllKinds) {
      if (!kind_ns[kind_index(kind)].empty()) continue;
      std::vector<Job> batch;
      for (std::size_t i = 0; i < kTopUpPerKind; ++i) {
        batch.push_back(stream.make_kind(seq++, kind));
      }
      const Served served = serve(service, batch);
      tally(batch, served.responses);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (i >= served.responses.size() ||
            !replayer.replay(batch[i], served.responses[i], top_up)) {
          ++replay_mismatches;
        }
      }
    }
  }
  failed += replay_mismatches;
  auto append = [](std::vector<std::uint64_t>& to,
                   const std::vector<std::uint64_t>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(layers.attest, top_up.attest);
  append(layers.seal, top_up.seal);
  append(layers.unseal, top_up.unseal);
  append(layers.ed25519, top_up.ed25519);
  append(layers.mldsa, top_up.mldsa);
  append(layers.hkdf, top_up.hkdf);
  append(layers.aes, top_up.aes);
  append(layers.hmac, top_up.hmac);

  // Layer-sum check on the kRun requests of the replayed prefix.
  const double layer_sum =
      percentile(layers.fork, 50) + percentile(layers.stage, 50) +
      percentile(layers.sm_switch, 50) + percentile(layers.setup_decode, 50) +
      percentile(layers.cont, 50) + percentile(layers.load, 50) +
      percentile(layers.teardown, 50);
  const double service_run_1t =
      percentile(one_ns[kind_index(RequestKind::kRun)], 50);
  const double sum_ratio = ratio(layer_sum, service_run_1t);
  const bool sum_checked = opt.workload != Workload::kCryptoMix;
  const bool sum_ok = !sum_checked || (std::isfinite(sum_ratio) &&
                                       std::fabs(sum_ratio - 1.0) <=
                                           kLayerSumTolerance);

  const double run_requests = static_cast<double>(layers.stage.size());
  const double batches = static_cast<double>(jobs.size());
  const double aes_p50 = percentile(layers.aes, 50);
  std::map<std::string, double> v;
  v["compsoc.submit_ns_p50"] = percentile(submit_ns, 50);
  v["compsoc.wait_slots_mean"] =
      ratio(static_cast<double>(wait_slots), static_cast<double>(submitted));
  v["compsoc.shed_ratio"] =
      ratio(static_cast<double>(rejected), static_cast<double>(submitted));
  v["service.fork_ns_p50"] = percentile(layers.fork, 50);
  v["service.fork_ns_p99"] = percentile(layers.fork, 99);
  v["service.dispatch_gap_ns"] =
      ratio(static_cast<double>(drain_ns), static_cast<double>(loop_requests)) *
          kThreads -
      mean(layers.total);
  v["run_service_p50_us"] =
      percentile(kind_ns[kind_index(RequestKind::kRun)], 50) / 1e3;
  v["attest_service_p50_us"] =
      percentile(kind_ns[kind_index(RequestKind::kAttest)], 50) / 1e3;
  v["seal_service_p50_us"] =
      percentile(kind_ns[kind_index(RequestKind::kSeal)], 50) / 1e3;
  v["unseal_service_p50_us"] =
      percentile(kind_ns[kind_index(RequestKind::kUnseal)], 50) / 1e3;
  v["tee.stage_input_ns_p50"] = percentile(layers.stage, 50);
  v["tee.load_result_ns_p50"] = percentile(layers.load, 50);
  v["tee.cow_pages_per_req"] = ratio(static_cast<double>(layers.cow_pages),
                                     static_cast<double>(layers.total.size()));
  v["tee.sm_switch_ns_p50"] = percentile(layers.sm_switch, 50);
  v["tee.teardown_ns_p50"] = percentile(layers.teardown, 50);
  v["tee.attest_ns_p50"] = percentile(layers.attest, 50);
  v["tee.seal_ns_p50"] = percentile(layers.seal, 50);
  v["tee.unseal_ns_p50"] = percentile(layers.unseal, 50);
  v["rv32.setup_decode_ns_p50"] = percentile(layers.setup_decode, 50);
  v["rv32.continue_ns_p50"] = percentile(layers.cont, 50);
  v["rv32.decodes_per_req"] =
      ratio(rv_delta("rv32.decode_cache.misses"), run_requests);
  v["rv32.invalidations_per_req"] =
      ratio(rv_delta("rv32.decode_cache.invalidations"), run_requests);
  v["rv32.steps_per_req"] =
      ratio(rv_delta("rv32.instructions_retired"), run_requests);
  v["rv32.fused_share"] = ratio(2 * rv_delta("rv32.fusion.pairs"),
                                rv_delta("rv32.bytecode.instructions"));
  v["rv32.mips"] = ratio(static_cast<double>(layers.continue_steps) * 1e3,
                         static_cast<double>(layers.continue_ns));
  v["crypto.ed25519_sign_ns_p50"] = percentile(layers.ed25519, 50);
  v["crypto.mldsa_sign_ns_p50"] = percentile(layers.mldsa, 50);
  v["crypto.hkdf_ns_p50"] = percentile(layers.hkdf, 50);
  v["crypto.aes256_ctr_4k_ns_p50"] = aes_p50;
  v["crypto.hmac_sha512_4k_ns_p50"] = percentile(layers.hmac, 50);
  v["crypto.aes256_ctr_MBps"] = ratio(kSealBytes * 1e3, aes_p50);
  auto pool_delta = [&](const char* name) {
    return static_cast<double>(pool_after.counter_value(name) -
                               pool_before.counter_value(name));
  };
  v["pool.steals_per_batch"] = ratio(pool_delta("pool.steals"), batches);
  v["pool.worker_wait_ns_per_req"] =
      ratio(pool_delta("pool.worker_wait_ns"),
            static_cast<double>(loop_requests));
  v["trace.overhead_ns"] = layer_sum - service_run_1t;

  std::printf("enclave_bench workload=%s seed=%llu seconds=%g trace=1 "
              "threads=%d tenants=%d batch=%zu\n",
              opt.workload_name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              kThreads, kTenants, kBatch);
  std::printf("  closed loop: %zu batches, %llu requests; one-thread "
              "prefix: %zu requests (%zu differ); replayed: %zu requests "
              "(+%zu top-up), %llu differ\n",
              jobs.size(), static_cast<unsigned long long>(loop_requests),
              compared, mismatches,
              layers.total.size(), top_up.total.size(),
              static_cast<unsigned long long>(replay_mismatches));
  std::vector<Metric> metrics;
  for (const LayerInfo& info : kLayerMetrics) {
    metrics.push_back({info.name, info.unit, v.at(info.name)});
    print_metric(metrics.back(), std::string("moves: ") + info.moves);
  }
  std::printf("  samples: fork %zu, kRun layers %zu, attest %zu, seal %zu, "
              "unseal %zu, submit %zu\n",
              layers.fork.size(), layers.stage.size(), layers.attest.size(),
              layers.seal.size(), layers.unseal.size(), submit_ns.size());
  std::printf("  layer sum (kRun medians) %.0f ns vs service one-thread "
              "median %.0f ns (n=%zu): ratio %.3f, tolerance +/-%.0f%% %s\n",
              layer_sum, service_run_1t,
              one_ns[kind_index(RequestKind::kRun)].size(), sum_ratio,
              kLayerSumTolerance * 100,
              !sum_checked ? "(not checked on this workload)"
              : sum_ok     ? "ok"
                           : "FAILED");
  print_result(failed == 0 && compared > 0 && sum_ok, submitted, failed,
               metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse_args(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: %s --workload run_small|run_compute|crypto_mix "
                 "--seed N --seconds S [--trace 0|1]\n",
                 argv[0]);
    return 2;
  }
  par::set_thread_count(kThreads);
  try {
    return opt->trace ? run_traced(*opt) : run_untraced(*opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "enclave_bench: %s\n", e.what());
    return 1;
  }
}
