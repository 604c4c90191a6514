// Enclave-execution service benchmark: CoW fork vs cold enclave creation,
// and request-loop throughput across a thread sweep.
//
// Phase 1 (fork_vs_cold, gated): freeze a measured-boot world holding a
// 256 KB enclave image, then compare
//   cold  - fresh Machine + SecurityMonitor + create_enclave (re-measuring
//           the 256 KB binary with SHA3-512) per request, boot record cached
//   fork  - MachineSnapshot::fork: CoW page tables aliasing the frozen
//           image, SM state adopted without re-measurement
// The exit code gates --min-fork-speedup (default 10x): spawning a machine
// by fork must beat cold creation by an order of magnitude, or the CoW
// path has regressed into a copy.
//
// Phase 2 (requests, thread sweep): one batch of run-requests through
// EnclaveService::run_batch at each thread count in {1,2,4,8}, reporting
// requests/sec and p50/p99 latency from the service's log2 histograms.
// Every sweep point must produce bit-identical response payloads (the
// determinism contract); the --min-scale gate (default 4x at
// --scale-threads=8 over threads=1) auto-skips when the host offers fewer
// than --scale-threads hardware threads, since pool oversubscription on a
// small box measures scheduler noise, not scaling.
//
// Output: text table by default; --json emits the shared bench_report.hpp
// schema (validated by tools/check_bench_json).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "convolve/common/cli.hpp"
#include "convolve/common/parallel.hpp"
#include "convolve/tee/service/enclave_service.hpp"

using namespace convolve;
using namespace convolve::tee;
using namespace convolve::tee::service;
namespace rv = rv32asm;

namespace {

constexpr std::uint64_t kMachineBytes = 4 << 20;
constexpr std::uint64_t kImageBytes = 256 * 1024;
constexpr std::uint32_t kInputOffset = 0x600;
constexpr std::uint32_t kResultOffset = 0x700;
constexpr int kInputLen = 256;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sum kInputLen input bytes at kInputOffset into a word at kResultOffset.
// Offsets stay below 0x800 so the I-type immediates don't sign-extend.
Bytes service_program() {
  Bytes code = rv::assemble({
      rv::auipc(6, 0),
      rv::addi(5, 0, 0),
      rv::addi(7, 0, 0),
      rv::addi(8, 0, kInputLen),
      // loop:
      rv::add(9, 6, 7),
      rv::lbu(10, 9, kInputOffset),
      rv::add(5, 5, 10),
      rv::addi(7, 7, 1),
      rv::bne(7, 8, -16),
      rv::sw(5, 6, kResultOffset),
      rv::ecall(),
  });
  // Pad the binary to a 256 KB image: cold creation must hash (and fork
  // must NOT copy) the full footprint, not an 11-instruction stub.
  code.resize(kImageBytes, 0x00);
  return code;
}

struct BenchWorld {
  Machine machine{kMachineBytes};
  BootRecord boot;
  std::unique_ptr<SecurityMonitor> sm;
  int enclave = -1;
  Bytes binary;

  BenchWorld() : binary(service_program()) {
    const Bootrom rom({false}, DeviceKeys::from_entropy(Bytes(32, 0xB3)));
    boot = rom.boot(Bytes(4096, 0x5C));
    sm = std::make_unique<SecurityMonitor>(machine, boot, SmConfig{});
    enclave = sm->create_enclave(binary, kImageBytes);
  }
};

Request run_request(int enclave) {
  Request r;
  r.kind = RequestKind::kRun;
  r.enclave = enclave;
  r.max_steps = 100000;
  r.input_offset = kInputOffset;
  r.input_len = kInputLen;
  r.result_offset = kResultOffset;
  r.result_len = 4;
  return r;
}

// Phase 1 measurements: mean ns per spawn over `reps` spawns (each rep is
// a full spawn so allocator warm-up amortizes the same way on both paths).
double time_cold_creates(const BenchWorld& world, int reps) {
  const double t0 = now_seconds();
  for (int i = 0; i < reps; ++i) {
    Machine machine(kMachineBytes);
    SecurityMonitor sm(machine, world.boot, SmConfig{});
    const int id = sm.create_enclave(world.binary, kImageBytes);
    if (id < 0) std::abort();
  }
  return (now_seconds() - t0) * 1e9 / reps;
}

double time_forks(const MachineSnapshot& snapshot, int reps) {
  const double t0 = now_seconds();
  for (int i = 0; i < reps; ++i) {
    EnclaveWorld fork = snapshot.fork(static_cast<std::uint32_t>(i + 1));
    if (!fork.machine || !fork.sm) std::abort();
  }
  return (now_seconds() - t0) * 1e9 / reps;
}

struct SweepPoint {
  int threads = 0;
  double seconds = 0;
  double requests_per_sec = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t ok = 0;
  std::vector<std::uint64_t> ok_by_tenant;
  std::vector<std::uint64_t> shed_by_tenant;
  Bytes payload_digest;  // concatenated response data, determinism check
};

SweepPoint run_sweep_point(const BenchWorld& world, int threads,
                           int requests, int tenants) {
  par::ScopedThreadCount guard(threads);
  ServiceConfig config;
  config.max_pending = static_cast<std::size_t>(requests);
  if (tenants > 1) {
    // Partition the wheel round-robin: tenant k owns slots {s : s % N == k}.
    // Every tenant owns a slot within the default max_wait window, so the
    // multi-tenant sweep admits everything (sheds would skew throughput).
    config.tenant_slots.assign(static_cast<std::size_t>(tenants), {});
    for (int s = 0; s < config.tdm_period; ++s) {
      config.tenant_slots[static_cast<std::size_t>(s % tenants)].push_back(s);
    }
  }
  EnclaveService service(MachineSnapshot::freeze(world.machine, *world.sm),
                         config);
  std::vector<Request> batch;
  batch.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    Request r = run_request(world.enclave);
    r.tenant = i % tenants;
    batch.push_back(std::move(r));
  }
  const double t0 = now_seconds();
  const auto responses = service.run_batch(batch);
  const double t1 = now_seconds();

  SweepPoint out;
  out.threads = threads;
  out.seconds = t1 - t0;
  const ServiceStats& stats = service.stats();
  out.requests_per_sec =
      out.seconds > 0 ? static_cast<double>(stats.completed) / out.seconds : 0;
  out.p50_ns = stats.latency_ns.percentile(50);
  out.p99_ns = stats.latency_ns.percentile(99);
  out.ok = stats.ok;
  out.ok_by_tenant.assign(static_cast<std::size_t>(tenants), 0);
  out.shed_by_tenant.assign(static_cast<std::size_t>(tenants), 0);
  for (const Response& r : responses) {
    // seq == batch index (fresh service), so the tenant round-robin maps
    // responses back without carrying tenant ids through Response.
    const auto tenant = static_cast<std::size_t>(r.seq) %
                        static_cast<std::size_t>(tenants);
    if (r.status == Status::kOk) {
      ++out.ok_by_tenant[tenant];
    } else if (r.status == Status::kRejected) {
      ++out.shed_by_tenant[tenant];
    }
    out.payload_digest.insert(out.payload_digest.end(), r.data.begin(),
                              r.data.end());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = convolve::par::init_threads_from_cli(argc, argv);
  (void)threads;
  convolve::bench::ReportOptions opts;
  double min_fork_speedup = 10.0;
  double min_scale = 4.0;
  int scale_threads = 8;
  int requests = 256;
  int spawn_reps = 64;
  int tenants = 4;
  std::vector<int> sweep_threads = {1, 2, 4, 8};
  const std::string usage =
      std::string("usage: ") + argv[0] + " " +
      convolve::bench::report_flags_usage() +
      " [--requests=N] [--spawn-reps=N] [--tenants=N] [--sweep=T1,T2,...] "
      "[--min-fork-speedup=X] [--min-scale=X] [--scale-threads=N]";
  // Bounds: every timing divides by --requests and --spawn-reps; the TDM
  // wheel has 8 slots to share among --tenants; thread counts follow
  // --threads (1..4096); a batch holds all --requests at once.
  constexpr int kMaxRequests = 1 << 20;
  constexpr int kMaxThreads = 4096;
  using convolve::cli::parse_value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (convolve::bench::consume_report_flag(arg, opts)) {
      continue;
    } else if (arg.rfind("--min-fork-speedup=", 0) == 0) {
      min_fork_speedup = parse_value<double>(arg.substr(19), arg, usage);
    } else if (arg.rfind("--min-scale=", 0) == 0) {
      min_scale = parse_value<double>(arg.substr(12), arg, usage);
    } else if (arg.rfind("--scale-threads=", 0) == 0) {
      scale_threads =
          parse_value<int>(arg.substr(16), arg, usage, 1, kMaxThreads);
    } else if (arg.rfind("--requests=", 0) == 0) {
      requests = parse_value<int>(arg.substr(11), arg, usage, 1, kMaxRequests);
    } else if (arg.rfind("--spawn-reps=", 0) == 0) {
      spawn_reps = parse_value<int>(arg.substr(13), arg, usage, 1);
    } else if (arg.rfind("--tenants=", 0) == 0) {
      tenants = parse_value<int>(arg.substr(10), arg, usage, 1, 8);
    } else if (arg.rfind("--sweep=", 0) == 0) {
      sweep_threads.clear();
      std::string csv = arg.substr(8);
      for (std::size_t pos = 0; pos < csv.size();) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos) comma = csv.size();
        sweep_threads.push_back(parse_value<int>(
            csv.substr(pos, comma - pos), arg, usage, 1, kMaxThreads));
        pos = comma + 1;
      }
      if (sweep_threads.empty()) {
        convolve::cli::usage_error("'" + arg + "' lists no thread count",
                                   usage);
      }
    } else {
      convolve::cli::usage_error("unknown option '" + arg + "'", usage);
    }
  }

  BenchWorld world;
  const MachineSnapshot snapshot =
      MachineSnapshot::freeze(world.machine, *world.sm);

  convolve::bench::Report report;
  report.executable = argv[0];
  report.threads = par::thread_count();

  // --- Phase 1: fork vs cold create -------------------------------------
  // Warm-up both paths once so first-touch faults don't skew either side.
  (void)time_cold_creates(world, 1);
  (void)time_forks(snapshot, 1);
  const double cold_ns = time_cold_creates(world, spawn_reps);
  const double fork_ns = time_forks(snapshot, spawn_reps);
  const double fork_speedup = fork_ns > 0 ? cold_ns / fork_ns : 0;
  const bool fork_gate_ok = fork_speedup >= min_fork_speedup;

  {
    auto& cold = report.add("enclave_service/spawn/cold_create");
    cold.iterations = static_cast<std::uint64_t>(spawn_reps);
    cold.real_time_ns = cold_ns;
    cold.cpu_time_ns = cold_ns;
    cold.counter("image_bytes", static_cast<double>(kImageBytes));
    auto& fork = report.add("enclave_service/spawn/cow_fork");
    fork.iterations = static_cast<std::uint64_t>(spawn_reps);
    fork.real_time_ns = fork_ns;
    fork.cpu_time_ns = fork_ns;
    fork.counter("image_bytes", static_cast<double>(kImageBytes));
    fork.counter("fork_speedup", fork_speedup);
  }

  if (!opts.json) {
    std::printf("=== Enclave service: CoW fork vs cold create (256 KB) ===\n");
    std::printf("cold create: %12.0f ns\n", cold_ns);
    std::printf("CoW fork:    %12.0f ns\n", fork_ns);
    std::printf("speedup:     %11.1fx (gate %.1fx: %s)\n\n", fork_speedup,
                min_fork_speedup, fork_gate_ok ? "ok" : "FAIL");
  }

  // --- Phase 2: request-loop thread sweep --------------------------------
  if (!opts.json) {
    std::printf("=== Request loop: %d run-requests per sweep point, "
                "%d tenant(s) ===\n",
                requests, tenants);
    std::printf("%8s %12s %12s %12s %10s\n", "threads", "req/s", "p50 us",
                "p99 us", "payloads");
  }
  std::vector<SweepPoint> sweep;
  bool deterministic = true;
  bool swept_1 = false, swept_scale = false;
  double rate_at_1 = 0, rate_at_scale = 0;
  for (int t : sweep_threads) {
    const SweepPoint point = run_sweep_point(world, t, requests, tenants);
    if (!sweep.empty() &&
        point.payload_digest != sweep.front().payload_digest) {
      deterministic = false;
    }
    if (t == 1) {
      rate_at_1 = point.requests_per_sec;
      swept_1 = true;
    }
    if (t == scale_threads) {
      rate_at_scale = point.requests_per_sec;
      swept_scale = true;
    }
    auto& e = report.add("enclave_service/requests/threads:" +
                         std::to_string(t));
    e.threads = t;
    e.iterations = static_cast<std::uint64_t>(requests);
    e.real_time_ns = point.seconds * 1e9 / requests;
    e.cpu_time_ns = point.seconds * 1e9 / requests;
    e.counter("requests_per_second", point.requests_per_sec);
    e.counter("p50_ns", static_cast<double>(point.p50_ns));
    e.counter("p99_ns", static_cast<double>(point.p99_ns));
    e.counter("ok", static_cast<double>(point.ok));
    e.counter("tenants", static_cast<double>(tenants));
    for (int k = 0; k < tenants; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      e.counter("tenant" + std::to_string(k) + "_ok",
                static_cast<double>(point.ok_by_tenant[ks]));
      e.counter("tenant" + std::to_string(k) + "_shed",
                static_cast<double>(point.shed_by_tenant[ks]));
    }
    if (!opts.json) {
      std::printf("%8d %12.0f %12.1f %12.1f %10s\n", t,
                  point.requests_per_sec,
                  static_cast<double>(point.p50_ns) / 1e3,
                  static_cast<double>(point.p99_ns) / 1e3,
                  deterministic ? "match" : "DIFF");
    }
    sweep.push_back(point);
  }

  // Scaling gate, skipped on hosts that cannot express it (or when the
  // sweep doesn't include both endpoints): with fewer hardware threads
  // than the sweep's top point, extra pool workers just time-slice one
  // core and the "scaling" measured is scheduler noise.
  const bool can_scale =
      par::hardware_threads() >= scale_threads && swept_1 && swept_scale;
  bool scale_gate_ok = true;
  if (can_scale) {
    scale_gate_ok = rate_at_1 > 0 && rate_at_scale / rate_at_1 >= min_scale;
  }
  if (!opts.json) {
    if (can_scale) {
      std::printf("\nscaling at %d threads: %.2fx over 1 thread "
                  "(gate %.1fx: %s)\n",
                  scale_threads, rate_at_1 > 0 ? rate_at_scale / rate_at_1 : 0,
                  min_scale, scale_gate_ok ? "ok" : "FAIL");
    } else {
      std::printf("\nscaling gate SKIPPED: host has %d hardware thread(s), "
                  "gate needs %d\n",
                  par::hardware_threads(), scale_threads);
    }
    std::printf("bit-identical payloads across the sweep: %s\n",
                deterministic ? "yes" : "NO");
  }

  if (!convolve::bench::finish_report(report, opts)) {
    std::fprintf(stderr, "bench_enclave_service: failed to write report\n");
    return 2;
  }
  return (fork_gate_ok && scale_gate_ok && deterministic) ? 0 : 1;
}
