// Enclave-execution service: a concurrent request loop over CoW forks.
//
// The request path (the ROADMAP's "millions of users" story):
//
//   submit()  -- serial admission point. Each request passes the CompSOC
//               TDM admission wheel (per-tenant slots, bounded look-ahead;
//               see compsoc/admission.hpp) and a pending-queue cap; a
//               request that fails either is answered kRejected
//               immediately -- backpressure costs no fork and no wheel
//               time.
//   drain()   -- executes every admitted request across the thread pool
//               (src/common/parallel) and returns all responses of
//               the batch in submission order. Each request runs in its
//               own CoW fork of the frozen snapshot (fork id = seq + 1),
//               so requests share nothing but read-only image pages, and
//               a crashed or trapped request affects exactly itself.
//
// Determinism: a kRun request's input bytes are drawn from
// rng.split(seq) -- the same frozen stream-derivation contract the sca lab
// uses -- so for a fixed submission sequence the response payloads
// (status, data, trap, steps) are bit-identical at any --threads N.
// Latency and fork timings are wall-clock and therefore not deterministic;
// they never influence response payloads, only the stats() histograms
// (p50/p99 via the shared log2-percentile contract in stats.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "convolve/common/rng.hpp"
#include "convolve/common/stats.hpp"
#include "convolve/compsoc/admission.hpp"
#include "convolve/tee/attestation.hpp"
#include "convolve/tee/rv32.hpp"
#include "convolve/tee/service/snapshot.hpp"

namespace convolve::tee::service {

enum class RequestKind : std::uint8_t { kRun, kAttest, kSeal, kUnseal };

struct Request {
  RequestKind kind = RequestKind::kRun;
  int tenant = 0;
  int enclave = 0;

  // kRun: execution budget and entry point (offset into the region).
  std::uint64_t max_steps = 1'000'000;
  std::uint32_t entry_offset = 0;
  // kRun: `input_len` bytes drawn from the request's split(seq) stream are
  // stored at region offset `input_offset` (M-mode, pre-run); after the
  // run, `result_len` bytes at `result_offset` come back as Response.data.
  std::uint32_t input_offset = 0;
  std::uint32_t input_len = 0;
  std::uint32_t result_offset = 0;
  std::uint32_t result_len = 0;

  // kAttest: user data for the report. kSeal: plaintext. kUnseal: blob.
  Bytes payload;
};

enum class Status : std::uint8_t {
  kOk,         // ran to an ecall exit / attest / seal / unseal succeeded
  kRejected,   // admission (TDM wheel or queue cap) shed the request
  kTrap,       // kRun stopped on a non-ecall trap (contained violation)
  kStepLimit,  // kRun exhausted max_steps without trapping
  kError,      // invalid request or execution-side exception
};

struct Response {
  Status status = Status::kError;
  std::uint64_t seq = 0;  // submission order, assigned by submit()
  // kRun outcomes.
  std::optional<Trap> trap;
  std::uint64_t steps = 0;
  // kRun: result window bytes. kSeal: the sealed blob. kUnseal: the
  // recovered plaintext.
  Bytes data;
  std::optional<AttestationReport> report;  // kAttest
  int wait_slots = 0;          // TDM wheel wait (admission latency)
  std::uint64_t latency_ns = 0;  // fork + execute, wall clock
  std::uint64_t fork_ns = 0;     // fork alone
  std::string error;             // kError diagnostics
};

struct ServiceConfig {
  int tdm_period = 8;
  int tdm_max_wait = 8;
  // Wheel slots per tenant (tenant id = index). Empty: one tenant owning
  // the whole wheel (single-tenant service, admission never rejects).
  std::vector<std::vector<int>> tenant_slots;
  // Admitted-but-undrained cap; submissions beyond it are shed.
  std::size_t max_pending = 1024;
  std::uint64_t seed = 0xC0111001DEull;  // root of the split(seq) streams
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  std::uint64_t traps = 0;
  std::uint64_t step_limited = 0;
  std::uint64_t errors = 0;
  std::uint64_t forks = 0;
  std::uint64_t wait_slots_total = 0;
  Log2Histogram latency_ns;  // p50/p99 via .percentile(50/99)
  Log2Histogram fork_ns;
};

class EnclaveService {
 public:
  explicit EnclaveService(MachineSnapshot snapshot,
                          const ServiceConfig& config = {});

  /// Serial admission point: assign the next sequence number, run the TDM
  /// wheel + queue-cap checks, and enqueue the request for drain() if
  /// admitted. Rejected requests are answered (kRejected) in the same
  /// batch without executing. Returns the request's seq.
  std::uint64_t submit(const Request& request);

  /// Execute every admitted request of the batch across the pool and
  /// return all responses (admitted + rejected) in submission order.
  /// Responses are bit-identical for a fixed submission sequence at any
  /// thread count (see header comment); stats are folded serially in
  /// submission order after the parallel phase.
  std::vector<Response> drain();

  /// Convenience: submit every request, then drain.
  std::vector<Response> run_batch(const std::vector<Request>& requests);

  const ServiceStats& stats() const { return stats_; }
  const MachineSnapshot& snapshot() const { return snapshot_; }
  std::size_t pending() const { return pending_.size(); }

 private:
  struct PendingRequest {
    Request request;
    std::uint64_t seq = 0;
    int wait_slots = 0;
  };

  Response execute(const PendingRequest& item) const;

  MachineSnapshot snapshot_;
  ServiceConfig config_;
  compsoc::TdmAdmission admission_;
  Xoshiro256 rng_;
  std::uint64_t next_seq_ = 0;
  std::vector<PendingRequest> pending_;
  std::vector<Response> rejected_;
  ServiceStats stats_;
};

}  // namespace convolve::tee::service
