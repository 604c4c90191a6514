// Security flight recorder end-to-end: every request outcome the enclave
// service can produce must land in the event log attributed to its
// {tenant, seq}, the event multiset must be identical at every thread
// count, and the offline obs_report join must reproduce the service's
// own stats fold (per-status counts, p50/p99) from the exported
// artifacts alone. The obs_report library tests at the bottom run in
// both build flavors; the event tests need CONVOLVE_TELEMETRY=ON.
#include "convolve/common/obs_report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "convolve/common/json.hpp"
#include "convolve/common/parallel.hpp"
#include "convolve/common/telemetry.hpp"
#include "convolve/tee/service/enclave_service.hpp"

namespace convolve::tee::service {
namespace {

namespace rv = rv32asm;

Bytes sum_input_program(int len) {
  return rv::assemble({
      rv::auipc(6, 0),
      rv::addi(5, 0, 0),
      rv::addi(7, 0, 0),
      rv::addi(8, 0, len),
      rv::add(9, 6, 7),
      rv::lbu(10, 9, 0x600),
      rv::add(5, 5, 10),
      rv::addi(7, 7, 1),
      rv::bne(7, 8, -16),
      rv::sw(5, 6, 0x700),
      rv::ecall(),
  });
}

struct ServiceWorld {
  Machine machine{1 << 20};
  BootRecord boot;
  std::unique_ptr<SecurityMonitor> sm;
  int enclave = -1;

  explicit ServiceWorld(const Bytes& binary) {
    const Bootrom rom({false}, DeviceKeys::from_entropy(Bytes(32, 0x11)));
    boot = rom.boot(Bytes(4096, 0xAB));
    sm = std::make_unique<SecurityMonitor>(machine, boot, SmConfig{});
    enclave = sm->create_enclave(binary, 8192);
  }

  EnclaveService make_service(const ServiceConfig& config = {}) const {
    return EnclaveService(MachineSnapshot::freeze(machine, *sm), config);
  }
};

Request run_request(int enclave, std::uint32_t input_len = 8) {
  Request r;
  r.kind = RequestKind::kRun;
  r.enclave = enclave;
  r.max_steps = 100000;
  r.input_offset = 0x600;
  r.input_len = input_len;
  r.result_offset = 0x700;
  r.result_len = 4;
  return r;
}

#if CONVOLVE_TELEMETRY_ENABLED

namespace tel = convolve::telemetry;

std::vector<tel::Event> events_of_kind(const std::vector<tel::Event>& all,
                                       tel::EventKind kind) {
  std::vector<tel::Event> out;
  for (const auto& e : all) {
    if (e.kind == static_cast<std::uint8_t>(kind)) out.push_back(e);
  }
  return out;
}

// --- Attribution: one scenario per security-relevant outcome -----------

TEST(ObsEvents, OkRunsEmitRequestDoneAndCowBurst) {
  tel::reset_events();
  ServiceWorld w(sum_input_program(8));
  auto service = w.make_service();
  Request req = run_request(w.enclave);
  req.tenant = 0;
  service.run_batch({req, req, req});

  const auto all = tel::collect_events();
  const auto done = events_of_kind(all, tel::EventKind::kRequestDone);
  ASSERT_EQ(done.size(), 3u);
  std::vector<std::uint64_t> seqs;
  for (const auto& e : done) {
    seqs.push_back(e.seq);
    EXPECT_EQ(e.tenant, 0);
    EXPECT_EQ(e.fork_id, e.seq + 1);  // fork ids are seq+1 by construction
    // code = (op << 4) | status: a kRun that ended kOk is 0x00.
    EXPECT_EQ(e.code, 0x00);
    EXPECT_GT(e.value, 0u);  // value carries retired steps
  }
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2}));
  // Forking off the snapshot materialized CoW pages for each request.
  const auto cow = events_of_kind(all, tel::EventKind::kCowBurst);
  EXPECT_GE(cow.size(), 3u);
  for (const auto& e : cow) EXPECT_GT(e.value, 0u);
  tel::reset_events();
}

TEST(ObsEvents, PmpFaultCarriesAccessTypeAndAddress) {
  tel::reset_events();
  // Escape attempt: load from OS memory at 0x80000.
  ServiceWorld w(rv::assemble({
      rv::lui(1, 0x80),
      rv::lw(2, 1, 0),
      rv::ecall(),
  }));
  auto service = w.make_service();
  Request escape;
  escape.kind = RequestKind::kRun;
  escape.enclave = w.enclave;
  escape.max_steps = 100;
  const auto responses = service.run_batch({escape});
  ASSERT_EQ(responses[0].status, Status::kTrap);

  const auto all = tel::collect_events();
  const auto faults = events_of_kind(all, tel::EventKind::kPmpFault);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].seq, 0u);
  EXPECT_EQ(faults[0].code, 0);  // 0 = load access fault
  EXPECT_EQ(faults[0].value, 0x80000u);
  const auto done = events_of_kind(all, tel::EventKind::kRequestDone);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].code & 0x0f, static_cast<int>(Status::kTrap));
  tel::reset_events();
}

TEST(ObsEvents, StepLimitAndShedAndSealRejectAttributed) {
  tel::reset_events();
  // Step limit: an infinite loop against a small budget.
  ServiceWorld loop(rv::assemble({rv::jal(0, 0)}));
  auto loop_service = loop.make_service();
  Request runaway;
  runaway.kind = RequestKind::kRun;
  runaway.enclave = loop.enclave;
  runaway.max_steps = 500;
  loop_service.run_batch({runaway});
  auto all = tel::collect_events();
  auto limited = events_of_kind(all, tel::EventKind::kStepLimit);
  ASSERT_EQ(limited.size(), 1u);
  EXPECT_EQ(limited[0].seq, 0u);
  EXPECT_EQ(limited[0].value, 500u);

  // Queue-cap shed: the fourth request bounces with code 1.
  tel::reset_events();
  ServiceWorld w(sum_input_program(4));
  ServiceConfig capped;
  capped.max_pending = 3;
  auto svc = w.make_service(capped);
  for (int i = 0; i < 5; ++i) svc.submit(run_request(w.enclave, 4));
  svc.drain();
  all = tel::collect_events();
  const auto sheds = events_of_kind(all, tel::EventKind::kTdmShed);
  ASSERT_EQ(sheds.size(), 2u);
  for (const auto& e : sheds) {
    EXPECT_GE(e.seq, 3u);
    EXPECT_EQ(e.code, 1);  // 1 = queue cap (0 = TDM wheel)
  }
  // Shed requests still answer a request_done (status kRejected).
  int rejected_done = 0;
  for (const auto& e : events_of_kind(all, tel::EventKind::kRequestDone)) {
    if ((e.code & 0x0f) == static_cast<int>(Status::kRejected)) {
      ++rejected_done;
    }
  }
  EXPECT_EQ(rejected_done, 2);

  // Seal reject: a tampered blob fails AEAD authentication (code 1).
  tel::reset_events();
  auto seal_service = w.make_service();
  Request seal;
  seal.kind = RequestKind::kSeal;
  seal.enclave = w.enclave;
  seal.payload = Bytes{9, 9, 9, 9};
  const auto sealed = seal_service.run_batch({seal});
  ASSERT_EQ(sealed[0].status, Status::kOk) << sealed[0].error;
  Request unseal;
  unseal.kind = RequestKind::kUnseal;
  unseal.enclave = w.enclave;
  unseal.payload = sealed[0].data;
  unseal.payload[unseal.payload.size() / 2] ^= 1;
  auto tamper_service = w.make_service();
  tel::reset_events();
  const auto bad = tamper_service.run_batch({unseal});
  EXPECT_EQ(bad[0].status, Status::kError);
  all = tel::collect_events();
  const auto rejects = events_of_kind(all, tel::EventKind::kSealReject);
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].seq, 0u);
  EXPECT_EQ(rejects[0].code, 1);  // 1 = auth failure (0 = malformed blob)
  tel::reset_events();
}

// --- Determinism: the event multiset is a function of the batch --------

TEST(ObsEvents, EventMultisetIdenticalAcrossThreadCounts) {
  using Key = std::tuple<std::uint8_t, std::uint8_t, std::uint64_t,
                         std::uint32_t, std::uint8_t, std::uint8_t,
                         std::uint64_t>;
  ServiceWorld w(sum_input_program(16));
  auto run_at = [&](int threads) {
    par::ScopedThreadCount guard(threads);
    tel::reset_events();
    auto service = w.make_service();
    std::vector<Request> batch;
    for (int i = 0; i < 24; ++i) {
      Request r = run_request(w.enclave, 16);
      r.max_steps = (i % 3 == 0) ? 50 : 100000;  // mix in step-limited runs
      batch.push_back(r);
    }
    service.run_batch(batch);
    // Everything except the wall-clock timestamp participates in the
    // multiset: payload fields are deterministic, t_ns is not.
    std::vector<Key> keys;
    for (const auto& e : tel::collect_events()) {
      keys.emplace_back(e.kind, e.tenant, e.seq, e.fork_id, e.enclave,
                        e.code, e.value);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  const auto base = run_at(1);
  EXPECT_FALSE(base.empty());
  for (int threads : {2, 4, 7}) {
    EXPECT_EQ(run_at(threads), base) << threads << " threads";
  }
  tel::reset_events();
}

// --- obs_report reproduces the service's own stats fold ----------------

TEST(ObsReport, ReproducesServiceStatsFoldFromArtifacts) {
  tel::reset_all_metrics();
  tel::reset_events();
  tel::reset_trace();

  ServiceWorld w(sum_input_program(8));
  ServiceConfig config;
  config.tdm_period = 8;
  config.tdm_max_wait = 8;
  config.tenant_slots = {{0, 2, 4, 6}, {1, 3, 5, 7}};
  auto service = w.make_service(config);
  std::vector<Request> batch;
  for (int i = 0; i < 32; ++i) {
    Request r = run_request(w.enclave, 8);
    r.tenant = i % 2;
    r.max_steps = (i % 5 == 0) ? 40 : 100000;  // mix step-limited runs in
    batch.push_back(r);
  }
  service.run_batch(batch);
  const ServiceStats& stats = service.stats();

  // The join works from exported artifacts only -- no service handle.
  const obs::Report report =
      obs::build_report(tel::events_jsonl(), tel::snapshot().to_json(),
                        tel::chrome_trace_json());

  EXPECT_EQ(report.requests, stats.submitted);
  EXPECT_EQ(report.by_status[static_cast<int>(Status::kOk)], stats.ok);
  EXPECT_EQ(report.by_status[static_cast<int>(Status::kRejected)],
            stats.rejected);
  EXPECT_EQ(report.by_status[static_cast<int>(Status::kStepLimit)],
            stats.step_limited);
  EXPECT_EQ(report.latency_count, stats.latency_ns.count);
  EXPECT_EQ(report.p50_ns, stats.latency_ns.percentile(50));
  EXPECT_EQ(report.p99_ns, stats.latency_ns.percentile(99));

  // Per-tenant: both tenants present, request counts split the total.
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].requests + report.tenants[1].requests,
            report.requests);
  for (const auto& t : report.tenants) {
    EXPECT_GT(t.latency_count, 0u);
    EXPECT_LE(t.p50_ns, t.p99_ns);
  }
  // Trace corroboration: every executed request's span joined back.
  EXPECT_EQ(report.spans_joined, stats.completed);
  EXPECT_EQ(report.spans_unmatched, 0u);
  EXPECT_EQ(report.events_dropped, 0u);

  // The JSON rendering parses and carries the same global fold.
  const auto root = json::parse(obs::to_json(report));
  ASSERT_TRUE(root.is_object());
  const auto* requests = root.find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(requests->number), report.requests);
  ASSERT_NE(root.find("tenants"), nullptr);
  EXPECT_TRUE(root.find("tenants")->is_array());
  tel::reset_events();
  tel::reset_trace();
}

#endif  // CONVOLVE_TELEMETRY_ENABLED

// --- obs_report library (both build flavors) ---------------------------

TEST(ObsReport, StatusAndOpEncodingPinnedToServiceEnums) {
  // obs_report decodes request_done codes with its own tables; they must
  // match the service enums bit for bit.
  EXPECT_EQ(obs::kStatusCount, 5);
  EXPECT_EQ(obs::kOpCount, 4);
  EXPECT_EQ(static_cast<int>(Status::kOk), 0);
  EXPECT_EQ(static_cast<int>(Status::kRejected), 1);
  EXPECT_EQ(static_cast<int>(Status::kTrap), 2);
  EXPECT_EQ(static_cast<int>(Status::kStepLimit), 3);
  EXPECT_EQ(static_cast<int>(Status::kError), 4);
  EXPECT_STREQ(obs::status_name(static_cast<int>(Status::kOk)), "ok");
  EXPECT_STREQ(obs::status_name(static_cast<int>(Status::kRejected)),
               "rejected");
  EXPECT_STREQ(obs::status_name(static_cast<int>(Status::kTrap)), "trap");
  EXPECT_STREQ(obs::status_name(static_cast<int>(Status::kStepLimit)),
               "step_limit");
  EXPECT_STREQ(obs::status_name(static_cast<int>(Status::kError)), "error");
  EXPECT_EQ(static_cast<int>(RequestKind::kRun), 0);
  EXPECT_EQ(static_cast<int>(RequestKind::kAttest), 1);
  EXPECT_EQ(static_cast<int>(RequestKind::kSeal), 2);
  EXPECT_EQ(static_cast<int>(RequestKind::kUnseal), 3);
  EXPECT_STREQ(obs::op_name(static_cast<int>(RequestKind::kRun)), "run");
  EXPECT_STREQ(obs::op_name(static_cast<int>(RequestKind::kAttest)),
               "attest");
  EXPECT_STREQ(obs::op_name(static_cast<int>(RequestKind::kSeal)), "seal");
  EXPECT_STREQ(obs::op_name(static_cast<int>(RequestKind::kUnseal)),
               "unseal");
}

TEST(ObsReport, EmptyArtifactsYieldEmptyReportWithNote) {
  const obs::Report report = obs::build_report("", "", "");
  EXPECT_EQ(report.events, 0u);
  EXPECT_EQ(report.requests, 0u);
  EXPECT_TRUE(report.tenants.empty());
  EXPECT_FALSE(report.has_outliers);
  EXPECT_FALSE(report.notes.empty());  // "no events" is worth a note
  // Renderings still work on the empty report.
  EXPECT_FALSE(obs::to_text(report).empty());
  EXPECT_NO_THROW(json::parse(obs::to_json(report)));
}

namespace {
std::string synthetic_line(const char* kind, int tenant, int seq, int code,
                           int value) {
  std::string s = "{\"t_ns\": 1, \"kind\": \"";
  s += kind;
  s += "\", \"tenant\": " + std::to_string(tenant);
  s += ", \"seq\": " + std::to_string(seq);
  s += ", \"fork\": " + std::to_string(seq + 1);
  s += ", \"enclave\": 0, \"code\": " + std::to_string(code);
  s += ", \"value\": " + std::to_string(value) + "}\n";
  return s;
}
}  // namespace

TEST(ObsReport, FlagsTenantWithOutlierShedRate) {
  // Four tenants, ten requests each; tenant 3 additionally sheds nine
  // times. Its shed rate sits far above the population mean.
  std::string jsonl;
  int seq = 0;
  for (int tenant = 0; tenant < 4; ++tenant) {
    for (int i = 0; i < 10; ++i) {
      jsonl += synthetic_line("request_done", tenant, seq++, 0x00, 100);
    }
  }
  for (int i = 0; i < 9; ++i) {
    jsonl += synthetic_line("tdm_shed", 3, seq++, 0, 2);
  }
  const obs::Report report = obs::build_report(jsonl, "", "", 1.0);
  ASSERT_EQ(report.tenants.size(), 4u);
  EXPECT_TRUE(report.has_outliers);
  for (const auto& t : report.tenants) {
    if (t.tenant == 3) {
      EXPECT_TRUE(t.outlier);
      EXPECT_GT(t.z_shed, 1.0);
      EXPECT_EQ(t.sheds, 9u);
    } else {
      EXPECT_FALSE(t.outlier);
    }
  }
  // The same population under a huge threshold flags nobody.
  EXPECT_FALSE(obs::build_report(jsonl, "", "", 100.0).has_outliers);
}

// Every JSON number the join converts must be finite and in [0, 2^64).
// A negative bucket bound must not land in the top bucket (p99 would read
// 2^64 - 1), and an event whose tenant or seq is out of range must not
// fold into tenant 0: both are skipped and noted.
TEST(ObsReport, OutOfRangeNumbersAreSkippedAndNoted) {
  const std::string metrics =
      "{\"counters\": {}, \"gauges\": {}, \"histograms\": "
      "{\"service.latency_ns\": {\"count\": 6, \"sum\": 5000, "
      "\"buckets\": [[-1, 0, 1], [512, 1023, 5]]}}}";
  std::string jsonl = synthetic_line("request_done", 1, 0, 0x00, 10);
  jsonl +=
      "{\"t_ns\": 1, \"kind\": \"request_done\", \"tenant\": 1e300, "
      "\"seq\": 1e999, \"fork\": 0, \"enclave\": 0, \"code\": 0, "
      "\"value\": 0}\n";
  const obs::Report report = obs::build_report(jsonl, metrics, "");
  EXPECT_EQ(report.latency_count, 5u);
  EXPECT_EQ(report.p50_ns, 1023u);
  EXPECT_EQ(report.p99_ns, 1023u);
  EXPECT_EQ(report.events, 1u);
  EXPECT_EQ(report.requests, 1u);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].tenant, 1);
  const auto noted = [&](const char* what) {
    return std::any_of(
        report.notes.begin(), report.notes.end(),
        [&](const std::string& n) { return n.find(what) != n.npos; });
  };
  EXPECT_TRUE(noted("malformed event line"));
  EXPECT_TRUE(noted("malformed histogram bucket"));
}

TEST(ObsReport, MalformedLinesAreSkippedAndNoted) {
  std::string jsonl = synthetic_line("request_done", 0, 0, 0x00, 10);
  jsonl += "this is not json\n";
  jsonl += synthetic_line("pmp_fault", 0, 1, 0, 0x80000);
  const obs::Report report = obs::build_report(jsonl, "{ broken", "");
  EXPECT_EQ(report.events, 2u);
  EXPECT_EQ(report.requests, 1u);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].fault_events, 1u);
  EXPECT_FALSE(report.notes.empty());
}

}  // namespace
}  // namespace convolve::tee::service
