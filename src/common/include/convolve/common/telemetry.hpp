// Process-wide telemetry: a lock-free metric registry (counters, gauges,
// log2 histograms) plus scoped trace spans recorded into per-thread ring
// buffers and exportable as a chrome://tracing (trace_event) JSON file.
//
// Design rules:
//  * Hot-path cost of a counter is ONE relaxed atomic add. Metrics are
//    static handles (namespace-scope or function-local statics) that
//    register themselves into an intrusive lock-free list at construction;
//    snapshot() walks the list without ever blocking a writer.
//  * Spans are chunk/phase granularity, never per-item. A span costs two
//    steady_clock reads and one ring-buffer slot; buffers are append-only
//    per epoch (events drop, not wrap, when full) so an exporter can read a
//    buffer prefix concurrently with the owning thread appending -- the
//    published count is release-stored / acquire-loaded.
//  * Thread identity in exported traces is deterministic: the pool names
//    its workers "worker-<index>" and the CLI entry point names the caller
//    "main", so traces from --threads N runs line up run-over-run
//    regardless of OS thread ids.
//  * Compile-time kill switch: building with CONVOLVE_TELEMETRY_ENABLED=0
//    (cmake -DCONVOLVE_TELEMETRY=OFF) removes the entire namespace; every
//    macro below expands to nothing (or a no-op expression), so the OFF
//    build carries no telemetry code or symbols at all. Instrumentation
//    sites that need more than a macro (handle definitions, local tallies)
//    wrap themselves in CONVOLVE_TELEMETRY_ONLY(...).
#pragma once

#ifndef CONVOLVE_TELEMETRY_ENABLED
#define CONVOLVE_TELEMETRY_ENABLED 1
#endif

// Outside the kill switch: RequestContext is telemetry-independent
// plumbing (the service threads it in both build flavors), and OFF-build
// call sites still name it around CONVOLVE_RECORD_EVENT.
#include "convolve/common/request_context.hpp"

#if CONVOLVE_TELEMETRY_ENABLED

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>
#include "convolve/common/stats.hpp"

namespace convolve::telemetry {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Base of every registered metric. Construction pushes the metric onto a
/// global intrusive list (lock-free CAS); metrics are never unregistered,
/// so handles must have static storage duration.
class Metric {
 public:
  Metric(const Metric&) = delete;
  Metric& operator=(const Metric&) = delete;

  const char* name() const { return name_; }
  MetricKind kind() const { return kind_; }
  Metric* registry_next() const { return next_; }

 protected:
  Metric(const char* name, MetricKind kind);
  ~Metric() = default;

 private:
  const char* name_;
  MetricKind kind_;
  Metric* next_ = nullptr;
};

/// Monotonic counter. add() is a single relaxed atomic add.
class Counter : public Metric {
 public:
  explicit Counter(const char* name) : Metric(name, MetricKind::kCounter) {}

  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value gauge (e.g. "threads in the current parallel region").
class Gauge : public Metric {
 public:
  explicit Gauge(const char* name) : Metric(name, MetricKind::kGauge) {}

  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket log2 histogram: bucket b holds values v with
/// std::bit_width(v) == b, i.e. bucket 0 is exactly {0} and bucket b >= 1
/// covers [2^(b-1), 2^b) -- the Log2Histogram bucketing from stats.hpp.
/// record() is three relaxed atomic adds, so keep it off per-item hot
/// paths (chunk/phase granularity).
class Histogram : public Metric {
 public:
  static constexpr int kBuckets = Log2Histogram::kBuckets;

  explicit Histogram(const char* name) : Metric(name, MetricKind::kHistogram) {}

  static int bucket_index(std::uint64_t v) { return std::bit_width(v); }
  /// Inclusive lower bound of bucket b.
  static std::uint64_t bucket_lo(int b) {
    return b == 0 ? 0 : (1ull << (b - 1));
  }
  /// Inclusive upper bound of bucket b.
  static std::uint64_t bucket_hi(int b) { return log2_bucket_upper_bound(b); }

  void record(std::uint64_t v) {
    buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  std::uint64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Nearest-rank percentile (inclusive upper bucket bound) -- the shared
  /// log2_buckets_percentile contract from stats.hpp. Reads the buckets
  /// relaxed, so concurrent record() calls may or may not be included.
  std::uint64_t percentile(double pct) const {
    Log2Histogram copy;
    for (int b = 0; b < kBuckets; ++b) copy.record(bucket_lo(b), bucket(b));
    return copy.percentile(pct);
  }

  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Fixed-dimension labeled family of metrics M: `base.<slot>` for slots
/// 0..kSlots-1 plus a `base.overflow` member that absorbs out-of-range
/// labels (so a hostile label value can never index out of bounds). The
/// dimension is deliberately tiny and fixed -- tenant slots, not user ids.
/// add()/record() forward to the member after a branchless bounds check,
/// so a counter add stays ONE relaxed atomic add; keep histogram records
/// off per-item hot paths (the service records them in its serial stats
/// fold, not inside workers). Members are registered metrics and
/// therefore leak (the registry requires static storage).
template <typename M>
class MetricFamily {
 public:
  static constexpr int kSlots = 8;

  /// `base` must outlive the family (string literal in practice).
  explicit MetricFamily(const char* base);

  void add(int slot, std::uint64_t n = 1) { member(slot).add(n); }
  void record(int slot, std::uint64_t v) { member(slot).record(v); }
  M& member(int slot) {
    return *members_[static_cast<std::size_t>(index(slot))];
  }
  const M& member(int slot) const {
    return *members_[static_cast<std::size_t>(index(slot))];
  }

 private:
  static int index(int slot) {
    return (slot >= 0 && slot < kSlots) ? slot : kSlots;
  }
  std::array<M*, kSlots + 1> members_{};
};
using CounterFamily = MetricFamily<Counter>;
using HistogramFamily = MetricFamily<Histogram>;

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  struct HistogramBucket {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint64_t count = 0;
  };
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;                  // kCounter
    std::int64_t gauge = 0;                     // kGauge
    std::uint64_t count = 0;                    // kHistogram
    std::uint64_t sum = 0;                      // kHistogram
    std::vector<HistogramBucket> buckets;       // kHistogram, nonzero only
  };
  std::vector<Entry> entries;

  const Entry* find(const std::string& name) const;
  /// Counter value by name, 0 when absent.
  std::uint64_t counter_value(const std::string& name) const;
  /// Nearest-rank percentile (upper bucket bound, log2_buckets_percentile
  /// contract) of a snapshotted histogram; 0 when the metric is absent,
  /// not a histogram, or empty.
  std::uint64_t histogram_percentile(const std::string& name,
                                     double pct) const;
  /// {"counters":{...},"gauges":{...},"histograms":{...}} -- the object the
  /// benches embed under the top-level "telemetry" key of their
  /// google-benchmark-style report.
  std::string to_json() const;
};

/// Snapshot of the registry plus synthesized ring-accounting counters:
/// `telemetry.spans.dropped` / `telemetry.events.dropped` totals and a
/// `telemetry.spans.dropped.<thread>` / `telemetry.events.dropped.<thread>`
/// counter per thread ring that has dropped at least one record, so silent
/// loss under overload is visible in every metrics export.
MetricsSnapshot snapshot();
/// Zero every registered counter/gauge/histogram (tests and benches only;
/// concurrent adds during a reset may survive it).
void reset_all_metrics();

// --- Trace spans -------------------------------------------------------

/// Nanoseconds since the process trace epoch (first telemetry use).
std::uint64_t trace_now_ns();

/// Deterministic name for the calling thread in exported traces. The pool
/// calls this with "worker-<i>"; init_threads_from_cli names the CLI
/// thread "main". Unnamed threads appear as "thread-<registration order>".
void set_thread_name(const char* name);

/// Record one complete span on the calling thread's ring buffer. `name`
/// must be a string literal (stored by pointer). A non-null `arg_key`
/// (also a string literal) attaches one numeric chrome-trace argument
/// (`"args": {"<key>": v}`); the service uses it to stamp every
/// request-scoped span with its submission seq.
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, const char* arg_key = nullptr,
                 std::uint64_t arg_value = 0);

/// RAII span: records [construction, destruction) via record_span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* arg_key = nullptr,
                      std::uint64_t arg_value = 0)
      : name_(name),
        arg_key_(arg_key),
        arg_value_(arg_value),
        start_ns_(trace_now_ns()) {}
  ~ScopedSpan() {
    record_span(name_, start_ns_, trace_now_ns() - start_ns_, arg_key_,
                arg_value_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* arg_key_;
  std::uint64_t arg_value_;
  std::uint64_t start_ns_;
};

/// Spans dropped because a thread's ring buffer was full.
std::uint64_t dropped_span_count();

/// Clear every thread's span buffer (start a fresh trace epoch). Only call
/// while no parallel region is in flight.
void reset_trace();

/// chrome://tracing / Perfetto "trace_event" JSON: thread-name metadata
/// events (sorted deterministically: main, then worker-<i> by index, then
/// everything else by name), one "X" event per recorded span, and one "C"
/// counter-sample event per registered counter/gauge at export time.
std::string chrome_trace_json();

/// Write chrome_trace_json() (or snapshot().to_json()) to `path`.
/// Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);
bool write_metrics_json(const std::string& path);

// --- Security flight recorder (structured audit events) ----------------
//
// Typed, request-attributed audit records for security-relevant
// occurrences in the enclave service path. Events live in a second
// instance of the span ring type: per-thread append-only buffers,
// drop-on-full (never wrap), release-published count, and the same
// compile-time kill switch -- an OFF build contains no event code at all.

/// What happened. Kept to one byte; the per-kind meaning of `code` and
/// `value` is documented on each enumerator (and mirrored by obs_report).
enum class EventKind : std::uint8_t {
  /// A request reached a terminal status (emitted exactly once per
  /// request, including rejected ones). code = (op_kind << 4) | status
  /// using the service's RequestKind/Status enum values; value = executed
  /// steps (0 for non-run ops and rejections).
  kRequestDone = 0,
  /// TDM admission shed. code: 0 = no wheel slot in window, 1 = pending
  /// queue cap; value = wheel slots scanned before giving up.
  kTdmShed = 1,
  /// PMP access fault at enclave runtime. code: 0 = load, 1 = store,
  /// 2 = instruction fetch; value = faulting address (mtval).
  kPmpFault = 2,
  /// Illegal instruction trap; value = the raw instruction word.
  kIllegalInsn = 3,
  /// Misaligned fetch trap; value = the misaligned target pc.
  kMisalignedFetch = 4,
  /// Enclave ran to its step budget without exiting; value = steps.
  kStepLimit = 5,
  /// seal()/unseal() rejected a blob. code: 0 = malformed blob,
  /// 1 = authentication failure (wrong key, tampered ciphertext, or
  /// measurement-AAD mismatch); value = blob size in bytes.
  kSealReject = 6,
  /// Local attestation token failed verification. code: 0 = malformed
  /// token, 1 = MAC/measurement mismatch; value = the token's claimed
  /// target enclave id.
  kMeasurementMismatch = 7,
  /// CoW fork materialized private pages while serving a request;
  /// value = pages materialized (page count, not bytes).
  kCowBurst = 8,
};
inline constexpr int kEventKindCount = 9;

/// Stable lower_snake_case name of a kind (JSONL `"kind"` field).
const char* event_kind_name(EventKind kind);

/// One fixed-size flight-recorder record. 32 bytes so a ring slot is two
/// cache-line quarters and a full ring stays cheap to copy out.
struct Event {
  std::uint64_t t_ns = 0;    // trace_now_ns() at record time
  std::uint64_t seq = 0;     // RequestContext::seq
  std::uint64_t value = 0;   // kind-specific payload (see EventKind)
  std::uint32_t fork_id = 0; // RequestContext::fork_id
  std::uint8_t tenant = 0;   // RequestContext::tenant
  std::uint8_t enclave = 0;  // RequestContext::enclave
  std::uint8_t kind = 0;     // EventKind
  std::uint8_t code = 0;     // kind-specific discriminator (see EventKind)
};
static_assert(sizeof(Event) == 32, "flight-recorder records are 32 bytes");

/// Append one event to the calling thread's event ring (drop-on-full).
void record_event(EventKind kind, const RequestContext& ctx,
                  std::uint8_t code, std::uint64_t value);

/// Every published event across all thread rings, in deterministic thread
/// order (main, worker-<i>, others) and ring order within a thread.
/// Cross-thread interleaving is NOT temporal; sort by t_ns if needed.
std::vector<Event> collect_events();

/// Events dropped because a thread's event ring was full.
std::uint64_t dropped_event_count();

/// Clear every thread's event ring (and drop counts). Only call while no
/// parallel region is in flight.
void reset_events();

/// Aggregate recorded/dropped totals and a per-kind breakdown -- the
/// object benches embed under the top-level "events" key of their report.
struct EventLogStats {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::array<std::uint64_t, kEventKindCount> by_kind{};

  std::string to_json() const;
};
EventLogStats event_log_stats();

/// JSONL export: one `{"t_ns":..,"kind":"..","tenant":..,"seq":..,
/// "fork":..,"enclave":..,"code":..,"value":..}` object per line, in
/// collect_events() order. Empty string when no events were recorded.
std::string events_jsonl();
bool write_events_jsonl(const std::string& path);

}  // namespace convolve::telemetry

// Statement/declaration that only exists in telemetry-enabled builds.
#define CONVOLVE_TELEMETRY_ONLY(...) __VA_ARGS__
#define CONVOLVE_COUNTER_ADD(counter, ...) (counter).add(__VA_ARGS__)
#define CONVOLVE_GAUGE_SET(gauge, v) (gauge).set(v)
#define CONVOLVE_HISTOGRAM_RECORD(hist, v) (hist).record(v)

#define CONVOLVE_TELEMETRY_CONCAT_(a, b) a##b
#define CONVOLVE_TELEMETRY_CONCAT(a, b) CONVOLVE_TELEMETRY_CONCAT_(a, b)
/// Scoped trace span covering the rest of the enclosing block.
#define CONVOLVE_TRACE_SPAN(name_literal)                        \
  const ::convolve::telemetry::ScopedSpan CONVOLVE_TELEMETRY_CONCAT( \
      convolve_trace_span_, __LINE__) {                          \
    name_literal                                                 \
  }
/// Scoped span with one numeric chrome-trace arg, e.g.
/// CONVOLVE_TRACE_SPAN_ARG("service.execute", "seq", item.seq).
#define CONVOLVE_TRACE_SPAN_ARG(name_literal, key_literal, value)    \
  const ::convolve::telemetry::ScopedSpan CONVOLVE_TELEMETRY_CONCAT( \
      convolve_trace_span_, __LINE__) {                              \
    name_literal, key_literal,                                       \
        static_cast<std::uint64_t>(value)                            \
  }
/// Flight-recorder event: kind is a bare EventKind enumerator name.
/// Arguments are NOT evaluated in OFF builds.
#define CONVOLVE_RECORD_EVENT(kind, ctx, code, value)             \
  ::convolve::telemetry::record_event(                            \
      ::convolve::telemetry::EventKind::kind, (ctx),              \
      static_cast<std::uint8_t>(code), static_cast<std::uint64_t>(value))

#else  // !CONVOLVE_TELEMETRY_ENABLED

// Kill switch: every macro vanishes. No convolve::telemetry namespace is
// declared at all, so an OFF build cannot even accidentally reference a
// telemetry symbol (pinned by the no-symbol check in telemetry_off_smoke).
#define CONVOLVE_TELEMETRY_ONLY(...)
#define CONVOLVE_COUNTER_ADD(counter, ...) ((void)0)
#define CONVOLVE_GAUGE_SET(gauge, v) ((void)0)
#define CONVOLVE_HISTOGRAM_RECORD(hist, v) ((void)0)
#define CONVOLVE_TRACE_SPAN(name_literal) ((void)0)
#define CONVOLVE_TRACE_SPAN_ARG(name_literal, key_literal, value) ((void)0)
#define CONVOLVE_RECORD_EVENT(kind, ctx, code, value) ((void)0)

#endif  // CONVOLVE_TELEMETRY_ENABLED
