#include "convolve/common/telemetry.hpp"

#if CONVOLVE_TELEMETRY_ENABLED

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

namespace convolve::telemetry {

namespace {

// Registry head. A function-local static would be tidier but metrics may be
// constructed during static initialization of other TUs, so the head must be
// constant-initialized (no dynamic-init ordering hazard).
constinit std::atomic<Metric*> g_registry_head{nullptr};

// --- per-thread record rings ------------------------------------------

struct SpanEvent {
  const char* name;        // string literal, stored by pointer
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  const char* arg_key;     // string literal or nullptr (no arg)
  std::uint64_t arg_value;
};

// Append-only record ring with a fixed capacity per epoch: a full ring
// drops (and counts) new records instead of wrapping. The owning thread
// appends and publishes via release on the count; an exporter acquires
// the count and copies only the prefix, which is immutable once published.
// reset() starts a new epoch and must not race an append.
template <typename Record>
struct Ring {
  static constexpr std::uint32_t kCapacity = 16384;

  std::atomic<std::uint32_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  std::array<Record, kCapacity> records;

  void append(const Record& r) {
    const std::uint32_t n = count.load(std::memory_order_relaxed);
    if (n >= kCapacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    records[n] = r;
    count.store(n + 1, std::memory_order_release);
  }
  std::vector<Record> published() const {
    return {records.begin(),
            records.begin() + count.load(std::memory_order_acquire)};
  }
  void reset() {
    count.store(0, std::memory_order_release);
    dropped.store(0, std::memory_order_relaxed);
  }
};

// One per thread that ever records a span, an audit event, or a name:
// one ring per record type, so one thread_local lookup serves both record
// paths. Heap-allocated and owned by the global registry below, so the
// rings outlive their thread and the exporter can read them after the
// thread exits.
struct ThreadTrace {
  char name[32] = {0};
  Ring<SpanEvent> spans;
  Ring<Event> events;
};

struct TraceRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadTrace>> threads;
};

TraceRegistry& trace_registry() {
  // Leaked on purpose: pool workers are detached, so a late-spawned
  // worker can still be registering its ring while the main thread runs
  // atexit destructors. The dtor would only free memory the OS reclaims
  // anyway, and skipping it removes that shutdown race (seen by TSan).
  static TraceRegistry* reg = new TraceRegistry;
  return *reg;
}

ThreadTrace& this_thread_trace() {
  thread_local ThreadTrace* t = [] {
    auto owned = std::make_unique<ThreadTrace>();
    ThreadTrace* raw = owned.get();
    TraceRegistry& reg = trace_registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::snprintf(raw->name, sizeof(raw->name), "thread-%zu",
                  reg.threads.size());
    reg.threads.push_back(std::move(owned));
    return raw;
  }();
  return *t;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// --- JSON helpers ------------------------------------------------------

void append_json_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Sort key for deterministic thread ids in exports: main first, then
// worker-<i> by index, then other names lexicographically.
struct ThreadSortKey {
  int group;   // 0 = main, 1 = worker-N, 2 = other
  long index;  // worker index within group 1
  std::string name;

  static ThreadSortKey of(const char* name) {
    ThreadSortKey k{2, 0, name};
    if (k.name == "main") {
      k.group = 0;
    } else if (k.name.rfind("worker-", 0) == 0) {
      char* end = nullptr;
      long idx = std::strtol(name + 7, &end, 10);
      if (end && *end == '\0') {
        k.group = 1;
        k.index = idx;
      }
    }
    return k;
  }
  bool operator<(const ThreadSortKey& o) const {
    if (group != o.group) return group < o.group;
    if (index != o.index) return index < o.index;
    return name < o.name;
  }
};

// The rest of this file names a ring kind by its ThreadTrace member.
template <typename Record>
using RingMember = Ring<Record> ThreadTrace::*;

// fn(thread_name, ring) for one ring kind of every thread, under the
// registry lock (so names cannot tear against set_thread_name).
template <typename Record, typename Fn>
void for_each_ring(RingMember<Record> member, Fn&& fn) {
  TraceRegistry& reg = trace_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& t : reg.threads) fn(t->name, (*t).*member);
}

template <typename Record>
void reset_rings(RingMember<Record> member) {
  for_each_ring(member, [](const char*, Ring<Record>& r) { r.reset(); });
}

// One ring kind's drops: the total and each thread that dropped any.
struct RingDrops {
  std::uint64_t total = 0;
  std::vector<std::pair<std::string, std::uint64_t>> by_thread;
};

template <typename Record>
RingDrops ring_drops(RingMember<Record> member) {
  RingDrops d;
  for_each_ring(member, [&d](const char* thread, const Ring<Record>& r) {
    const std::uint64_t n = r.dropped.load(std::memory_order_relaxed);
    d.total += n;
    if (n != 0) d.by_thread.emplace_back(thread, n);
  });
  return d;
}

// Every thread's published records of one ring kind, in the deterministic
// export order (ThreadSortKey) so exports are stable across runs.
template <typename Record>
struct ThreadRecords {
  std::string thread;
  std::vector<Record> records;
};

template <typename Record>
std::vector<ThreadRecords<Record>> copy_rings(RingMember<Record> member) {
  std::vector<ThreadRecords<Record>> out;
  for_each_ring(member, [&out](const char* thread, const Ring<Record>& r) {
    out.push_back({thread, r.published()});
  });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return ThreadSortKey::of(a.thread.c_str()) <
           ThreadSortKey::of(b.thread.c_str());
  });
  return out;
}

}  // namespace

Metric::Metric(const char* name, MetricKind kind) : name_(name), kind_(kind) {
  Metric* head = g_registry_head.load(std::memory_order_relaxed);
  do {
    next_ = head;
  } while (!g_registry_head.compare_exchange_weak(
      head, this, std::memory_order_release, std::memory_order_relaxed));
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

namespace {

// Registered metrics must have static storage, so family members (and
// their composed names) are allocated once and never freed -- tell
// LeakSanitizer the leak is the design, not a bug.
#if defined(__SANITIZE_ADDRESS__)
#define CONVOLVE_FAMILY_LEAK_OK 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CONVOLVE_FAMILY_LEAK_OK 1
#endif
#endif
#if defined(CONVOLVE_FAMILY_LEAK_OK)
#include <sanitizer/lsan_interface.h>
template <typename T>
T* adopt_leak(T* p) {
  __lsan_ignore_object(p);
  return p;
}
#else
template <typename T>
T* adopt_leak(T* p) {
  return p;
}
#endif

const char* leak_member_name(const char* base, int slot) {
  std::string* s = adopt_leak(new std::string(base));
  s->push_back('.');
  if (slot < 0) {
    s->append("overflow");
  } else {
    s->append(std::to_string(slot));
  }
  return s->c_str();
}
}  // namespace

template <typename M>
MetricFamily<M>::MetricFamily(const char* base) {
  for (int i = 0; i <= kSlots; ++i) {
    members_[static_cast<std::size_t>(i)] =
        adopt_leak(new M(leak_member_name(base, i < kSlots ? i : -1)));
  }
}
template MetricFamily<Counter>::MetricFamily(const char*);
template MetricFamily<Histogram>::MetricFamily(const char*);

const MetricsSnapshot::Entry* MetricsSnapshot::find(
    const std::string& name) const {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  const Entry* e = find(name);
  return (e && e->kind == MetricKind::kCounter) ? e->counter : 0;
}

std::uint64_t MetricsSnapshot::histogram_percentile(const std::string& name,
                                                    double pct) const {
  const Entry* e = find(name);
  if (!e || e->kind != MetricKind::kHistogram) return 0;
  Log2Histogram h;
  for (const HistogramBucket& b : e->buckets) h.record(b.lo, b.count);
  return h.percentile(pct);
}

MetricsSnapshot snapshot() {
  MetricsSnapshot snap;
  for (Metric* m = g_registry_head.load(std::memory_order_acquire); m;
       m = m->registry_next()) {
    MetricsSnapshot::Entry e;
    e.name = m->name();
    e.kind = m->kind();
    switch (m->kind()) {
      case MetricKind::kCounter:
        e.counter = static_cast<Counter*>(m)->value();
        break;
      case MetricKind::kGauge:
        e.gauge = static_cast<Gauge*>(m)->value();
        break;
      case MetricKind::kHistogram: {
        auto* h = static_cast<Histogram*>(m);
        e.count = h->count();
        e.sum = h->sum();
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          std::uint64_t c = h->bucket(b);
          if (c != 0) {
            e.buckets.push_back({Histogram::bucket_lo(b),
                                 Histogram::bucket_hi(b), c});
          }
        }
        break;
      }
    }
    snap.entries.push_back(std::move(e));
  }
  // Synthesized ring-accounting counters: totals always, plus one entry
  // per thread ring that actually dropped (thread names are deterministic,
  // so overloaded rings are attributable run-over-run).
  const auto add_counter = [&snap](std::string name, std::uint64_t v) {
    MetricsSnapshot::Entry& e = snap.entries.emplace_back();
    e.name = std::move(name);
    e.kind = MetricKind::kCounter;
    e.counter = v;
  };
  for (const auto& [base, drops] :
       {std::pair{"telemetry.spans.dropped", ring_drops(&ThreadTrace::spans)},
        std::pair{"telemetry.events.dropped",
                  ring_drops(&ThreadTrace::events)}}) {
    for (const auto& [thread, n] : drops.by_thread) {
      add_counter(std::string(base) + "." + thread, n);
    }
    add_counter(base, drops.total);
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

void reset_all_metrics() {
  for (Metric* m = g_registry_head.load(std::memory_order_acquire); m;
       m = m->registry_next()) {
    switch (m->kind()) {
      case MetricKind::kCounter: static_cast<Counter*>(m)->reset(); break;
      case MetricKind::kGauge: static_cast<Gauge*>(m)->reset(); break;
      case MetricKind::kHistogram: static_cast<Histogram*>(m)->reset(); break;
    }
  }
}

std::string MetricsSnapshot::to_json() const {
  // One {"<name>": <value>, ...} section per metric kind, in entry order.
  std::string out;
  const auto section = [&](const char* open, MetricKind kind,
                           const auto& value) {
    out += open;
    bool first = true;
    for (const Entry& e : entries) {
      if (e.kind != kind) continue;
      out += first ? "\"" : ", \"";
      first = false;
      append_json_escaped(out, e.name.c_str());
      out += "\": " + value(e);
    }
  };
  section("{\"counters\": {", MetricKind::kCounter,
          [](const Entry& e) { return std::to_string(e.counter); });
  section("}, \"gauges\": {", MetricKind::kGauge,
          [](const Entry& e) { return std::to_string(e.gauge); });
  section("}, \"histograms\": {", MetricKind::kHistogram,
          [](const Entry& e) {
            std::string h = "{\"count\": " + std::to_string(e.count) +
                            ", \"sum\": " + std::to_string(e.sum) +
                            ", \"buckets\": [";
            for (std::size_t i = 0; i < e.buckets.size(); ++i) {
              if (i) h += ", ";
              h += "[" + std::to_string(e.buckets[i].lo) + ", " +
                   std::to_string(e.buckets[i].hi) + ", " +
                   std::to_string(e.buckets[i].count) + "]";
            }
            return h + "]}";
          });
  return out + "}}";
}

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

void set_thread_name(const char* name) {
  ThreadTrace& t = this_thread_trace();
  TraceRegistry& reg = trace_registry();
  // The exporter reads names under the same lock, so renames can't tear.
  std::lock_guard<std::mutex> lock(reg.mu);
  std::snprintf(t.name, sizeof(t.name), "%s", name);
}

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, const char* arg_key,
                 std::uint64_t arg_value) {
  this_thread_trace().spans.append(
      SpanEvent{name, start_ns, dur_ns, arg_key, arg_value});
}

std::uint64_t dropped_span_count() {
  return ring_drops(&ThreadTrace::spans).total;
}

void reset_trace() { reset_rings(&ThreadTrace::spans); }

std::string chrome_trace_json() {
  const auto threads = copy_rings(&ThreadTrace::spans);

  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    if (!first) out += ",\n";
    first = false;
    out += "  " + ev;
  };
  emit("{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, "
       "\"args\": {\"name\": \"convolve\"}}");
  for (std::size_t tid = 0; tid < threads.size(); ++tid) {
    std::string ev =
        "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": " +
        std::to_string(tid) + ", \"args\": {\"name\": \"";
    append_json_escaped(ev, threads[tid].thread.c_str());
    ev += "\"}}";
    emit(ev);
  }
  char buf[64];
  for (std::size_t tid = 0; tid < threads.size(); ++tid) {
    for (const SpanEvent& s : threads[tid].records) {
      std::string ev = "{\"ph\": \"X\", \"pid\": 1, \"tid\": " +
                       std::to_string(tid) + ", \"name\": \"";
      append_json_escaped(ev, s.name);
      // trace_event ts/dur are microseconds; keep sub-µs precision.
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(s.start_ns) / 1000.0);
      ev += std::string("\", \"ts\": ") + buf;
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(s.dur_ns) / 1000.0);
      ev += std::string(", \"dur\": ") + buf;
      if (s.arg_key) {
        ev += ", \"args\": {\"";
        append_json_escaped(ev, s.arg_key);
        ev += "\": " + std::to_string(s.arg_value) + "}";
      }
      ev += "}";
      emit(ev);
    }
  }
  // One counter sample per counter/gauge at export time, so the trace file
  // is self-contained even without the metrics JSON next to it.
  const std::uint64_t now_us_x1000 = trace_now_ns() / 1000;
  MetricsSnapshot snap = snapshot();
  for (const auto& e : snap.entries) {
    if (e.kind == MetricKind::kHistogram) continue;
    std::string ev = "{\"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"name\": \"";
    append_json_escaped(ev, e.name.c_str());
    ev += "\", \"ts\": " + std::to_string(now_us_x1000) +
          ", \"args\": {\"value\": " +
          (e.kind == MetricKind::kCounter ? std::to_string(e.counter)
                                          : std::to_string(e.gauge)) +
          "}}";
    emit(ev);
  }
  out += "\n]}\n";
  return out;
}

namespace {
bool write_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << body;
  return f.good();
}
}  // namespace

bool write_chrome_trace(const std::string& path) {
  return write_file(path, chrome_trace_json());
}

bool write_metrics_json(const std::string& path) {
  return write_file(path, snapshot().to_json() + "\n");
}

// --- Security flight recorder ------------------------------------------

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kRequestDone: return "request_done";
    case EventKind::kTdmShed: return "tdm_shed";
    case EventKind::kPmpFault: return "pmp_fault";
    case EventKind::kIllegalInsn: return "illegal_instruction";
    case EventKind::kMisalignedFetch: return "misaligned_fetch";
    case EventKind::kStepLimit: return "step_limit";
    case EventKind::kSealReject: return "seal_reject";
    case EventKind::kMeasurementMismatch: return "measurement_mismatch";
    case EventKind::kCowBurst: return "cow_burst";
  }
  return "unknown";
}

void record_event(EventKind kind, const RequestContext& ctx,
                  std::uint8_t code, std::uint64_t value) {
  Event e;
  e.t_ns = trace_now_ns();
  e.seq = ctx.seq;
  e.value = value;
  e.fork_id = ctx.fork_id;
  e.tenant = ctx.tenant;
  e.enclave = ctx.enclave;
  e.kind = static_cast<std::uint8_t>(kind);
  e.code = code;
  this_thread_trace().events.append(e);
}

std::vector<Event> collect_events() {
  std::vector<Event> all;
  for (const auto& t : copy_rings(&ThreadTrace::events)) {
    all.insert(all.end(), t.records.begin(), t.records.end());
  }
  return all;
}

std::uint64_t dropped_event_count() {
  return ring_drops(&ThreadTrace::events).total;
}

void reset_events() { reset_rings(&ThreadTrace::events); }

EventLogStats event_log_stats() {
  EventLogStats stats;
  for (const Event& e : collect_events()) {
    ++stats.recorded;
    if (e.kind < kEventKindCount) {
      ++stats.by_kind[e.kind];
    }
  }
  stats.dropped = dropped_event_count();
  return stats;
}

std::string EventLogStats::to_json() const {
  std::string out = "{\"recorded\": " + std::to_string(recorded) +
                    ", \"dropped\": " + std::to_string(dropped) +
                    ", \"by_kind\": {";
  bool first = true;
  for (int k = 0; k < kEventKindCount; ++k) {
    if (by_kind[static_cast<std::size_t>(k)] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += std::string("\"") +
           event_kind_name(static_cast<EventKind>(k)) + "\": " +
           std::to_string(by_kind[static_cast<std::size_t>(k)]);
  }
  out += "}}";
  return out;
}

std::string events_jsonl() {
  std::string out;
  char line[256];
  for (const Event& e : collect_events()) {
    std::snprintf(line, sizeof(line),
                  "{\"t_ns\": %llu, \"kind\": \"%s\", \"tenant\": %u, "
                  "\"seq\": %llu, \"fork\": %u, \"enclave\": %u, "
                  "\"code\": %u, \"value\": %llu}\n",
                  static_cast<unsigned long long>(e.t_ns),
                  event_kind_name(static_cast<EventKind>(e.kind)),
                  static_cast<unsigned>(e.tenant),
                  static_cast<unsigned long long>(e.seq), e.fork_id,
                  static_cast<unsigned>(e.enclave),
                  static_cast<unsigned>(e.code),
                  static_cast<unsigned long long>(e.value));
    out += line;
  }
  return out;
}

bool write_events_jsonl(const std::string& path) {
  return write_file(path, events_jsonl());
}

}  // namespace convolve::telemetry

#endif  // CONVOLVE_TELEMETRY_ENABLED
