#include "convolve/common/obs_report.hpp"

#include <algorithm>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "convolve/common/json.hpp"
#include "convolve/common/stats.hpp"

namespace convolve::obs {

namespace {

// The one conversion of a JSON number to a count, seq, id or bucket bound:
// a finite value in [0, 2^64) converts; anything else (negative, non-finite
// like a parsed 1e999, or >= 2^64) is nullopt, so the caller skips and
// notes the line or bucket instead of casting out of range.
std::optional<std::uint64_t> to_u64(const json::JsonValue& v) {
  constexpr double kTwo64 = 18446744073709551616.0;
  if (!v.is_number() || !(v.number >= 0 && v.number < kTwo64)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v.number);
}

// An optional field: absent reads as 0, present must pass to_u64.
std::optional<std::uint64_t> field_u64(const json::JsonValue& obj,
                                       const char* key) {
  const json::JsonValue* v = obj.find(key);
  return v ? to_u64(*v) : 0;
}

int fault_kind_index(const std::string& kind) {
  for (std::size_t i = 0; i < kFaultKinds.size(); ++i) {
    if (kind == kFaultKinds[i]) return static_cast<int>(i);
  }
  return -1;
}

// Fold an exported histogram's sparse [lo, hi, count] triples back into
// dense log2 buckets. Keyed by lo: it is 0 or an exact power of two, so
// its double round trip is lossless (unlike hi, whose 2^64 - 1 is not
// representable as a double). Triples that are not three valid numbers
// are skipped and counted in `bad_buckets`.
bool load_hist(const json::JsonValue& histograms, const std::string& name,
               Log2Histogram& out, std::size_t& bad_buckets) {
  const json::JsonValue* h = histograms.find(name);
  if (!h || !h->is_object()) return false;
  const json::JsonValue* buckets = h->find("buckets");
  if (!buckets || !buckets->is_array()) return false;
  for (const json::JsonValue& triple : buckets->arr) {
    const bool shaped = triple.is_array() && triple.arr.size() == 3;
    const auto lo = shaped ? to_u64(triple.arr[0]) : std::nullopt;
    const auto c = shaped ? to_u64(triple.arr[2]) : std::nullopt;
    if (!lo || !c) {
      ++bad_buckets;
      continue;
    }
    out.record(*lo, *c);
  }
  return true;
}

}  // namespace

const char* status_name(int status) {
  switch (status) {
    case 0: return "ok";
    case 1: return "rejected";
    case 2: return "trap";
    case 3: return "step_limit";
    case 4: return "error";
  }
  return "unknown";
}

const char* op_name(int op) {
  switch (op) {
    case 0: return "run";
    case 1: return "attest";
    case 2: return "seal";
    case 3: return "unseal";
  }
  return "unknown";
}

Report build_report(std::string_view events_jsonl,
                    std::string_view metrics_json,
                    std::string_view trace_json, double z_threshold) {
  Report report;
  report.z_threshold = z_threshold;
  std::map<int, TenantReport> tenants;
  std::map<std::uint64_t, int> seq_tenant;  // executed request seq -> tenant

  // --- 1. Event log: attribution source of truth --------------------
  std::size_t bad_lines = 0;
  std::size_t start = 0;
  while (start < events_jsonl.size()) {
    std::size_t end = events_jsonl.find('\n', start);
    if (end == std::string_view::npos) end = events_jsonl.size();
    std::string_view line = events_jsonl.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    json::JsonValue ev;
    try {
      ev = json::parse(line);
    } catch (const json::JsonParseError&) {
      ++bad_lines;
      continue;
    }
    const json::JsonValue* kind_v = ev.find("kind");
    if (!kind_v || !kind_v->is_string()) {
      ++bad_lines;
      continue;
    }
    const std::string& kind = kind_v->str;
    const auto tenant_v = field_u64(ev, "tenant");
    const auto seq_v = field_u64(ev, "seq");
    const auto code_v = field_u64(ev, "code");
    const auto value_v = field_u64(ev, "value");
    if (!tenant_v || !seq_v || !code_v || !value_v ||
        *tenant_v > static_cast<std::uint64_t>(INT_MAX)) {
      ++bad_lines;
      continue;
    }
    const int tenant = static_cast<int>(*tenant_v);
    const std::uint64_t seq = *seq_v;
    const std::uint64_t code = *code_v;
    const std::uint64_t value = *value_v;

    ++report.events;
    TenantReport& t = tenants[tenant];
    t.tenant = tenant;

    if (kind == "request_done") {
      const int status = static_cast<int>(code & 0x0f);
      const int op = static_cast<int>((code >> 4) & 0x0f);
      ++t.requests;
      ++report.requests;
      if (status < kStatusCount) {
        ++t.by_status[static_cast<std::size_t>(status)];
        ++report.by_status[static_cast<std::size_t>(status)];
      }
      if (op < kOpCount) ++t.by_op[static_cast<std::size_t>(op)];
      // Rejected requests never execute, so they never produce a
      // service.execute span; only map executed seqs for the trace join.
      if (status != 1) seq_tenant[seq] = tenant;
    } else if (kind == "tdm_shed") {
      ++t.sheds;
    } else if (kind == "cow_burst") {
      t.cow_pages += value;
    } else {
      const int f = fault_kind_index(kind);
      if (f >= 0) {
        ++t.fault_by_kind[static_cast<std::size_t>(f)];
        ++t.fault_events;
      }
    }
  }
  if (bad_lines > 0) {
    report.notes.push_back(std::to_string(bad_lines) +
                           " malformed event line(s) skipped");
  }
  if (report.events == 0) {
    report.notes.push_back(
        "no events (empty log, or a telemetry-OFF build's stub export)");
  }

  // --- 2. Metrics snapshot: latency distributions + ring health ------
  if (!metrics_json.empty()) {
    try {
      const json::JsonValue metrics = json::parse(metrics_json);
      if (const json::JsonValue* counters = metrics.find("counters")) {
        for (auto [key, out] :
             {std::pair{"telemetry.events.dropped", &report.events_dropped},
              std::pair{"telemetry.spans.dropped", &report.spans_dropped}}) {
          if (const auto n = field_u64(*counters, key)) {
            *out = *n;
          } else {
            report.notes.push_back(std::string("metrics counter ") + key +
                                   " is not a count; ignored");
          }
        }
      }
      if (const json::JsonValue* hists = metrics.find("histograms")) {
        std::size_t bad_buckets = 0;
        Log2Histogram global;
        if (load_hist(*hists, "service.latency_ns", global, bad_buckets)) {
          report.latency_count = global.count;
          report.p50_ns = global.percentile(50);
          report.p99_ns = global.percentile(99);
        }
        for (auto& [id, t] : tenants) {
          Log2Histogram h;
          if (load_hist(*hists,
                        "service.tenant.latency_ns." + std::to_string(id), h,
                        bad_buckets) &&
              h.count > 0) {
            t.latency_count = h.count;
            t.p50_ns = h.percentile(50);
            t.p99_ns = h.percentile(99);
          }
        }
        if (bad_buckets > 0) {
          report.notes.push_back(std::to_string(bad_buckets) +
                                 " malformed histogram bucket(s) skipped");
        }
      }
    } catch (const json::JsonParseError& e) {
      report.notes.push_back(std::string("metrics snapshot unparseable: ") +
                             e.what());
    }
  }
  if (report.events_dropped > 0) {
    report.notes.push_back("event ring overflowed: " +
                           std::to_string(report.events_dropped) +
                           " event(s) lost (report undercounts)");
  }

  // --- 3. Trace: corroborate attribution via span seq args -----------
  if (!trace_json.empty()) {
    try {
      const json::JsonValue trace = json::parse(trace_json);
      if (const json::JsonValue* evs = trace.find("traceEvents")) {
        for (const json::JsonValue& ev : evs->arr) {
          const json::JsonValue* name = ev.find("name");
          const json::JsonValue* ph = ev.find("ph");
          if (!name || !ph || ph->str != "X" ||
              name->str != "service.execute") {
            continue;
          }
          const json::JsonValue* args = ev.find("args");
          const json::JsonValue* seq_v = args ? args->find("seq") : nullptr;
          const auto seq = seq_v ? to_u64(*seq_v) : std::nullopt;
          const auto it = seq ? seq_tenant.find(*seq) : seq_tenant.end();
          if (it == seq_tenant.end()) {
            ++report.spans_unmatched;
            continue;
          }
          ++tenants[it->second].spans;
          ++report.spans_joined;
        }
      }
    } catch (const json::JsonParseError& e) {
      report.notes.push_back(std::string("trace unparseable: ") + e.what());
    }
    if (report.spans_unmatched > 0) {
      report.notes.push_back(
          std::to_string(report.spans_unmatched) +
          " service.execute span(s) not attributable to a request");
    }
  }

  // --- 4. Outlier analysis across the tenant population --------------
  report.tenants.reserve(tenants.size());
  for (auto& [id, t] : tenants) {
    if (t.requests > 0) {
      t.shed_rate =
          static_cast<double>(t.sheds) / static_cast<double>(t.requests);
      t.fault_rate = static_cast<double>(t.fault_events) /
                     static_cast<double>(t.requests);
    }
    report.tenants.push_back(std::move(t));
  }
  if (report.tenants.size() >= 2) {
    std::vector<double> sheds, faults;
    sheds.reserve(report.tenants.size());
    faults.reserve(report.tenants.size());
    for (const TenantReport& t : report.tenants) {
      sheds.push_back(t.shed_rate);
      faults.push_back(t.fault_rate);
    }
    const double shed_mu = mean(sheds), shed_sd = stddev(sheds);
    const double fault_mu = mean(faults), fault_sd = stddev(faults);
    for (TenantReport& t : report.tenants) {
      if (shed_sd > 0) t.z_shed = (t.shed_rate - shed_mu) / shed_sd;
      if (fault_sd > 0) t.z_fault = (t.fault_rate - fault_mu) / fault_sd;
      // One-sided: only ABOVE-average rates indict a tenant.
      t.outlier = t.z_shed > z_threshold || t.z_fault > z_threshold;
      report.has_outliers = report.has_outliers || t.outlier;
    }
  }
  return report;
}

namespace {

void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string to_text(const Report& report) {
  std::string out;
  append_fmt(out, "obs_report: %llu events, %llu requests\n",
             static_cast<unsigned long long>(report.events),
             static_cast<unsigned long long>(report.requests));
  append_fmt(out, "global: ");
  for (int s = 0; s < kStatusCount; ++s) {
    append_fmt(out, "%s=%llu ", status_name(s),
               static_cast<unsigned long long>(
                   report.by_status[static_cast<std::size_t>(s)]));
  }
  append_fmt(out, "| p50=%llu ns p99=%llu ns (n=%llu)\n",
             static_cast<unsigned long long>(report.p50_ns),
             static_cast<unsigned long long>(report.p99_ns),
             static_cast<unsigned long long>(report.latency_count));
  append_fmt(out,
             "rings: events_dropped=%llu spans_dropped=%llu | trace join: "
             "%llu matched, %llu unmatched\n",
             static_cast<unsigned long long>(report.events_dropped),
             static_cast<unsigned long long>(report.spans_dropped),
             static_cast<unsigned long long>(report.spans_joined),
             static_cast<unsigned long long>(report.spans_unmatched));
  for (const TenantReport& t : report.tenants) {
    append_fmt(out,
               "tenant %d: req=%llu ok=%llu rejected=%llu trap=%llu "
               "step_limit=%llu error=%llu",
               t.tenant, static_cast<unsigned long long>(t.requests),
               static_cast<unsigned long long>(t.by_status[0]),
               static_cast<unsigned long long>(t.by_status[1]),
               static_cast<unsigned long long>(t.by_status[2]),
               static_cast<unsigned long long>(t.by_status[3]),
               static_cast<unsigned long long>(t.by_status[4]));
    append_fmt(out, " | ops run/attest/seal/unseal=%llu/%llu/%llu/%llu",
               static_cast<unsigned long long>(t.by_op[0]),
               static_cast<unsigned long long>(t.by_op[1]),
               static_cast<unsigned long long>(t.by_op[2]),
               static_cast<unsigned long long>(t.by_op[3]));
    append_fmt(out, " | p50=%llu p99=%llu ns",
               static_cast<unsigned long long>(t.p50_ns),
               static_cast<unsigned long long>(t.p99_ns));
    append_fmt(out, " | shed_rate=%.3f fault_rate=%.3f", t.shed_rate,
               t.fault_rate);
    if (t.fault_events > 0) {
      out += " | faults:";
      for (std::size_t f = 0; f < kFaultKinds.size(); ++f) {
        if (t.fault_by_kind[f] == 0) continue;
        append_fmt(out, " %s=%llu", kFaultKinds[f],
                   static_cast<unsigned long long>(t.fault_by_kind[f]));
      }
    }
    if (t.cow_pages > 0) {
      append_fmt(out, " | cow_pages=%llu",
                 static_cast<unsigned long long>(t.cow_pages));
    }
    if (t.outlier) {
      append_fmt(out, "  << OUTLIER (z_shed=%.2f z_fault=%.2f > %.2f)",
                 t.z_shed, t.z_fault, report.z_threshold);
    }
    out += '\n';
  }
  for (const std::string& note : report.notes) {
    out += "note: " + note + "\n";
  }
  return out;
}

std::string to_json(const Report& report) {
  std::string out = "{\"events\": " + std::to_string(report.events) +
                    ", \"requests\": " + std::to_string(report.requests) +
                    ", \"by_status\": {";
  for (int s = 0; s < kStatusCount; ++s) {
    if (s) out += ", ";
    out += std::string("\"") + status_name(s) + "\": " +
           std::to_string(report.by_status[static_cast<std::size_t>(s)]);
  }
  out += "}, \"p50_ns\": " + std::to_string(report.p50_ns) +
         ", \"p99_ns\": " + std::to_string(report.p99_ns) +
         ", \"latency_count\": " + std::to_string(report.latency_count) +
         ", \"events_dropped\": " + std::to_string(report.events_dropped) +
         ", \"spans_dropped\": " + std::to_string(report.spans_dropped) +
         ", \"spans_joined\": " + std::to_string(report.spans_joined) +
         ", \"spans_unmatched\": " + std::to_string(report.spans_unmatched) +
         ", \"z_threshold\": " + std::to_string(report.z_threshold) +
         ", \"has_outliers\": " +
         (report.has_outliers ? "true" : "false") + ", \"tenants\": [";
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    const TenantReport& t = report.tenants[i];
    if (i) out += ", ";
    out += "{\"tenant\": " + std::to_string(t.tenant) +
           ", \"requests\": " + std::to_string(t.requests) +
           ", \"by_status\": {";
    for (int s = 0; s < kStatusCount; ++s) {
      if (s) out += ", ";
      out += std::string("\"") + status_name(s) + "\": " +
             std::to_string(t.by_status[static_cast<std::size_t>(s)]);
    }
    out += "}, \"by_op\": {";
    for (int o = 0; o < kOpCount; ++o) {
      if (o) out += ", ";
      out += std::string("\"") + op_name(o) + "\": " +
             std::to_string(t.by_op[static_cast<std::size_t>(o)]);
    }
    out += "}, \"faults\": {";
    bool first = true;
    for (std::size_t f = 0; f < kFaultKinds.size(); ++f) {
      if (t.fault_by_kind[f] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += std::string("\"") + kFaultKinds[f] + "\": " +
             std::to_string(t.fault_by_kind[f]);
    }
    out += "}, \"sheds\": " + std::to_string(t.sheds) +
           ", \"cow_pages\": " + std::to_string(t.cow_pages) +
           ", \"p50_ns\": " + std::to_string(t.p50_ns) +
           ", \"p99_ns\": " + std::to_string(t.p99_ns) +
           ", \"latency_count\": " + std::to_string(t.latency_count) +
           ", \"spans\": " + std::to_string(t.spans) +
           ", \"shed_rate\": " + std::to_string(t.shed_rate) +
           ", \"fault_rate\": " + std::to_string(t.fault_rate) +
           ", \"z_shed\": " + std::to_string(t.z_shed) +
           ", \"z_fault\": " + std::to_string(t.z_fault) +
           ", \"outlier\": " + (t.outlier ? "true" : "false") + "}";
  }
  out += "], \"notes\": [";
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    if (i) out += ", ";
    out += "\"";
    for (char c : report.notes[i]) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
  }
  out += "]}";
  return out;
}

}  // namespace convolve::obs
