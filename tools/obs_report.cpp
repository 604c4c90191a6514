// Per-tenant observability report for the enclave service: joins the
// flight-recorder event log (--events, JSONL), the metrics snapshot
// (--metrics) and optionally the chrome trace (--trace) produced by a
// service run (bench_enclave_service --events-out/--metrics-out/
// --trace-out) into one report. See common/obs_report.hpp for the join
// semantics; this file is only flag parsing and I/O.
//
// Exit codes: 0 report printed (even when empty), 1 an outlier tenant
// was flagged AND --fail-on-outlier was given, 2 usage or I/O error,
// including an input larger than json::kMaxBytes.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "convolve/common/json.hpp"
#include "convolve/common/obs_report.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --events=FILE --metrics=FILE [--trace=FILE]\n"
      "          [--z-threshold=Z] [--json] [--fail-on-outlier]\n"
      "\n"
      "Joins a service run's event log, metrics snapshot and trace into\n"
      "a per-tenant report (op mix, p50/p99, shed rate, fault taxonomy)\n"
      "and flags tenants whose shed or fault rate sits more than Z\n"
      "standard deviations above the population mean (default Z=3).\n",
      argv0);
  return 2;
}

// False when the file cannot be opened or exceeds json::kMaxBytes.
bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  try {
    out = convolve::json::read_document(f);
  } catch (const convolve::json::JsonParseError& e) {
    std::fprintf(stderr, "obs_report: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string events_path, metrics_path, trace_path;
  double z_threshold = 3.0;
  bool json = false;
  bool fail_on_outlier = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--events=", 0) == 0) {
      events_path = arg.substr(9);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--z-threshold=", 0) == 0) {
      char* end = nullptr;
      z_threshold = std::strtod(arg.c_str() + 14, &end);
      if (end == nullptr || *end != '\0' || z_threshold <= 0.0) {
        std::fprintf(stderr, "obs_report: bad --z-threshold value '%s'\n",
                     arg.c_str() + 14);
        return 2;
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--fail-on-outlier") {
      fail_on_outlier = true;
    } else {
      std::fprintf(stderr, "obs_report: unknown flag '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (events_path.empty() || metrics_path.empty()) return usage(argv[0]);

  std::string events, metrics, trace;
  if (!read_file(events_path, events)) {
    std::fprintf(stderr, "obs_report: cannot read %s\n", events_path.c_str());
    return 2;
  }
  if (!read_file(metrics_path, metrics)) {
    std::fprintf(stderr, "obs_report: cannot read %s\n",
                 metrics_path.c_str());
    return 2;
  }
  if (!trace_path.empty() && !read_file(trace_path, trace)) {
    std::fprintf(stderr, "obs_report: cannot read %s\n", trace_path.c_str());
    return 2;
  }

  const convolve::obs::Report report =
      convolve::obs::build_report(events, metrics, trace, z_threshold);
  std::fputs(
      (json ? convolve::obs::to_json(report) : convolve::obs::to_text(report))
          .c_str(),
      stdout);
  return (fail_on_outlier && report.has_outliers) ? 1 : 0;
}
