// Constant-time lint driver: runs every taint-tracking suite over the
// production crypto templates and prints a verdict per algorithm.
//
// Usage: ct_lint [--strict] [--suppressions=FILE] [suite...]
//   --strict   exit nonzero if any suite records an output mismatch or an
//              unsuppressed hazard. Every suite is enforced; a known hazard
//              must be acknowledged explicitly through the suppression file.
//   --suppressions=FILE  load suppression rules. One rule per line:
//                  suite:hazard-name:context-substring
//              '*' matches any value in that field; the context field
//              matches as a substring; '#' starts a comment. A hazard
//              matching any rule is printed as suppressed and does not
//              fail the run. Rules that never match are reported (stale
//              suppressions hide regressions).
//   suite...   restrict to the named suites (default: all). The suite
//              `planted-hazard` runs only when named: it plants a `%` and
//              a branch on secret values, so --strict must fail on it.
//   --threads N  worker threads for the parallel suites (also settable via
//              CONVOLVE_THREADS; default: hardware concurrency).
//   --trace-out=FILE    write a chrome://tracing span file for the run.
//   --metrics-out=FILE  write the telemetry metric snapshot as JSON.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "convolve/analysis/ct_taint.hpp"
#include "convolve/common/cli.hpp"
#include "convolve/common/parallel.hpp"
#include "convolve/common/telemetry.hpp"

namespace {

using convolve::analysis::LintResult;

struct Suppression {
  std::string suite;    // exact suite name, or "*"
  std::string hazard;   // exact hazard_name() string, or "*"
  std::string context;  // substring of the finding context, or "*"
  int line = 0;
  bool used = false;
};

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Parses FILE into rules; returns false (with a message) on I/O or syntax
// errors so a mistyped path can't silently enforce nothing.
bool load_suppressions(const std::string& path,
                       std::vector<Suppression>& out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "ct_lint: cannot read suppressions '%s'\n",
                 path.c_str());
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto c1 = line.find(':');
    const auto c2 = c1 == std::string::npos ? c1 : line.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      std::fprintf(stderr,
                   "ct_lint: %s:%d: expected 'suite:hazard:context'\n",
                   path.c_str(), lineno);
      return false;
    }
    Suppression s;
    s.suite = trim(line.substr(0, c1));
    s.hazard = trim(line.substr(c1 + 1, c2 - c1 - 1));
    s.context = trim(line.substr(c2 + 1));
    s.line = lineno;
    if (s.suite.empty() || s.hazard.empty() || s.context.empty()) {
      std::fprintf(stderr, "ct_lint: %s:%d: empty field in rule\n",
                   path.c_str(), lineno);
      return false;
    }
    out.push_back(std::move(s));
  }
  return true;
}

bool suppressed(std::vector<Suppression>& rules, const std::string& suite,
                const char* hazard, const std::string& context) {
  bool hit = false;
  for (auto& r : rules) {
    const bool m = (r.suite == "*" || r.suite == suite) &&
                   (r.hazard == "*" || r.hazard == hazard) &&
                   (r.context == "*" ||
                    context.find(r.context) != std::string::npos);
    if (m) {
      r.used = true;
      hit = true;
    }
  }
  return hit;
}

// In CONVOLVE_TELEMETRY=OFF builds the flags stay accepted and write empty
// stub files, so scripts don't have to fork on build configuration.
bool write_telemetry_file(const std::string& path, bool trace) {
#if CONVOLVE_TELEMETRY_ENABLED
  return trace ? convolve::telemetry::write_chrome_trace(path)
               : convolve::telemetry::write_metrics_json(path);
#else
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << (trace ? "{\"traceEvents\": []}\n"
              : "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}\n");
  return f.good();
#endif
}

// Prints the suite verdict and returns the count of unsuppressed hazards.
std::uint64_t print_result(const LintResult& r,
                           std::vector<Suppression>& rules) {
  std::uint64_t unsuppressed = 0;
  std::uint64_t acknowledged = 0;
  struct Row {
    const convolve::analysis::TaintFinding* f;
    bool suppressed;
  };
  std::vector<Row> rows;
  for (const auto& f : r.findings) {
    const bool sup = suppressed(rules, r.suite,
                                convolve::analysis::hazard_name(f.kind),
                                f.context);
    (sup ? acknowledged : unsuppressed) += f.count;
    rows.push_back({&f, sup});
  }
  const char* verdict = unsuppressed == 0
                            ? (acknowledged == 0 ? "CLEAN " : "SUPPR ")
                            : "HAZARD";
  std::printf("%-14s %s  output=%s  hazards=%llu", r.suite.c_str(), verdict,
              r.output_matches ? "match" : "MISMATCH",
              static_cast<unsigned long long>(r.hazard_count));
  if (acknowledged != 0) {
    std::printf("  (%llu suppressed)",
                static_cast<unsigned long long>(acknowledged));
  }
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("    %-28s x%-8llu at %s%s\n",
                convolve::analysis::hazard_name(row.f->kind),
                static_cast<unsigned long long>(row.f->count),
                row.f->context.c_str(), row.suppressed ? "  [suppressed]" : "");
  }
  return unsuppressed;
}

}  // namespace

int main(int argc, char** argv) {
  convolve::par::init_threads_from_cli(argc, argv);
  bool strict = false;
  std::string trace_out;
  std::string metrics_out;
  std::vector<Suppression> rules;
  std::set<std::string> only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict") {
      strict = true;
    } else if (arg.rfind("--suppressions=", 0) == 0) {
      if (!load_suppressions(arg.substr(15), rules)) return 2;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg[0] == '-') {
      convolve::cli::usage_error(
          "ct_lint: unknown option '" + arg + "'",
          "usage: ct_lint [--strict] [--suppressions=FILE] [--threads N] "
          "[--trace-out=FILE] [--metrics-out=FILE] [suite...]");
    } else {
      only.insert(argv[i]);
    }
  }

  auto results = convolve::analysis::lint_all();
  if (only.count("planted-hazard") != 0) {
    results.push_back(convolve::analysis::lint_planted_hazard());
  }
  // A filter naming no real suite must not silently pass the gate.
  for (const auto& name : only) {
    bool known = false;
    for (const auto& r : results) known = known || r.suite == name;
    if (!known) {
      std::fprintf(stderr, "ct_lint: unknown suite '%s'\n", name.c_str());
      return 2;
    }
  }
  int failures = 0;
  for (const auto& r : results) {
    if (!only.empty() && only.count(r.suite) == 0) continue;
    const std::uint64_t unsuppressed = print_result(r, rules);
    if (!r.output_matches) ++failures;
    if (unsuppressed != 0) ++failures;
  }

  // Stale rules matched nothing: either the hazard was fixed (delete the
  // rule) or the context string drifted (the rule no longer guards what
  // it claims to). Only meaningful when every suite ran.
  int stale = 0;
  if (only.empty()) {
    for (const auto& rule : rules) {
      if (!rule.used) {
        std::fprintf(stderr, "ct_lint: stale suppression at line %d: %s:%s:%s\n",
                     rule.line, rule.suite.c_str(), rule.hazard.c_str(),
                     rule.context.c_str());
        ++stale;
      }
    }
  }

  if (!trace_out.empty() && !write_telemetry_file(trace_out, true)) {
    std::fprintf(stderr, "ct_lint: cannot write '%s'\n", trace_out.c_str());
    return 2;
  }
  if (!metrics_out.empty() && !write_telemetry_file(metrics_out, false)) {
    std::fprintf(stderr, "ct_lint: cannot write '%s'\n", metrics_out.c_str());
    return 2;
  }

  if (failures != 0 || stale != 0) {
    std::printf("ct_lint: %d suite(s) failed, %d stale suppression(s)\n",
                failures, stale);
    return strict ? 1 : 0;
  }
  std::printf("ct_lint: all suites constant-time (or suppressed)\n");
  return 0;
}
