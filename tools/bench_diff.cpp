// Regression gate over two bench reports in the shared schema
// (bench/bench_report.hpp, validated by check_bench_json): compares a
// baseline JSON against a current JSON per benchmark entry and exits
// nonzero when any tracked metric regressed beyond its tolerance.
//
//   bench_diff BASELINE.json CURRENT.json [--tolerance=T]
//              [--counter=NAME:higher|lower[:TOL]] ...
//
// Rules:
//  * Entries are matched by "name". A baseline entry missing from the
//    current report is a regression (a silently dropped benchmark must
//    not pass the gate); new entries in current are informational.
//  * "real_time" is always compared, lower-is-better, at the global
//    tolerance (default 0.10 = 10%, benchmarks are noisy).
//  * --counter adds a user-counter comparison with its own direction
//    and optional per-counter tolerance. A counter named in a spec but
//    absent from an entry that has it in the baseline is a regression.
//  * A baseline value of 0 cannot anchor a ratio; such comparisons are
//    skipped with a note.
//
// Exit codes: 0 no regression, 1 regression(s), 2 usage, I/O or parse
// error (an input larger than json::kMaxBytes is a parse error).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "convolve/common/cli.hpp"
#include "convolve/common/json.hpp"

namespace {

using convolve::json::JsonValue;

struct CounterSpec {
  std::string name;
  bool higher_is_better = true;
  double tolerance = -1.0;  // <0 means "use the global tolerance"
};

std::string usage_text(const char* argv0) {
  return std::string("usage: ") + argv0 +
         " BASELINE.json CURRENT.json [--tolerance=T]\n"
         "          [--counter=NAME:higher|lower[:TOL]] ...\n"
         "\n"
         "Compares two bench reports (bench_report.hpp schema) and exits 1\n"
         "when real_time (lower-better) or any named counter regressed by\n"
         "more than the tolerance (a finite fraction >= 0, default 0.10).";
}

// Throws JsonParseError when the file exceeds json::kMaxBytes.
bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  out = convolve::json::read_document(f);
  return true;
}

/// `arg` is the whole --counter=NAME:higher|lower[:TOL] argument; a
/// malformed spec or tolerance is a usage error (exit 2).
CounterSpec parse_counter_spec(const std::string& arg,
                               const std::string& usage) {
  const std::string body = arg.substr(10);
  CounterSpec spec;
  const std::size_t colon = body.find(':');
  const std::string rest =
      colon == std::string::npos ? "" : body.substr(colon + 1);
  const std::size_t colon2 = rest.find(':');
  const std::string dir = rest.substr(0, colon2);
  if (colon == std::string::npos || colon == 0 ||
      (dir != "higher" && dir != "lower")) {
    convolve::cli::usage_error(
        "bad --counter spec '" + body + "' (want NAME:higher|lower[:TOL])",
        usage);
  }
  spec.name = body.substr(0, colon);
  spec.higher_is_better = dir == "higher";
  if (colon2 != std::string::npos) {
    spec.tolerance = convolve::cli::parse_value<double>(
        rest.substr(colon2 + 1), arg, usage, 0.0);
  }
  return spec;
}

/// name -> benchmark entry object, keyed for the baseline/current join.
std::map<std::string, const JsonValue*> index_benchmarks(
    const JsonValue& root) {
  std::map<std::string, const JsonValue*> out;
  const JsonValue* arr = root.find("benchmarks");
  if (arr == nullptr || !arr->is_array()) return out;
  for (const JsonValue& entry : arr->arr) {
    if (!entry.is_object()) continue;
    const JsonValue* name = entry.find("name");
    if (name != nullptr && name->is_string()) out[name->str] = &entry;
  }
  return out;
}

struct DiffState {
  int regressions = 0;
  int compared = 0;
  int skipped = 0;
};

/// One metric comparison; prints a verdict line and tallies the result.
void compare_metric(const std::string& entry_name, const std::string& metric,
                    double base, double cur, bool higher_is_better,
                    double tolerance, DiffState& state) {
  if (base == 0.0) {
    std::printf("  skip  %-18s %s (baseline is 0)\n", metric.c_str(),
                entry_name.c_str());
    ++state.skipped;
    return;
  }
  // Signed change in the "better" direction: positive = improved.
  const double delta = higher_is_better ? (cur - base) / std::fabs(base)
                                        : (base - cur) / std::fabs(base);
  ++state.compared;
  const bool regressed = delta < -tolerance;
  if (regressed) ++state.regressions;
  std::printf("  %s %-18s %s: %.4g -> %.4g (%+.1f%%, tol %.0f%%)\n",
              regressed ? "FAIL " : "ok   ", metric.c_str(),
              entry_name.c_str(), base, cur, delta * 100.0,
              tolerance * 100.0);
}

double number_or(const JsonValue& entry, const std::string& key,
                 double fallback) {
  const JsonValue* v = entry.find(key.c_str());
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, current_path;
  double tolerance = 0.10;
  std::vector<CounterSpec> specs;
  const std::string usage = usage_text(argv[0]);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance =
          convolve::cli::parse_value<double>(arg.substr(12), arg, usage, 0.0);
    } else if (arg.rfind("--counter=", 0) == 0) {
      specs.push_back(parse_counter_spec(arg, usage));
    } else if (!arg.empty() && arg[0] == '-') {
      convolve::cli::usage_error("unknown flag '" + arg + "'", usage);
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      convolve::cli::usage_error("unexpected argument '" + arg + "'", usage);
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    convolve::cli::usage_error("need BASELINE.json and CURRENT.json", usage);
  }

  JsonValue baseline, current;
  try {
    std::string baseline_text, current_text;
    if (!read_file(baseline_path, baseline_text)) {
      std::fprintf(stderr, "bench_diff: cannot read %s\n",
                   baseline_path.c_str());
      return 2;
    }
    if (!read_file(current_path, current_text)) {
      std::fprintf(stderr, "bench_diff: cannot read %s\n",
                   current_path.c_str());
      return 2;
    }
    baseline = convolve::json::parse(baseline_text);
    current = convolve::json::parse(current_text);
  } catch (const convolve::json::JsonParseError& e) {
    std::fprintf(stderr, "bench_diff: JSON parse error: %s\n", e.what());
    return 2;
  }

  const auto base_entries = index_benchmarks(baseline);
  const auto cur_entries = index_benchmarks(current);
  if (base_entries.empty()) {
    std::fprintf(stderr, "bench_diff: baseline has no benchmark entries\n");
    return 2;
  }

  DiffState state;
  std::printf("bench_diff: %s vs %s (%zu baseline entries)\n",
              baseline_path.c_str(), current_path.c_str(),
              base_entries.size());
  for (const auto& [name, base_entry] : base_entries) {
    const auto it = cur_entries.find(name);
    if (it == cur_entries.end()) {
      std::printf("  FAIL  %-18s %s (missing from current report)\n",
                  "presence", name.c_str());
      ++state.regressions;
      continue;
    }
    const JsonValue& cur_entry = *it->second;
    compare_metric(name, "real_time", number_or(*base_entry, "real_time", 0),
                   number_or(cur_entry, "real_time", 0),
                   /*higher_is_better=*/false, tolerance, state);
    for (const CounterSpec& spec : specs) {
      const JsonValue* base_v = base_entry->find(spec.name.c_str());
      if (base_v == nullptr || !base_v->is_number()) continue;
      const JsonValue* cur_v = cur_entry.find(spec.name.c_str());
      const double tol = spec.tolerance < 0.0 ? tolerance : spec.tolerance;
      if (cur_v == nullptr || !cur_v->is_number()) {
        std::printf("  FAIL  %-18s %s (counter missing from current)\n",
                    spec.name.c_str(), name.c_str());
        ++state.regressions;
        continue;
      }
      compare_metric(name, spec.name, base_v->number, cur_v->number,
                     spec.higher_is_better, tol, state);
    }
  }
  for (const auto& [name, entry] : cur_entries) {
    (void)entry;
    if (base_entries.find(name) == base_entries.end()) {
      std::printf("  note  new entry %s (not in baseline)\n", name.c_str());
    }
  }

  std::printf("bench_diff: %d compared, %d skipped, %d regression(s)\n",
              state.compared, state.skipped, state.regressions);
  return state.regressions > 0 ? 1 : 0;
}
