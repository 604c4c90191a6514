// Schema gate for the shared bench report format (bench/bench_report.hpp).
// Reads a report from stdin, parses it with the in-tree JSON parser, and
// checks the google-benchmark-compatible shape:
//
//   context.executable / num_cpus / threads        (string, number, number)
//   benchmarks[] with name, run_name, run_type, repetitions,
//                repetition_index, threads, iterations, real_time,
//                cpu_time, time_unit per entry
//   telemetry.counters / gauges / histograms       (objects)
//   events.recorded / dropped / by_kind            (numbers, object)
//
// Exit 0 when the shape holds, 1 with a diagnostic otherwise (input larger
// than json::kMaxBytes is refused as a parse error). Wired into
// ctest as bench_*_json_schema so a bench refactor that silently changes
// the schema fails the suite rather than downstream dashboards.
#include <cstdio>
#include <iostream>
#include <string>

#include "convolve/common/json.hpp"

namespace {

using convolve::json::JsonValue;

int fail(const std::string& what) {
  std::fprintf(stderr, "check_bench_json: %s\n", what.c_str());
  return 1;
}

bool has_number(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number();
}

bool has_string(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_string();
}

}  // namespace

int main() {
  JsonValue root;
  try {
    const std::string input = convolve::json::read_document(std::cin);
    if (input.empty()) return fail("empty input");
    root = convolve::json::parse(input);
  } catch (const convolve::json::JsonParseError& e) {
    return fail(std::string("parse error: ") + e.what());
  }
  if (!root.is_object()) return fail("root is not an object");

  const JsonValue* context = root.find("context");
  if (context == nullptr || !context->is_object()) {
    return fail("missing context object");
  }
  if (!has_string(*context, "executable")) {
    return fail("context.executable missing or not a string");
  }
  if (!has_number(*context, "num_cpus") || !has_number(*context, "threads")) {
    return fail("context.num_cpus/threads missing or not numbers");
  }

  const JsonValue* benchmarks = root.find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return fail("missing benchmarks array");
  }
  if (benchmarks->arr.empty()) return fail("benchmarks array is empty");
  static const char* kNumberFields[] = {
      "repetitions", "repetition_index", "threads",
      "iterations",  "real_time",        "cpu_time"};
  for (std::size_t i = 0; i < benchmarks->arr.size(); ++i) {
    const JsonValue& b = benchmarks->arr[i];
    const std::string at = "benchmarks[" + std::to_string(i) + "]";
    if (!b.is_object()) return fail(at + " is not an object");
    for (const char* key : {"name", "run_name", "run_type", "time_unit"}) {
      if (!has_string(b, key)) {
        return fail(at + "." + key + " missing or not a string");
      }
    }
    for (const char* key : kNumberFields) {
      if (!has_number(b, key)) {
        return fail(at + "." + key + " missing or not a number");
      }
    }
  }

  const JsonValue* telemetry = root.find("telemetry");
  if (telemetry == nullptr || !telemetry->is_object()) {
    return fail("missing telemetry object");
  }
  for (const char* key : {"counters", "gauges", "histograms"}) {
    const JsonValue* section = telemetry->find(key);
    if (section == nullptr || !section->is_object()) {
      return fail(std::string("telemetry.") + key +
                  " missing or not an object");
    }
  }

  const JsonValue* events = root.find("events");
  if (events == nullptr || !events->is_object()) {
    return fail("missing events object");
  }
  for (const char* key : {"recorded", "dropped"}) {
    if (!has_number(*events, key)) {
      return fail(std::string("events.") + key + " missing or not a number");
    }
  }
  const JsonValue* by_kind = events->find("by_kind");
  if (by_kind == nullptr || !by_kind->is_object()) {
    return fail("events.by_kind missing or not an object");
  }
  for (std::size_t i = 0; i < by_kind->keys.size(); ++i) {
    if (!by_kind->arr[i].is_number()) {
      return fail("events.by_kind." + by_kind->keys[i] + " not a number");
    }
  }

  std::printf("check_bench_json: ok (%zu benchmark entries)\n",
              benchmarks->arr.size());
  return 0;
}
