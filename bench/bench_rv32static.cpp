// Throughput of the RV32 enclave-image static analyzer (DESIGN.md 5g):
// wall-clock from image bytes to a finding report on three synthetic
// workload shapes, with the CFG/fixpoint counters that explain the cost.
//
//   straightline  pure ALU, no control flow -- decoder + transfer-function
//                 floor (one visit per instruction, trivial fixpoint).
//   loopy         bounded counting loops + forward skips -- join/widening
//                 stress; fixpoint iterations dominate.
//   secret-table  secret-seeded table lookups -- taint propagation plus
//                 finding extraction on every block.
//
// --json emits the shared bench_report.hpp schema; --trace-out and
// --metrics-out write chrome://tracing and metric-snapshot files.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "convolve/analysis/rv32static/analyze.hpp"
#include "convolve/common/cli.hpp"
#include "convolve/common/rng.hpp"
#include "convolve/tee/rv32.hpp"

using namespace convolve;
using namespace convolve::analysis::rv32static;
namespace rv = convolve::tee::rv32asm;

namespace {

constexpr std::uint32_t kSecretBase = 0x8000;
constexpr std::uint32_t kSecretSize = 0x40;

ImageSpec make_image(const std::vector<std::uint32_t>& words) {
  ImageSpec image;
  image.code = rv::assemble(words);
  image.memory_size = 1 << 16;
  image.secret.push_back({kSecretBase, kSecretBase + kSecretSize});
  return image;
}

// jal x0, 0 parks the program in a self-loop so the tail of each workload
// neither falls off the image nor adds control-flow findings.
ImageSpec straightline(std::size_t insns, Xoshiro256& rng) {
  std::vector<std::uint32_t> w;
  while (w.size() + 1 < insns) {
    const int rd = 5 + static_cast<int>(rng.next_u64() % 10);
    const int rs = 5 + static_cast<int>(rng.next_u64() % 10);
    switch (rng.next_u64() % 4) {
      case 0:
        w.push_back(rv::addi(rd, rs, static_cast<int>(rng.next_u64() % 256)));
        break;
      case 1:
        w.push_back(rv::xori(rd, rs, static_cast<int>(rng.next_u64() % 256)));
        break;
      case 2:
        w.push_back(rv::add(rd, rs, 5 + static_cast<int>(rng.next_u64() % 10)));
        break;
      default:
        w.push_back(
            rv::lui(rd, static_cast<std::uint32_t>(rng.next_u64() % 16)));
        break;
    }
  }
  w.push_back(rv::jal(0, 0));
  return make_image(w);
}

ImageSpec loopy(std::size_t insns, Xoshiro256& rng) {
  std::vector<std::uint32_t> w;
  while (w.size() + 8 < insns) {
    const int rd = 5 + static_cast<int>(rng.next_u64() % 8);
    w.push_back(rv::addi(rd, rd, static_cast<int>(rng.next_u64() % 64)));
    w.push_back(rv::bne(rd, 13, 12));  // forward skip over the xori
    w.push_back(rv::xori(rd, rd, 0x55));
    // Bounded counting loop: x14 = 0; do { ++x14; } while (x14 <u x15).
    w.push_back(rv::addi(14, 0, 0));
    w.push_back(rv::addi(15, 0, 8 + static_cast<int>(rng.next_u64() % 56)));
    w.push_back(rv::addi(14, 14, 1));
    w.push_back(rv::bltu(14, 15, -4));
  }
  w.push_back(rv::jal(0, 0));
  return make_image(w);
}

ImageSpec secret_table(std::size_t insns, Xoshiro256& rng) {
  std::vector<std::uint32_t> w;
  w.push_back(rv::lui(6, kSecretBase >> 12));  // x6 = secret base
  while (w.size() + 4 < insns) {
    w.push_back(
        rv::lbu(7, 6, static_cast<int>(rng.next_u64() % kSecretSize)));
    w.push_back(rv::addi(8, 0, 0x400 + static_cast<int>(rng.next_u64() % 64)));
    w.push_back(rv::add(9, 8, 7));
    w.push_back(rv::lbu(10, 9, 0));  // secret-indexed load
  }
  w.push_back(rv::jal(0, 0));
  return make_image(w);
}

void run(convolve::bench::Report& report, bool text, const char* label,
         const ImageSpec& image) {
  const auto start = std::chrono::steady_clock::now();
  const AnalysisResult r = analyze(image);
  const auto stop = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  const std::size_t insns = image.insn_count();
  if (text) {
    std::printf(
        "%-13s %6zu insns %8.2f ms  blocks=%zu edges=%zu iters=%llu "
        "findings=%zu%s\n",
        label, insns, ms, r.cfg.blocks.size(), r.cfg.edges.size(),
        static_cast<unsigned long long>(r.absint.iterations),
        r.report.findings.size(), r.absint.converged ? "" : "  DIVERGED");
  }
  auto& e = report.add(std::string("rv32static/") + label);
  e.iterations = insns;
  e.real_time_ns = insns > 0 ? ms * 1e6 / static_cast<double>(insns) : 0;
  e.cpu_time_ns = e.real_time_ns;
  e.counter("wall_ms", ms);
  e.counter("insns", static_cast<double>(insns));
  e.counter("blocks", static_cast<double>(r.cfg.blocks.size()));
  e.counter("edges", static_cast<double>(r.cfg.edges.size()));
  e.counter("fixpoint_iterations", static_cast<double>(r.absint.iterations));
  e.counter("findings", static_cast<double>(r.report.findings.size()));
  e.counter("converged", r.absint.converged ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  convolve::bench::ReportOptions opts;
  std::size_t insns = 4096;
  const std::string usage = std::string("usage: ") + argv[0] +
                            " [--insns=N] " +
                            convolve::bench::report_flags_usage();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--insns=", 0) == 0) {
      insns = convolve::cli::parse_value<std::size_t>(arg.substr(8), arg,
                                                      usage);
    } else if (!convolve::bench::consume_report_flag(arg, opts)) {
      convolve::cli::usage_error("unknown option '" + arg + "'", usage);
    }
  }

  convolve::bench::Report report;
  report.executable = argv[0];
  const bool text = !opts.json;
  if (text) std::printf("=== RV32 static analyzer throughput ===\n");

  Xoshiro256 rng(0x5747a71cull);
  run(report, text, "straightline", straightline(insns, rng));
  run(report, text, "loopy", loopy(insns, rng));
  run(report, text, "secret-table", secret_table(insns, rng));

  if (!convolve::bench::finish_report(report, opts)) {
    std::fprintf(stderr, "bench_rv32static: failed to write report file(s)\n");
    return 2;
  }
  return 0;
}
