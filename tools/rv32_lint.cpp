// Static lint driver for RV32 enclave images: linear sweep + CFG
// recovery + abstract interpretation (src/analysis/rv32static), printing
// ISA-level constant-time and PMP-policy findings.
//
// Usage: rv32_lint --image=FILE [options]
//        rv32_lint --demo [options]
//   --image=FILE         raw little-endian RV32 code bytes (4-byte multiple)
//   --base=ADDR          load address of the image (default 0x0)
//   --entry=ADDR         entry pc (default: base)
//   --mode=u|s|m         privilege the image executes at (default u)
//   --secret-range=LO:HI mark [LO, HI) as secret (taint seed); repeatable
//   --pmp-policy=FILE    check accesses against a PMP policy file: lines
//                        "region LO HI PERMS" (PERMS subset of rwx, or -),
//                        '#' comments; regions become OFF+TOR entry pairs
//   --memory=BYTES       physical memory size (default 1 MiB)
//   --json               emit the shared bench-report JSON schema
//   --demo               analyze a built-in secret-branch demo image
//   --trace-out=FILE / --metrics-out=FILE  telemetry artifacts
//
// Exit status: 0 when the image is clean (unreachable-code findings are
// informational), 1 when any other finding fires, 2 on usage/IO errors.
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_report.hpp"
#include "convolve/analysis/rv32static/analyze.hpp"
#include "convolve/common/cli.hpp"
#include "convolve/tee/rv32.hpp"

namespace {

using namespace convolve;
using namespace convolve::analysis::rv32static;

// An unsigned number, decimal or 0x-prefixed hex (a leading 0 means
// octal, as for strtoull's base 0), with nothing around it: strtoull alone
// would also take a sign (wrapping "-1" to 2^64 - 1), leading spaces and
// overflowing values.
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 0);
  return errno == 0 && end != nullptr && *end == '\0';
}

// An RV32 address for flag `arg`: parse_u64's syntax and at most
// 0xffffffff, else a usage error (exit 2). Truncating instead would lint
// a different image than the one asked for.
std::uint32_t parse_address(const std::string& text, const std::string& arg,
                            const std::string& usage) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value)) {
    cli::usage_error("rv32_lint: bad address in '" + arg + "'", usage);
  }
  if (value > 0xffffffffull) {
    cli::usage_error("rv32_lint: address in '" + arg + "' is above 0xffffffff",
                     usage);
  }
  return static_cast<std::uint32_t>(value);
}

bool parse_range(const std::string& text, AddrRange& out) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return false;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  if (!parse_u64(text.substr(0, colon), lo) ||
      !parse_u64(text.substr(colon + 1), hi) || hi <= lo ||
      hi > 0xffffffffull) {
    return false;
  }
  out = {static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
  return true;
}

/// "region LO HI PERMS" lines -> OFF+TOR entry pairs (8 regions max).
bool load_pmp_policy(const std::string& path, tee::PmpUnit& pmp) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "rv32_lint: cannot open policy '%s'\n", path.c_str());
    return false;
  }
  int next_entry = 0;
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    char keyword[16] = {0};
    char lo_text[32] = {0};
    char hi_text[32] = {0};
    char perms[8] = {0};
    const int n = std::sscanf(line.c_str(), "%15s %31s %31s %7s", keyword,
                              lo_text, hi_text, perms);
    if (n <= 0) continue;  // blank / comment-only line
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    if (n != 4 || std::strcmp(keyword, "region") != 0 ||
        !parse_u64(lo_text, lo) || !parse_u64(hi_text, hi) || hi <= lo) {
      std::fprintf(stderr, "rv32_lint: %s:%d: bad policy line\n", path.c_str(),
                   lineno);
      return false;
    }
    if (next_entry + 2 > tee::PmpUnit::kEntries) {
      std::fprintf(stderr, "rv32_lint: %s:%d: too many regions (max %d)\n",
                   path.c_str(), lineno, tee::PmpUnit::kEntries / 2);
      return false;
    }
    tee::PmpEntry base;
    base.mode = tee::PmpAddressMode::kOff;
    base.address = lo >> 2;
    tee::PmpEntry top;
    top.mode = tee::PmpAddressMode::kTor;
    top.address = hi >> 2;
    top.read = std::strchr(perms, 'r') != nullptr;
    top.write = std::strchr(perms, 'w') != nullptr;
    top.execute = std::strchr(perms, 'x') != nullptr;
    pmp.set_entry(next_entry, base);
    pmp.set_entry(next_entry + 1, top);
    next_entry += 2;
  }
  return true;
}

/// Built-in demo: a table lookup indexed by a secret byte followed by a
/// branch on it -- the two classic ISA-level constant-time hazards.
ImageSpec demo_image() {
  namespace rv = tee::rv32asm;
  ImageSpec image;
  image.base = 0;
  image.entry = 0;
  image.secret.push_back({0x800, 0x810});
  image.code = rv::assemble({
      rv::addi(5, 0, 0x400),   // x5 = public table base
      rv::lui(6, 1),           // x6 = 0x1000
      rv::addi(6, 6, -0x800),  // x6 = 0x800 (secret base)
      rv::lbu(7, 6, 0),        // x7 = secret byte        (tainted)
      rv::add(8, 5, 7),        // x8 = table + secret
      rv::lbu(9, 8, 0),        // SECRET-INDEXED LOAD
      rv::beq(7, 0, 8),        // SECRET-DEPENDENT BRANCH
      rv::addi(10, 0, 1),      //   taken-path work
      rv::addi(11, 0, 64),     // x11 = loop bound
      rv::addi(12, 0, 0),      // x12 = i
      rv::addi(12, 12, 1),     // loop: i++
      rv::bltu(12, 11, -4),    // public loop (clean)
      rv::ecall(),             // yield to the monitor
  });
  return image;
}

const char* mode_name(tee::PrivMode mode) {
  switch (mode) {
    case tee::PrivMode::kUser: return "U";
    case tee::PrivMode::kSupervisor: return "S";
    case tee::PrivMode::kMachine: return "M";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::string image_path;
  std::string policy_path;
  ImageSpec image;
  bool demo = false;
  bool have_entry = false;
  bench::ReportOptions report_opts;
  const std::string usage =
      std::string("usage: rv32_lint (--image=FILE | --demo) [--base=ADDR] "
                  "[--entry=ADDR]\n"
                  "    [--mode=u|s|m] [--secret-range=LO:HI ...] "
                  "[--pmp-policy=FILE]\n"
                  "    [--memory=BYTES] ") +
      bench::report_flags_usage();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t value = 0;
    if (bench::consume_report_flag(arg, report_opts)) {
      continue;
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg.rfind("--image=", 0) == 0) {
      image_path = arg.substr(8);
    } else if (arg.rfind("--pmp-policy=", 0) == 0) {
      policy_path = arg.substr(13);
    } else if (arg.rfind("--base=", 0) == 0) {
      image.base = parse_address(arg.substr(7), arg, usage);
    } else if (arg.rfind("--entry=", 0) == 0) {
      image.entry = parse_address(arg.substr(8), arg, usage);
      have_entry = true;
    } else if (arg.rfind("--memory=", 0) == 0 &&
               parse_u64(arg.substr(9), value)) {
      image.memory_size = value;
    } else if (arg.rfind("--secret-range=", 0) == 0) {
      AddrRange range;
      if (!parse_range(arg.substr(15), range)) {
        std::fprintf(stderr, "rv32_lint: bad --secret-range '%s'\n",
                     arg.c_str());
        return 2;
      }
      image.secret.push_back(range);
    } else if (arg.rfind("--mode=", 0) == 0) {
      const std::string m = arg.substr(7);
      if (m == "u") image.mode = tee::PrivMode::kUser;
      else if (m == "s") image.mode = tee::PrivMode::kSupervisor;
      else if (m == "m") image.mode = tee::PrivMode::kMachine;
      else {
        std::fprintf(stderr, "rv32_lint: bad --mode '%s'\n", m.c_str());
        return 2;
      }
    } else {
      cli::usage_error("rv32_lint: unknown option '" + arg + "'", usage);
    }
  }

  if (demo != image_path.empty()) {  // exactly one source required
    std::fprintf(stderr, "rv32_lint: need exactly one of --image / --demo\n");
    return 2;
  }
  if (demo) {
    const std::uint32_t base = image.base;
    const std::uint64_t memory = image.memory_size;
    auto secrets = image.secret;
    const ImageSpec d = demo_image();
    image.code = d.code;
    image.base = base;
    if (!have_entry) image.entry = base;
    image.memory_size = memory;
    for (const auto& r : d.secret) secrets.push_back(r);
    image.secret = std::move(secrets);
  } else {
    std::ifstream f(image_path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "rv32_lint: cannot open '%s'\n",
                   image_path.c_str());
      return 2;
    }
    image.code.assign(std::istreambuf_iterator<char>(f),
                      std::istreambuf_iterator<char>());
    if (image.code.empty() || image.code.size() % 4 != 0) {
      std::fprintf(stderr,
                   "rv32_lint: image size %zu is not a non-zero multiple "
                   "of 4\n",
                   image.code.size());
      return 2;
    }
    if (!have_entry) image.entry = image.base;
  }

  tee::PmpUnit policy;
  AnalyzeOptions options;
  if (!policy_path.empty()) {
    if (!load_pmp_policy(policy_path, policy)) return 2;
    options.pmp_policy = &policy;
  }

  const AnalysisResult result = analyze(image, options);
  const StaticReport& report = result.report;

  std::size_t enforced = 0;
  for (const auto& f : report.findings) {
    if (f.kind != FindingKind::kUnreachableCode) ++enforced;
  }

  if (!report_opts.json) {
    std::printf("rv32_lint: image %zu bytes at 0x%08x, entry 0x%08x, mode %s\n",
                image.code.size(), image.base, image.entry,
                mode_name(image.mode));
    std::printf(
        "  cfg: %zu blocks (%zu reachable), %zu edges, %zu indirect "
        "site(s)\n",
        report.cfg.blocks, report.cfg.reachable_blocks, report.cfg.edges,
        report.cfg.indirect_sites);
    std::printf("  fixpoint: %llu iterations, %s\n",
                static_cast<unsigned long long>(report.fixpoint_iterations),
                report.converged ? "converged" : "ITERATION CAP HIT");
    for (const auto& f : report.findings) {
      std::printf("  0x%08x %-20s %s", f.pc, finding_name(f.kind),
                  f.detail.c_str());
      if (f.addr_hi != 0 || f.addr_lo != 0) {
        std::printf("  [0x%08x, 0x%08x]", f.addr_lo, f.addr_hi);
      }
      std::printf("\n");
    }
    if (enforced == 0) {
      std::printf("rv32_lint: clean (%zu informational finding(s))\n",
                  report.findings.size() - enforced);
    } else {
      std::printf("rv32_lint: FAIL (%zu finding(s))\n", enforced);
    }
  }

  bench::Report bench_report;
  bench_report.executable = "rv32_lint";
  auto& entry = bench_report.add("rv32static/analyze");
  entry.counter("blocks", static_cast<double>(report.cfg.blocks))
      .counter("reachable_blocks",
               static_cast<double>(report.cfg.reachable_blocks))
      .counter("edges", static_cast<double>(report.cfg.edges))
      .counter("indirect_sites",
               static_cast<double>(report.cfg.indirect_sites))
      .counter("fixpoint_iterations",
               static_cast<double>(report.fixpoint_iterations))
      .counter("converged", report.converged ? 1.0 : 0.0)
      .counter("findings", static_cast<double>(report.findings.size()))
      .counter("secret_branches",
               static_cast<double>(report.count(FindingKind::kSecretBranch)))
      .counter("secret_loads",
               static_cast<double>(report.count(FindingKind::kSecretLoad)))
      .counter("secret_stores",
               static_cast<double>(report.count(FindingKind::kSecretStore)))
      .counter("pmp_violations",
               static_cast<double>(report.count(FindingKind::kPmpLoad) +
                                   report.count(FindingKind::kPmpStore) +
                                   report.count(FindingKind::kPmpFetch)))
      .counter("unresolved_jumps",
               static_cast<double>(
                   report.count(FindingKind::kUnresolvedJump)));
  if (!bench::finish_report(bench_report, report_opts)) {
    std::fprintf(stderr, "rv32_lint: cannot write report artifacts\n");
    return 2;
  }

  return enforced == 0 ? 0 : 1;
}
