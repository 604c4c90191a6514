// Property suite for the deterministic parallel execution engine: the pool
// must schedule correctly (every index exactly once, exceptions propagate,
// nesting stays inline) and, more importantly, every reduction must be
// bit-identical across thread counts -- including floating point and
// downstream stochastic consumers like the CIM extraction attack.
#include "convolve/common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "convolve/cim/attack.hpp"
#include "convolve/cim/macro.hpp"

namespace convolve {
namespace {

const int kThreadCounts[] = {1, 2, 4, 7};

TEST(Threads, HardwareAndDefaultsArePositive) {
  EXPECT_GE(par::hardware_threads(), 1);
  EXPECT_GE(par::default_thread_count(), 1);
  EXPECT_GE(par::thread_count(), 1);
}

TEST(Threads, SetClampsToOne) {
  par::ScopedThreadCount outer(par::thread_count());
  par::set_thread_count(-3);
  EXPECT_EQ(par::thread_count(), 1);
  par::set_thread_count(5);
  EXPECT_EQ(par::thread_count(), 5);
}

TEST(Threads, ScopedOverrideRestores) {
  const int before = par::thread_count();
  {
    par::ScopedThreadCount t(before + 3);
    EXPECT_EQ(par::thread_count(), before + 3);
  }
  EXPECT_EQ(par::thread_count(), before);
}

TEST(Threads, CliFlagConsumed) {
  par::ScopedThreadCount outer(par::thread_count());
  char prog[] = "prog";
  char flag[] = "--threads";
  char value[] = "3";
  char other[] = "--strict";
  char* argv[] = {prog, flag, value, other, nullptr};
  int argc = 4;
  EXPECT_EQ(par::init_threads_from_cli(argc, argv), 3);
  EXPECT_EQ(par::thread_count(), 3);
  ASSERT_EQ(argc, 2);  // --threads 3 removed, --strict kept
  EXPECT_STREQ(argv[1], "--strict");
}

TEST(Threads, CliEqualsFormConsumed) {
  par::ScopedThreadCount outer(par::thread_count());
  char prog[] = "prog";
  char flag[] = "--threads=6";
  char* argv[] = {prog, flag, nullptr};
  int argc = 2;
  EXPECT_EQ(par::init_threads_from_cli(argc, argv), 6);
  EXPECT_EQ(argc, 1);
}

// The flag takes what CONVOLVE_THREADS takes: a whole decimal string in
// 1..4096. Anything else is a usage error: the binary prints the usage
// line and exits 2 during parsing, before any region could run. Each case
// runs in a re-executed child ("threadsafe" style), so the pool threads
// earlier tests started never cross a fork.
TEST(Threads, CliRejectsTrailingJunkAndOutOfRangeCounts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* value : {"4abc", "5000", "0", ""}) {
    std::string spaced = value;
    std::string joined = std::string("--threads=") + value;
    char prog[] = "prog";
    char flag[] = "--threads";
    char* separate[] = {prog, flag, spaced.data(), nullptr};
    char* equals[] = {prog, joined.data(), nullptr};
    int argc = 3;
    EXPECT_EXIT(par::init_threads_from_cli(argc, separate),
                ::testing::ExitedWithCode(2), "usage: prog")
        << "--threads " << value;
    argc = 2;
    EXPECT_EXIT(par::init_threads_from_cli(argc, equals),
                ::testing::ExitedWithCode(2), "usage: prog")
        << joined;
  }
}

TEST(Chunking, RangesPartitionTheIterationSpace) {
  for (std::uint64_t n : {0ull, 1ull, 7ull, 256ull, 1000ull, 100000ull}) {
    for (std::uint64_t grain : {1ull, 16ull, 1024ull}) {
      const std::uint64_t n_chunks = par::chunk_count(n, grain);
      if (n == 0) {
        EXPECT_EQ(n_chunks, 0u);
        continue;
      }
      EXPECT_GE(n_chunks, 1u);
      EXPECT_LE(n_chunks, 256u);  // bounded merge cost
      std::uint64_t covered = 0;
      for (std::uint64_t c = 0; c < n_chunks; ++c) {
        const par::Range r = par::chunk_range(n, n_chunks, c);
        EXPECT_EQ(r.begin, covered) << "chunks must be contiguous ascending";
        EXPECT_GT(r.end, r.begin);
        covered = r.end;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (int threads : kThreadCounts) {
    par::ScopedThreadCount t(threads);
    const std::uint64_t n = 10000;
    std::vector<int> hits(n, 0);
    std::atomic<std::uint64_t> sum{0};
    par::parallel_for(n, [&](std::uint64_t i) {
      ++hits[i];  // distinct i per call: no race
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), n * (n - 1) / 2) << "threads=" << threads;
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
  }
}

TEST(ParallelFor, EmptyAndSingleton) {
  par::ScopedThreadCount t(4);
  int calls = 0;
  par::parallel_for(0, [&](std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  par::parallel_for(1, [&](std::uint64_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ExceptionPropagatesAndPoolSurvives) {
  for (int threads : kThreadCounts) {
    par::ScopedThreadCount t(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(par::parallel_for(100,
                                   [&](std::uint64_t i) {
                                     ++ran;
                                     if (i == 37) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
                 std::runtime_error);
    // Chunks after the failing one are not started: on one thread they
    // run in index order, so exactly indices 0..37 ran.
    if (threads == 1) {
      EXPECT_EQ(ran.load(), 38);
    }
    // The pool must stay usable after a failed region.
    std::atomic<int> ok{0};
    par::parallel_for(50, [&](std::uint64_t) { ++ok; });
    EXPECT_EQ(ok.load(), 50) << "threads=" << threads;
  }
}

TEST(ParallelFor, NestedRegionsRunInlineWithoutDeadlock) {
  par::ScopedThreadCount t(4);
  std::atomic<std::uint64_t> total{0};
  par::parallel_for(8, [&](std::uint64_t) {
    par::parallel_for(16, [&](std::uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8u * 16u);
}

// Back-to-back regions at a changing thread count: every index runs once,
// and no region has more distinct threads than its thread count. Spare
// workers (index >= wanted) stay out, including one woken for a wider
// region that only gets the lock after that region has ended.
TEST(ParallelFor, ManySmallRegionsStress) {
  const int cycle[] = {2, 7, 3, 4};
  for (int rep = 0; rep < 200; ++rep) {
    const int threads = cycle[rep % 4];
    par::ScopedThreadCount t(threads);
    std::vector<int> hits(17, 0);
    std::mutex mu;
    std::set<std::thread::id> ids;
    par::parallel_for(17, [&](std::uint64_t i) {
      ++hits[i];  // distinct i per call: no race
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    for (int h : hits) ASSERT_EQ(h, 1) << "rep " << rep;
    ASSERT_LE(ids.size(), static_cast<std::size_t>(threads)) << "rep " << rep;
  }
}

// The determinism contract itself: a non-commutative combine must fold in
// ascending chunk order for every thread count.
TEST(ParallelReduce, OrderedFoldIsSerialOrder) {
  const std::uint64_t n = 5000;
  const std::uint64_t grain = 64;
  const auto run = [&] {
    return par::parallel_reduce(
        n, grain, std::string(),
        [](std::uint64_t c, par::Range r) {
          return std::to_string(c) + ":" + std::to_string(r.begin) + "-" +
                 std::to_string(r.end) + ";";
        },
        [](std::string acc, std::string part) { return acc + part; });
  };
  std::string serial;
  {
    par::ScopedThreadCount t(1);
    serial = run();
  }
  EXPECT_FALSE(serial.empty());
  for (int threads : kThreadCounts) {
    par::ScopedThreadCount t(threads);
    EXPECT_EQ(run(), serial) << "threads=" << threads;
  }
}

TEST(ParallelReduce, FloatingPointSumBitIdenticalAcrossThreadCounts) {
  const std::uint64_t n = 40000;
  const auto run = [&] {
    return par::parallel_reduce(
        n, 128, 0.0,
        [](std::uint64_t, par::Range r) {
          double s = 0.0;
          for (std::uint64_t i = r.begin; i < r.end; ++i) {
            // Values with wildly varying magnitude: any reassociation of
            // the fold would change the rounding, hence the bits.
            s += 1.0 / (1.0 + static_cast<double>(i % 977)) +
                 static_cast<double>(i) * 1e-7;
          }
          return s;
        },
        [](double acc, double part) { return acc + part; });
  };
  double serial = 0.0;
  {
    par::ScopedThreadCount t(1);
    serial = run();
  }
  for (int threads : kThreadCounts) {
    par::ScopedThreadCount t(threads);
    const double parallel = run();
    EXPECT_EQ(std::memcmp(&parallel, &serial, sizeof(double)), 0)
        << "threads=" << threads << " parallel=" << parallel
        << " serial=" << serial;
  }
}

TEST(ParallelReduce, EmptyReturnsInit) {
  par::ScopedThreadCount t(4);
  const int r = par::parallel_reduce(
      0, 1, 41, [](std::uint64_t, par::Range) { return 1; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, 41);
}

// Cross-subsystem contract: the CIM extraction attack draws noise and
// countermeasure randomness through per-measurement fork streams, so the
// full attack result -- recovered weights, accuracy, measurement count --
// is identical at every thread count even under noise + countermeasures.
TEST(ParallelDeterminism, CimAttackIdenticalAcrossThreadCounts) {
  cim::MacroConfig mc;
  mc.n_rows = 32;
  mc.noise_sigma = 1.0;
  mc.dummy_rows = 2;
  mc.seed = 0xFEED5;
  cim::AttackConfig ac;
  ac.traces_per_measurement = 16;

  cim::AttackResult serial;
  {
    par::ScopedThreadCount t(1);
    cim::CimMacro macro = cim::random_macro(mc, 0xBADF00D);
    serial = cim::run_attack(macro, ac);
    cim::evaluate_against_ground_truth(serial, macro.secret_weights());
  }
  for (int threads : {2, 4, 8}) {
    par::ScopedThreadCount t(threads);
    cim::CimMacro macro = cim::random_macro(mc, 0xBADF00D);
    cim::AttackResult parallel = cim::run_attack(macro, ac);
    cim::evaluate_against_ground_truth(parallel, macro.secret_weights());
    EXPECT_EQ(parallel.recovered, serial.recovered) << "threads=" << threads;
    EXPECT_EQ(parallel.measurements, serial.measurements);
    EXPECT_EQ(parallel.accuracy, serial.accuracy);
    EXPECT_EQ(parallel.phase1.features, serial.phase1.features);
    EXPECT_EQ(parallel.phase1.hw_class, serial.phase1.hw_class);
    EXPECT_EQ(parallel.phase1.clustering.assignment,
              serial.phase1.clustering.assignment);
  }
}

}  // namespace
}  // namespace convolve
