// Deterministic parallel execution engine.
//
// A persistent thread pool plus `parallel_for` / `parallel_reduce`
// primitives whose results are *deterministic by construction*: work is cut
// into chunks whose boundaries depend only on the problem size (never on
// the thread count or scheduling), each chunk produces an independent
// partial result, and partial results are combined on the calling thread in
// ascending chunk order. Any associative combine therefore yields the same
// value -- bit-identical, including floating point -- for every thread
// count, and `threads == 1` degenerates to a plain serial loop on the
// calling thread with no pool involvement at all.
//
// Scheduling model: a region is one shared atomic cursor over its chunks;
// every participant claims the next unclaimed chunk until none is left.
// The calling thread participates, so `--threads N` means N compute
// threads total. The cursor randomizes *which thread* runs a chunk and the
// completion order only; determinism comes from the fixed chunking and
// ordered combine, never from the schedule. The `pool.steals` counter is
// the number of chunks a participant claimed beyond its round-robin share
// (the chunks c with c % N == its index).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <vector>

namespace convolve::par {

/// Threads the hardware offers (>= 1).
int hardware_threads();

/// Resolution order for the default: CONVOLVE_THREADS env var if set and
/// valid, otherwise hardware_threads().
int default_thread_count();

/// Current global thread count (lazily initialised to
/// default_thread_count()).
int thread_count();

/// Set the global thread count (clamped to >= 1). Takes effect on the next
/// parallel region.
void set_thread_count(int n);

/// RAII thread-count override for tests.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(int n) : saved_(thread_count()) {
    set_thread_count(n);
  }
  ~ScopedThreadCount() { set_thread_count(saved_); }
  ScopedThreadCount(const ScopedThreadCount&) = delete;
  ScopedThreadCount& operator=(const ScopedThreadCount&) = delete;

 private:
  int saved_;
};

/// Consume a `--threads N` flag (and honour CONVOLVE_THREADS) for bench and
/// tool binaries: scans argv, applies the setting via set_thread_count and
/// returns the resulting count. Unrelated arguments are left untouched;
/// a consumed flag is removed from argv/argc. A value that is not a whole
/// decimal in 1..4096 is a cli::usage_error: the process exits 2.
int init_threads_from_cli(int& argc, char** argv);

/// Run fn(chunk_index) for every chunk in [0, n_chunks). Chunks may execute
/// concurrently in any order on thread_count() threads (including the
/// caller); with one thread they run in index order on the caller. The
/// first exception thrown by any chunk is rethrown on the caller after all
/// chunks retire; remaining chunks are skipped (not started) once an
/// exception is pending.
void for_each_chunk(std::uint64_t n_chunks,
                    const std::function<void(std::uint64_t)>& fn);

/// Deterministic chunk count for a loop of `n` iterations with at least
/// `grain` iterations per chunk. Depends only on (n, grain) -- never on the
/// thread count -- so chunk boundaries (and thus any ordered reduction
/// structure) are schedule-independent.
std::uint64_t chunk_count(std::uint64_t n, std::uint64_t grain);

/// Half-open iteration range of chunk `c` out of `n_chunks` over `n` items.
/// Chunks are contiguous, ascending and near-equal in size.
struct Range {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};
Range chunk_range(std::uint64_t n, std::uint64_t n_chunks, std::uint64_t c);

/// Parallel loop over [0, n): fn(i) must be safe to run concurrently for
/// distinct i. Iterations are grouped into chunk_count(n, grain) chunks;
/// within a chunk they run in ascending order.
void parallel_for(std::uint64_t n, const std::function<void(std::uint64_t)>& fn,
                  std::uint64_t grain = 1);

/// Deterministic ordered reduction. `map(chunk, range)` produces a partial
/// result per chunk (concurrently); `combine(acc, partial)` folds partials
/// into `init` strictly in ascending chunk order on the calling thread.
/// The fold structure depends only on (n, grain), so the result is
/// identical for every thread count.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::uint64_t n, std::uint64_t grain, T init, MapFn&& map,
                  CombineFn&& combine) {
  const std::uint64_t n_chunks = chunk_count(n, grain);
  if (n_chunks == 0) return init;
  std::vector<std::optional<T>> partial(n_chunks);
  for_each_chunk(n_chunks, [&](std::uint64_t c) {
    partial[c].emplace(map(c, chunk_range(n, n_chunks, c)));
  });
  T acc = std::move(init);
  for (std::uint64_t c = 0; c < n_chunks; ++c) {
    acc = combine(std::move(acc), std::move(*partial[c]));
  }
  return acc;
}

}  // namespace convolve::par
