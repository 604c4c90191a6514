#include "convolve/common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "convolve/common/cli.hpp"
#include "convolve/common/telemetry.hpp"

namespace convolve::par {

namespace {

#if CONVOLVE_TELEMETRY_ENABLED
// pool.tasks and pool.jobs are deterministic for a given (n, grain, input)
// workload: chunking is schedule-independent, and every region, nested ones
// included, is counted once on its calling thread. pool.steals (chunks a
// participant claimed beyond its round-robin share, the chunks c with
// c % P == self) and pool.worker_wait_ns depend on OS scheduling and are
// expected to vary run-over-run.
telemetry::Counter t_tasks{"pool.tasks"};
telemetry::Counter t_steals{"pool.steals"};
telemetry::Counter t_jobs{"pool.jobs"};
telemetry::Counter t_wait_ns{"pool.worker_wait_ns"};
telemetry::Gauge t_threads{"pool.threads"};
telemetry::Histogram t_task_ns{"pool.task_ns"};
#endif

// Set on pool workers for their whole life and on the caller while it works
// a pooled region: a region started there is nested and runs inline instead
// of deadlocking on the (single-job) pool.
thread_local bool g_in_parallel_region = false;

// A single parallel region. Participants claim chunks from the shared cursor
// `next` until it passes n_chunks. The first exception wins `failed`, after
// which no participant claims another chunk.
struct Job {
  const std::function<void(std::uint64_t)>& fn;
  std::uint64_t n_chunks;
  int participants;
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error{};

  void work([[maybe_unused]] int self) {
    CONVOLVE_TELEMETRY_ONLY(std::uint64_t steals = 0;)
    while (!failed.load()) {
      const std::uint64_t c = next.fetch_add(1);
      if (c >= n_chunks) break;
      CONVOLVE_TELEMETRY_ONLY(
          if (c % static_cast<std::uint64_t>(participants) !=
              static_cast<std::uint64_t>(self)) ++steals;
          const std::uint64_t t0 = telemetry::trace_now_ns();)
      try {
        fn(c);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
      CONVOLVE_TELEMETRY_ONLY(
          const std::uint64_t dur = telemetry::trace_now_ns() - t0;
          t_task_ns.record(dur);
          telemetry::record_span("pool.task", t0, dur);)
    }
    // Flush the per-participant tally once per job, not per chunk.
    CONVOLVE_TELEMETRY_ONLY(t_steals.add(steals);)
  }
};

// Persistent worker pool. One job runs at a time (parallel regions are
// serialised by run_mu_); workers sleep between jobs.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  // The caller is participant P-1 (workers are 0..P-2) and works the job
  // like any other. When its claim loop ends every chunk has been claimed,
  // so once no worker is left inside the job every chunk has retired.
  void run(Job& job) {
    std::lock_guard<std::mutex> run_lock(run_mu_);
    const int n_workers = job.participants - 1;
    {
      std::lock_guard<std::mutex> lock(job_mu_);
      while (static_cast<int>(workers_.size()) < n_workers) {
        const int index = static_cast<int>(workers_.size());
        workers_.emplace_back([this, index] { worker_loop(index); });
      }
      wanted_workers_ = n_workers;
      job_ = &job;
      ++job_epoch_;
    }
    job_cv_.notify_all();
    g_in_parallel_region = true;
    job.work(n_workers);
    g_in_parallel_region = false;
    std::unique_lock<std::mutex> lock(job_mu_);
    job_ = nullptr;
    idle_cv_.wait(lock, [&] { return active_workers_ == 0; });
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(job_mu_);
      shutdown_ = true;
    }
    job_cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void worker_loop(int index) {
#if CONVOLVE_TELEMETRY_ENABLED
    // Deterministic thread identity in exported traces: pool index, not OS
    // thread id, so traces from equal --threads N runs line up.
    {
      char name[32];
      std::snprintf(name, sizeof(name), "worker-%d", index);
      telemetry::set_thread_name(name);
    }
#endif
    g_in_parallel_region = true;  // a worker only ever runs chunks
    std::uint64_t seen_epoch = 0;
    while (true) {
      Job* job = nullptr;
      {
        CONVOLVE_TELEMETRY_ONLY(const std::uint64_t w0 = telemetry::trace_now_ns();)
        std::unique_lock<std::mutex> lock(job_mu_);
        job_cv_.wait(lock, [&] {
          return shutdown_ || (job_ != nullptr && job_epoch_ != seen_epoch &&
                               index < wanted_workers_);
        });
        // Idle time between jobs (includes the pre-shutdown wait).
        CONVOLVE_TELEMETRY_ONLY(t_wait_ns.add(telemetry::trace_now_ns() - w0);)
        if (shutdown_) return;
        seen_epoch = job_epoch_;
        job = job_;
        ++active_workers_;
      }
      job->work(index);
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(job_mu_);
        last = --active_workers_ == 0;
      }
      if (last) idle_cv_.notify_one();  // only the caller waits on it
    }
  }

  std::mutex run_mu_;  // one parallel region at a time

  std::mutex job_mu_;
  std::condition_variable job_cv_;
  std::condition_variable idle_cv_;
  Job* job_ = nullptr;
  std::uint64_t job_epoch_ = 0;
  int wanted_workers_ = 0;
  int active_workers_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

// A whole decimal string in 1..4096, else 0.
int parse_thread_count(const char* s) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  return end != s && *end == '\0' && v >= 1 && v <= 4096 ? static_cast<int>(v)
                                                          : 0;
}

std::atomic<int> g_thread_count{0};  // 0 = not yet initialised

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int default_thread_count() {
  const char* env = std::getenv("CONVOLVE_THREADS");
  const int n = env != nullptr ? parse_thread_count(env) : 0;
  return n != 0 ? n : hardware_threads();
}

int thread_count() {
  int n = g_thread_count.load(std::memory_order_relaxed);
  if (n == 0) {
    n = default_thread_count();
    g_thread_count.store(n, std::memory_order_relaxed);
  }
  return n;
}

void set_thread_count(int n) {
  g_thread_count.store(n < 1 ? 1 : n, std::memory_order_relaxed);
}

int init_threads_from_cli(int& argc, char** argv) {
  // The CLI entry thread gets a stable name in exported traces.
  CONVOLVE_TELEMETRY_ONLY(telemetry::set_thread_name("main");)
  constexpr char kPrefix[] = "--threads=";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    int consumed = 1;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      value = argv[i + 1];
      consumed = 2;
    } else if (std::strncmp(argv[i], kPrefix, kPrefixLen) == 0) {
      value = argv[i] + kPrefixLen;
    } else {
      continue;
    }
    const int n = parse_thread_count(value);
    if (n == 0) {
      cli::usage_error(std::string("bad value '") + value +
                           "' for --threads (expects an integer in 1..4096)",
                       std::string("usage: ") + argv[0] +
                           " [--threads N] [options]");
    }
    set_thread_count(n);
    for (int j = i + consumed; j < argc; ++j) argv[j - consumed] = argv[j];
    argc -= consumed;
    return thread_count();
  }
  set_thread_count(default_thread_count());
  return thread_count();
}

void for_each_chunk(std::uint64_t n_chunks,
                    const std::function<void(std::uint64_t)>& fn) {
  if (n_chunks == 0) return;
  // A nested region runs inline on the participant that started it.
  const bool nested = g_in_parallel_region;
  const int participants =
      nested ? 1
             : static_cast<int>(std::min<std::uint64_t>(
                   static_cast<std::uint64_t>(thread_count()), n_chunks));
  // Counted once per region on its calling thread, nested regions included,
  // so both counters depend on the workload and never on the thread count.
  CONVOLVE_TELEMETRY_ONLY(t_jobs.add(1); t_tasks.add(n_chunks);
                          if (!nested) t_threads.set(participants);)
  Job job{fn, n_chunks, participants};
  if (participants == 1) {
    job.work(0);
  } else {
    Pool::instance().run(job);
  }
  if (job.error) std::rethrow_exception(job.error);
}

std::uint64_t chunk_count(std::uint64_t n, std::uint64_t grain) {
  if (n == 0) return 0;
  if (grain < 1) grain = 1;
  // Cap the chunk count so tiny grains on huge loops don't flood the pool;
  // 256 chunks keep the shared cursor's load balance fine-grained at any
  // plausible thread count while staying schedule-independent.
  const std::uint64_t by_grain = (n + grain - 1) / grain;
  return std::min<std::uint64_t>(by_grain, 256);
}

Range chunk_range(std::uint64_t n, std::uint64_t n_chunks, std::uint64_t c) {
  const std::uint64_t base = n / n_chunks;
  const std::uint64_t extra = n % n_chunks;
  const std::uint64_t begin = c * base + std::min(c, extra);
  const std::uint64_t size = base + (c < extra ? 1 : 0);
  return Range{begin, begin + size};
}

void parallel_for(std::uint64_t n, const std::function<void(std::uint64_t)>& fn,
                  std::uint64_t grain) {
  const std::uint64_t n_chunks = chunk_count(n, grain);
  if (n_chunks == 0) return;
  for_each_chunk(n_chunks, [&](std::uint64_t c) {
    const Range r = chunk_range(n, n_chunks, c);
    for (std::uint64_t i = r.begin; i < r.end; ++i) fn(i);
  });
}

}  // namespace convolve::par
