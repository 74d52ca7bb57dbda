// Deterministic parallel execution engine.
//
// A small chunked thread pool behind a `parallel_for` primitive. Design
// rules, in order of priority:
//
//  1. Determinism: the pool never decides *what* is computed, only *where*.
//     Callers partition work into independent items (columns, channels,
//     sites, pixels) whose mutable state — including per-item RNG streams —
//     is owned by exactly one item, so results are bitwise-identical for
//     any thread count, including 1.
//  2. Serial fallback: with one thread (or one chunk) the body runs inline
//     on the caller with zero synchronization, so single-core behaviour and
//     debuggability are unchanged.
//  3. Re-entrancy: a `parallel_for` issued from inside a worker runs
//     serially instead of deadlocking, so library layers can parallelize
//     without coordinating with their callers. So does one issued by a
//     second thread while another caller's job holds the pool.
//
// Thread count defaults to the hardware concurrency and can be overridden
// globally (`set_max_threads`) or by the BIOSENSE_THREADS environment
// variable — benches sweep it, tests pin it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace biosense {

/// Worker pool executing half-open index ranges in grain-sized chunks.
/// Chunks are claimed dynamically (work-stealing from a shared counter),
/// which balances uneven per-item cost without affecting results.
class ThreadPool {
 public:
  /// Creates a pool that runs jobs on `n_threads` threads total (the
  /// calling thread participates, so `n_threads - 1` workers are spawned).
  explicit ThreadPool(int n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute a job (workers + caller), >= 1.
  int size() const { return n_threads_; }

  /// Runs `body(i)` for every i in [begin, end), distributing grain-sized
  /// chunks over the pool. Blocks until every index has been processed.
  /// The first exception thrown by any invocation is rethrown on the
  /// caller after the range completes or drains. Runs inline when
  /// `try_parallel_for` would decline.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t)>& body);

  /// As `parallel_for`, but runs nothing and returns false instead of
  /// running inline: with one thread, one chunk, from inside a pool job,
  /// or while another caller's job holds the pool. For bodies that must
  /// run concurrently, such as stage loops that block on each other.
  bool try_parallel_for(std::int64_t begin, std::int64_t end,
                        std::int64_t grain,
                        const std::function<void(std::int64_t)>& body);

  /// The process-wide pool used by the free `parallel_for`. Sized by
  /// `set_max_threads`, the BIOSENSE_THREADS environment variable, or the
  /// hardware concurrency, in that order.
  static ThreadPool& global();

 private:
  struct Job {
    std::int64_t end = 0;
    std::int64_t grain = 1;
    const std::function<void(std::int64_t)>* body = nullptr;
  };

  void worker_loop();
  void run_chunks(const Job& job);

  int n_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  Job job_;
  std::uint64_t generation_ = 0;   // bumped per job; workers wait on it
  int active_workers_ = 0;         // workers still inside the current job
  bool shutdown_ = false;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  std::atomic<std::int64_t> next_{0};  // next unclaimed index of the job
  std::atomic<bool> busy_{false};      // a top-level caller holds the pool
};

/// Threads used by the global pool (>= 1).
int max_threads();

/// Resizes the global pool to `n` threads (clamped to >= 1). Takes effect
/// immediately; intended for benches and determinism tests. Not safe to
/// call concurrently with a running `parallel_for`.
void set_max_threads(int n);

/// Runs `body(i)` for i in [begin, end) on the global pool. `grain` is the
/// number of consecutive indices a thread claims at once; use larger grains
/// for cheap bodies. Runs inline when the range fits one chunk, the pool
/// has one thread, the caller is itself a pool worker, or another caller's
/// job holds the pool.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body,
                  std::int64_t grain = 1);

}  // namespace biosense
