#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace biosense {

namespace {

// Set while a pool thread (or a caller inside parallel_for) is executing a
// job; nested parallel_for calls then run serially instead of deadlocking
// on the shared pool.
thread_local bool t_inside_job = false;

int default_threads() {
  if (const char* env = std::getenv("BIOSENSE_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
int g_requested_threads = 0;  // 0 = not configured yet

ThreadPool& locked_global(int threads) {
  if (!g_pool || g_pool->size() != threads) {
    g_pool = std::make_unique<ThreadPool>(threads);
  }
  return *g_pool;
}

}  // namespace

ThreadPool::ThreadPool(int n_threads) : n_threads_(std::max(1, n_threads)) {
  workers_.reserve(static_cast<std::size_t>(n_threads_ - 1));
  for (int i = 0; i < n_threads_ - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunks(const Job& job) {
  const bool was_inside = t_inside_job;
  t_inside_job = true;
  for (;;) {
    const std::int64_t chunk_begin = next_.fetch_add(job.grain);
    if (chunk_begin >= job.end) break;
    BIOSENSE_COUNT("parallel.chunks", 1);
    const std::int64_t chunk_end = std::min(job.end, chunk_begin + job.grain);
    try {
      for (std::int64_t i = chunk_begin; i < chunk_end; ++i) (*job.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      // Keep draining remaining chunks so sibling threads finish cleanly;
      // the stored exception is rethrown on the caller.
    }
  }
  t_inside_job = was_inside;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
    }
    {
      BIOSENSE_SPAN("parallel.worker_job");
      run_chunks(job);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              std::int64_t grain,
                              const std::function<void(std::int64_t)>& body) {
  if (begin >= end || try_parallel_for(begin, end, grain, body)) return;
  BIOSENSE_COUNT("parallel.serial_runs", 1);
  for (std::int64_t i = begin; i < end; ++i) body(i);
}

bool ThreadPool::try_parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t)>& body) {
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t n = end - begin;
  // One thread, one chunk, or a nested call from inside a job (re-entrant
  // use of the shared pool would deadlock); then a second top-level caller,
  // which would overwrite the running job.
  if (n_threads_ == 1 || n <= grain || t_inside_job ||
      busy_.exchange(true)) {
    return false;
  }

  BIOSENSE_SPAN("parallel.for");
  BIOSENSE_COUNT("parallel.jobs", 1);
  BIOSENSE_OBSERVE("parallel.items_per_job",
                   ::biosense::obs::decade_buckets(10.0, 6), n);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = Job{end, grain, &body};
    next_.store(begin, std::memory_order_relaxed);
    first_error_ = nullptr;
    active_workers_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  start_cv_.notify_all();

  run_chunks(job_);  // the caller participates

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  busy_.store(false);
  if (error) std::rethrow_exception(error);
  return true;
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_requested_threads == 0) g_requested_threads = default_threads();
  return locked_global(g_requested_threads);
}

int max_threads() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_requested_threads == 0) g_requested_threads = default_threads();
  return g_requested_threads;
}

void set_max_threads(int n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_requested_threads = std::max(1, n);
  locked_global(g_requested_threads);
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body,
                  std::int64_t grain) {
  ThreadPool::global().parallel_for(begin, end, grain, body);
}

}  // namespace biosense
