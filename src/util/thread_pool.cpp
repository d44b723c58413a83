#include "util/thread_pool.hpp"

#include <cstdlib>
#include <memory>

#include "obs/obs.hpp"

namespace pdnn::util {

namespace {

/// Set while a thread is executing a chunk or holds a SerialScope; run()
/// calls detect it and degrade to a serial loop instead of deadlocking on
/// the shared pool.
thread_local bool tls_inside_pool = false;

/// Execute one chunk, measuring its latency (a "pool.chunk" span on the
/// executing thread plus the summed-latency counter) when instrumentation is
/// enabled. Exceptions propagate to the caller's existing handling; a
/// throwing chunk simply records nothing.
inline void execute_chunk(const std::function<void(std::int64_t)>& fn,
                          std::int64_t c) {
  if (!obs::enabled()) {
    fn(c);
    return;
  }
  const std::int64_t t0 = obs::detail::now_ns();
  fn(c);
  const std::int64_t t1 = obs::detail::now_ns();
  obs::detail::record_span("pool.chunk", t0, t1, "chunk", c);
  obs::counter_add(obs::Counter::kPoolChunkNanos, t1 - t0);
}

std::mutex& global_pool_mutex() {
  static std::mutex mu;
  return mu;
}

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = default_threads();
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run(std::int64_t num_chunks,
                     const std::function<void(std::int64_t)>& fn) {
  if (num_chunks <= 0) return;
  // Work counters are bumped on every path (parallel, serial fallback,
  // nested) so their totals depend only on the submitted jobs, never on the
  // thread count or which path executed them.
  obs::counter_add(obs::Counter::kPoolRuns, 1);
  obs::counter_add(obs::Counter::kPoolChunks, num_chunks);
  obs::counter_max(obs::Counter::kPoolChunksPerRunMax, num_chunks);
  obs::TraceSpan run_span("pool.run", "chunks", num_chunks);
  if (workers_.empty() || num_chunks == 1 || tls_inside_pool) {
    // Serial fallback: same chunks, same order. Results stay bit-identical
    // because chunk partitions never depend on the thread count. The
    // inside-pool flag is left untouched so a single-chunk outer level (e.g.
    // a batch of one sample) still lets nested work fan out.
    for (std::int64_t c = 0; c < num_chunks; ++c) execute_chunk(fn, c);
    return;
  }

  std::lock_guard<std::mutex> run_lock(run_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    num_chunks_ = num_chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    pending_ = num_chunks;
    error_ = nullptr;
    ++epoch_;
  }
  work_cv_.notify_all();

  // The caller claims chunks alongside the workers.
  tls_inside_pool = true;
  for (;;) {
    const std::int64_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= num_chunks) break;
    std::exception_ptr err;
    try {
      execute_chunk(fn, c);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (err && !error_) error_ = err;
    if (--pending_ == 0) break;
  }
  tls_inside_pool = false;

  // Wait until every chunk completed AND every worker left the claim loop:
  // a worker between chunks may still touch next_chunk_ once more, so the
  // job state must stay stable until active_workers_ drops to zero.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0 && active_workers_ == 0; });
  job_ = nullptr;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  tls_inside_pool = true;
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;
    const std::function<void(std::int64_t)>* job = job_;
    const std::int64_t num_chunks = num_chunks_;
    if (job == nullptr) continue;  // woke after the job already drained
    ++active_workers_;
    lock.unlock();

    for (;;) {
      const std::int64_t c =
          next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      std::exception_ptr err;
      try {
        execute_chunk(*job, c);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> done_lock(mu_);
      if (err && !error_) error_ = err;
      if (--pending_ == 0) break;
    }

    lock.lock();
    if (--active_workers_ == 0 && pending_ == 0) done_cv_.notify_all();
  }
}

SerialScope::SerialScope() : was_inside_(tls_inside_pool) {
  tls_inside_pool = true;
}

SerialScope::~SerialScope() { tls_inside_pool = was_inside_; }

int ThreadPool::default_threads() {
  if (const char* env = std::getenv("PDNN_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_pool_mutex());
  std::unique_ptr<ThreadPool>& pool = global_pool_slot();
  if (!pool) pool = std::make_unique<ThreadPool>();
  return *pool;
}

void ThreadPool::set_global_threads(int num_threads) {
  std::lock_guard<std::mutex> lock(global_pool_mutex());
  global_pool_slot() = std::make_unique<ThreadPool>(num_threads);
}

}  // namespace pdnn::util
