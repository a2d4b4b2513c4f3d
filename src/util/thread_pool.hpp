#pragma once
// Deterministic thread-pool parallelism.
//
// The library's reproducibility contract is bit-identical outputs per seed,
// so the pool is built around three rules that every caller must follow:
//   1. Static chunking: work over [0, n) is split into at most size()
//      contiguous chunks whose boundaries depend only on n and size() — never
//      on timing — and each chunk writes to disjoint, preallocated slots.
//   2. Ordered reduction: chunk/task results are combined on the calling
//      thread in index order; no atomics-based accumulation of doubles.
//   3. Pre-split randomness: tasks never draw from a shared Rng. Callers fork
//      one child stream per task from the master seed *before* dispatch.
// Under those rules the outputs are byte-identical for any thread count,
// which tests/test_determinism.cpp locks in.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/observability.hpp"

namespace crowdlearn::util {

/// Thread count used by a component: an explicit request wins, otherwise the
/// CROWDLEARN_THREADS environment variable, otherwise hardware_concurrency
/// (never less than 1).
std::size_t resolve_thread_count(std::size_t requested = 0);

/// Fixed-size worker pool with exception-propagating futures.
///
/// A pool constructed with one thread spawns no workers at all: submit() runs
/// the task inline on the caller, so serial runs pay zero synchronization
/// cost and single-threaded determinism is trivial.
///
/// Nesting. submit() from one of this pool's own workers runs the task
/// inline. A parallel section (parallel_chunks*, parallel_for) instead takes
/// its caller as one of its runners, worker or not: the caller and queued
/// runner tasks claim chunk indices from a shared counter, and the caller
/// returns once every chunk has finished. The caller never runs a foreign
/// queued task, so a section reached from inside a task cannot deadlock on a
/// fully busy pool (it completes on the caller alone) and never re-enters
/// other queued work such as a service lane; idle workers, when there are
/// any, help with its chunks.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (>= 1; 1 means inline execution).
  std::size_t size() const { return threads_; }

  /// Stop accepting tasks, finish the queued ones and join the workers.
  /// Idempotent; called by the destructor. submit() afterwards throws.
  void shutdown();

  /// Wire (or unwire, with an inactive/null context) pool metrics: task
  /// count, per-task latency histogram, and queue depth gauge. Handles are
  /// atomics because workers may already be running when this is called; the
  /// Observability object must outlive the pool. Never affects scheduling.
  void set_observability(obs::Observability* o);

  /// Queue one task. The returned future carries the result or the thrown
  /// exception. Runs inline when the pool is single-threaded, already shut
  /// down tasks throw, or when called from one of this pool's own workers.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    bool inline_run = workers_.empty() || current_pool() == this;
    if (!inline_run) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (shutdown_) throw std::runtime_error("ThreadPool::submit after shutdown");
      queue_.push([this, task] { run_instrumented(*task); });
      update_queue_depth_locked();
      lock.unlock();
      cv_.notify_one();
      return fut;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (shutdown_) throw std::runtime_error("ThreadPool::submit after shutdown");
    }
    run_instrumented(*task);
    return fut;
  }

  /// Run fn(begin, end) over static contiguous chunks of [0, n), at most one
  /// chunk per worker. Waits for every chunk, then rethrows the first failure
  /// in chunk order. Chunk boundaries depend only on n and size(); which
  /// thread runs a chunk depends on timing (see the nesting note above).
  template <typename ChunkFn>
  void parallel_chunks(std::size_t n, ChunkFn&& fn) {
    parallel_chunks_grained(n, 1, std::forward<ChunkFn>(fn));
  }

  /// parallel_chunks with a minimum grain: the chunk count is additionally
  /// capped at n / min_grain, so no chunk is smaller than min_grain items
  /// (tiny workloads run inline instead of paying dispatch overhead). Chunk
  /// boundaries depend only on n, size() and min_grain — never on timing —
  /// so the determinism contract above is unchanged.
  template <typename ChunkFn>
  void parallel_chunks_grained(std::size_t n, std::size_t min_grain, ChunkFn&& fn) {
    if (n == 0) return;
    if (min_grain == 0) min_grain = 1;
    const std::size_t chunks = std::min({size(), n, std::max<std::size_t>(1, n / min_grain)});
    if (chunks <= 1) {
      fn(std::size_t{0}, n);
      return;
    }
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;
    auto run_chunk = [&fn, base, extra](std::size_t c) {
      const std::size_t begin = c * base + std::min(c, extra);
      fn(begin, begin + base + (c < extra ? 1 : 0));
    };
    run_section(chunks, [](void* ctx, std::size_t c) {
      (*static_cast<decltype(run_chunk)*>(ctx))(c);
    }, &run_chunk);
  }

  /// Run body(i) for every i in [0, n), chunked as in parallel_chunks.
  template <typename Body>
  void parallel_for(std::size_t n, Body&& body) {
    parallel_chunks(n, [&body](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }

  /// Wait on every future (so no task can outlive its captures), then
  /// rethrow the first exception in index order.
  static void wait_all(std::vector<std::future<void>>& futures) {
    std::exception_ptr first;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  }

 private:
  /// The pool whose worker is executing the current thread, if any.
  static ThreadPool*& current_pool();
  void worker_loop();

  /// One parallel section's shared state. Runner tasks hold it by shared_ptr
  /// because a runner may wake after its section has returned; such a runner
  /// finds every chunk claimed and exits without touching `run`, which points
  /// into the (by then gone) caller's frame. A runner that claims a chunk
  /// keeps the caller waiting until that chunk finishes, so `run` is alive
  /// for every call made through it.
  struct Section {
    Section(std::size_t n, void (*r)(void*, std::size_t), void* c)
        : chunks(n), run(r), ctx(c), errors(n) {}
    const std::size_t chunks;
    void (*const run)(void*, std::size_t);
    void* const ctx;
    std::vector<std::exception_ptr> errors;  ///< one slot per chunk
    std::atomic<std::size_t> next{0};        ///< next unclaimed chunk
    std::mutex mutex;
    std::size_t done = 0;  ///< finished chunks; guarded by mutex
    std::condition_variable cv;  ///< signalled when done reaches chunks
  };

  /// Claim and run chunks of `s` until none is left; returns how many this
  /// thread ran. Failures land in the chunk's error slot.
  static std::size_t drain_section(Section& s);

  /// Queue chunks - 1 runners, run chunks on the caller too, wait for every
  /// chunk, then rethrow the first failure in chunk order.
  void run_section(std::size_t chunks, void (*run)(void*, std::size_t), void* ctx);

  /// Execute one task, recording count + latency when handles are wired.
  /// The metric path reads only the steady clock — no RNG, no feedback into
  /// scheduling — so determinism is unaffected.
  ///
  /// The count is recorded BEFORE the task body runs: executing a
  /// packaged_task makes its future ready, and a caller joining on that
  /// future may snapshot the registry immediately — a post-execution inc()
  /// could be missed by that snapshot, making tasks_total depend on
  /// scheduling (it must not: deterministic exports compare it bit-exactly).
  template <typename Task>
  void run_instrumented(Task& task) {
    obs::Histogram* hist = obs_task_seconds_.load(std::memory_order_acquire);
    obs::Counter* total = obs_tasks_total_.load(std::memory_order_acquire);
    if (hist == nullptr && total == nullptr) {
      task();
      return;
    }
    if (total != nullptr) total->inc();
    const auto t0 = std::chrono::steady_clock::now();
    task();  // packaged_task: exceptions land in the future, not here
    if (hist != nullptr) {
      hist->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
  }

  /// Publish queue_.size(); requires mutex_ held.
  void update_queue_depth_locked() {
    if (obs::Gauge* g = obs_queue_depth_.load(std::memory_order_acquire)) {
      g->set(static_cast<double>(queue_.size()));
    }
  }

  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  std::atomic<obs::Counter*> obs_tasks_total_{nullptr};
  std::atomic<obs::Gauge*> obs_queue_depth_{nullptr};
  std::atomic<obs::Histogram*> obs_task_seconds_{nullptr};
};

}  // namespace crowdlearn::util
