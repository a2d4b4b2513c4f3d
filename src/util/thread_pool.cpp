#include "util/thread_pool.hpp"

#include <cstdlib>
#include <memory>
#include <stdexcept>

namespace crowdlearn::util {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("CROWDLEARN_THREADS")) {
    // strtoul silently negates "-3" to a huge value, so parse as signed and
    // cap at a sane ceiling; malformed or out-of-range values fall through.
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 4096) return static_cast<std::size_t>(v);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

ThreadPool*& ThreadPool::current_pool() {
  static thread_local ThreadPool* current = nullptr;
  return current;
}

ThreadPool::ThreadPool(std::size_t num_threads) : threads_(resolve_thread_count(num_threads)) {
  if (threads_ < 2) return;  // inline mode: no workers, submit() runs on the caller
  workers_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
}

void ThreadPool::worker_loop() {
  current_pool() = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop();
      update_queue_depth_locked();
    }
    task();  // instrumented wrapper; packaged_task captures any exception
  }
}

std::size_t ThreadPool::drain_section(Section& s) {
  std::size_t ran = 0;
  for (std::size_t c = s.next.fetch_add(1); c < s.chunks; c = s.next.fetch_add(1)) {
    try {
      s.run(s.ctx, c);
    } catch (...) {
      s.errors[c] = std::current_exception();
    }
    ++ran;
  }
  return ran;
}

void ThreadPool::run_section(std::size_t chunks, void (*run)(void*, std::size_t), void* ctx) {
  auto section = std::make_shared<Section>(chunks, run, ctx);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) throw std::runtime_error("ThreadPool: parallel section after shutdown");
    for (std::size_t r = 1; r < chunks; ++r) {
      queue_.push([this, section] {
        auto runner = [&s = *section] {
          const std::size_t ran = drain_section(s);
          if (ran == 0) return;  // woke after every chunk was claimed
          std::lock_guard<std::mutex> section_lock(s.mutex);
          s.done += ran;
          if (s.done == s.chunks) s.cv.notify_one();
        };
        run_instrumented(runner);
      });
    }
    update_queue_depth_locked();
  }
  if (chunks - 1 >= threads_) {
    cv_.notify_all();
  } else {
    for (std::size_t r = 1; r < chunks; ++r) cv_.notify_one();
  }

  Section& s = *section;
  const std::size_t ran = drain_section(s);
  {
    // Every chunk is claimed by now; wait for the ones runners still hold.
    std::unique_lock<std::mutex> lock(s.mutex);
    s.done += ran;
    s.cv.wait(lock, [&s] { return s.done == s.chunks; });
  }
  std::exception_ptr first;
  for (const std::exception_ptr& e : s.errors) {
    if (e) {
      first = e;
      break;
    }
  }
  // Release every chunk's exception here: a late runner may hold the last
  // reference to the section and destroy it on its own thread, which must
  // not be where an exception object thrown to this caller dies.
  s.errors.clear();
  if (first) std::rethrow_exception(first);
}

void ThreadPool::set_observability(obs::Observability* o) {
  if (!obs::active(o)) {
    obs_tasks_total_.store(nullptr, std::memory_order_release);
    obs_queue_depth_.store(nullptr, std::memory_order_release);
    obs_task_seconds_.store(nullptr, std::memory_order_release);
    return;
  }
  obs::MetricsRegistry& m = o->metrics();
  obs_tasks_total_.store(&m.counter("crowdlearn_pool_tasks_total"),
                         std::memory_order_release);
  obs_queue_depth_.store(&m.gauge("crowdlearn_pool_queue_depth"),
                         std::memory_order_release);
  obs_task_seconds_.store(
      &m.histogram("crowdlearn_pool_task_seconds",
                   obs::Histogram::exponential_bounds(1e-6, 4.0, 12)),
      std::memory_order_release);
}

}  // namespace crowdlearn::util
