#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace crowdlearn::util {
namespace {

TEST(ThreadPool, SubmitReturnsResultThroughFuture) {
  ThreadPool pool(4);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  auto fut = pool.submit([] { return std::this_thread::get_id(); });
  EXPECT_EQ(fut.get(), std::this_thread::get_id());
}

TEST(ThreadPool, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesBodyException) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.parallel_for(100,
                                   [](std::size_t i) {
                                     if (i == 57) throw std::invalid_argument("bad index");
                                   }),
                 std::invalid_argument);
  }
}

TEST(ThreadPool, ChunkExceptionDoesNotCancelOtherChunks) {
  // A failing chunk must not cancel the others: parallel_chunks waits for
  // every chunk to finish, then rethrows.
  ThreadPool pool(4);
  std::vector<int> visited(64, 0);
  EXPECT_THROW(pool.parallel_chunks(visited.size(),
                                    [&](std::size_t begin, std::size_t end) {
                                      for (std::size_t i = begin; i < end; ++i) visited[i] = 1;
                                      if (begin == 0) throw std::runtime_error("first chunk");
                                    }),
               std::runtime_error);
  EXPECT_EQ(std::accumulate(visited.begin(), visited.end(), 0),
            static_cast<int>(visited.size()));
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] { return 1; }), std::runtime_error);
  pool.shutdown();  // idempotent
  // Single-threaded (inline) pools obey the same contract.
  ThreadPool inline_pool(1);
  inline_pool.shutdown();
  EXPECT_THROW(inline_pool.submit([] { return 1; }), std::runtime_error);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForSingleElementRange) {
  ThreadPool pool(4);
  std::vector<int> hits(1, 0);
  pool.parallel_for(1, [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ThreadPool, ParallelForOddSizedRangesCoverEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t n : {std::size_t{3}, std::size_t{7}, std::size_t{101}, std::size_t{1013}}) {
    std::vector<int> hits(n, 0);
    pool.parallel_for(n, [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "index " << i << " of " << n;
  }
}

TEST(ThreadPool, ParallelChunksAreContiguousAndOrdered) {
  ThreadPool pool(3);
  std::vector<std::pair<std::size_t, std::size_t>> bounds(pool.size(),
                                                          {std::size_t{0}, std::size_t{0}});
  std::atomic<std::size_t> next{0};
  pool.parallel_chunks(10, [&](std::size_t begin, std::size_t end) {
    bounds[next.fetch_add(1)] = {begin, end};
  });
  // Chunk boundaries depend only on (n, size): sorted they must tile [0, 10).
  std::sort(bounds.begin(), bounds.end());
  std::size_t expect_begin = 0;
  for (const auto& [begin, end] : bounds) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_GT(end, begin);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, 10u);
}

TEST(ThreadPool, ReusableAcrossManyWaves) {
  ThreadPool pool(4);
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<std::size_t> out(17, 0);
    pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, NestedParallelismRunsInlineInsteadOfDeadlocking) {
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  pool.parallel_for(4, [&](std::size_t) {
    // A parallel section reached from inside a task must complete even when
    // every other worker is busy: its caller claims chunks itself and never
    // waits on a chunk nobody has claimed.
    pool.parallel_for(8, [&](std::size_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_EQ(inner_calls.load(), 32);
}

/// Counts arrivals and lets waiters block until a target count is reached,
/// with a generous timeout so a broken pool fails a test instead of hanging
/// it. One arrival with waiters on a count of 1 is a gate.
class Arrivals {
 public:
  void arrive() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++count_;
    cv_.notify_all();
  }
  bool wait_for_count(int n, std::chrono::seconds timeout = std::chrono::seconds(30)) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return count_ >= n; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int count_ = 0;
};

TEST(ThreadPool, NestedSectionOnIdlePoolRunsOnSeveralThreads) {
  // A section reached from inside a task on an otherwise idle pool is helped
  // by the idle workers. Each chunk waits (with a timeout) until a second
  // chunk has started, which can only happen on a second thread.
  ThreadPool pool(4);
  Arrivals started;
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  std::atomic<bool> all_met{true};
  auto fut = pool.submit([&] {
    pool.parallel_chunks(4, [&](std::size_t, std::size_t) {
      {
        std::lock_guard<std::mutex> lock(ids_mutex);
        ids.insert(std::this_thread::get_id());
      }
      started.arrive();
      if (!started.wait_for_count(2)) all_met = false;
    });
  });
  fut.get();
  EXPECT_TRUE(all_met.load()) << "no second thread ever joined the nested section";
  EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, NestedSectionCompletesWhileOtherWorkersAreBlocked) {
  ThreadPool pool(4);
  Arrivals gate;
  Arrivals blocked;
  std::vector<std::future<bool>> blockers;
  for (int i = 0; i < 3; ++i) {
    blockers.push_back(pool.submit([&] {
      blocked.arrive();
      return gate.wait_for_count(1);
    }));
  }
  ASSERT_TRUE(blocked.wait_for_count(3));
  // The fourth worker runs a section whose runners can find no free worker:
  // its caller must finish every chunk alone.
  std::vector<int> hits(100, 0);
  auto nested = pool.submit([&] {
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  });
  const bool nested_done = nested.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  gate.arrive();
  for (auto& b : blockers) EXPECT_TRUE(b.get());
  ASSERT_TRUE(nested_done) << "nested section stalled behind blocked workers";
  nested.get();
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SectionCompletesOnCallerWhenEveryWorkerIsBlocked) {
  ThreadPool pool(4);
  Arrivals gate;
  Arrivals blocked;
  std::vector<std::future<bool>> blockers;
  for (int i = 0; i < 4; ++i) {
    blockers.push_back(pool.submit([&] {
      blocked.arrive();
      return gate.wait_for_count(1);
    }));
  }
  ASSERT_TRUE(blocked.wait_for_count(4));
  std::set<std::thread::id> ids;
  pool.parallel_chunks(40, [&](std::size_t, std::size_t) {
    ids.insert(std::this_thread::get_id());  // only the caller can be here
  });
  gate.arrive();
  for (auto& b : blockers) EXPECT_TRUE(b.get());
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ThreadPool, SectionExceptionsRethrowInChunkOrder) {
  // Chunks finish in any order; the rethrown failure is the lowest-index one.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    try {
      pool.parallel_chunks(8, [](std::size_t begin, std::size_t) {
        if (begin != 0) throw std::runtime_error(std::to_string(begin));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "2");  // 8 items over 4 chunks: begins 0, 2, 4, 6
    }
    try {
      pool.parallel_chunks(8, [](std::size_t begin, std::size_t) {
        throw std::runtime_error(std::to_string(begin));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "0");
    }
  }
}

TEST(ThreadPool, BackToBackSectionsLeaveNoStaleRunnerHazard) {
  // Runners can wake after their section returned. Each section here owns
  // short-lived stack state; a stale runner that touched it would be a
  // use-after-scope (ASan) or a race (TSan), and a lost chunk would show as
  // a missing hit. Nested sections add runners from inside tasks.
  ThreadPool pool(4);
  for (int s = 0; s < 1000; ++s) {
    std::vector<int> hits(7 + s % 13, 0);
    if (s % 4 == 0) {
      pool.submit([&] {
        pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
      }).get();
    } else {
      pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
    }
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i], 1) << "section " << s << " index " << i;
  }
}

TEST(ThreadPool, ResolveThreadCountPrefersExplicitRequest) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST(ThreadPool, ResolveThreadCountReadsEnvironment) {
  ASSERT_EQ(setenv("CROWDLEARN_THREADS", "5", 1), 0);
  EXPECT_EQ(resolve_thread_count(0), 5u);
  EXPECT_EQ(resolve_thread_count(2), 2u);  // explicit request still wins
  ASSERT_EQ(setenv("CROWDLEARN_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(resolve_thread_count(0), 1u);  // malformed values fall through
  ASSERT_EQ(setenv("CROWDLEARN_THREADS", "-3", 1), 0);
  EXPECT_LE(resolve_thread_count(0), 4096u);  // negatives must not wrap to 2^64
  ASSERT_EQ(setenv("CROWDLEARN_THREADS", "99999999", 1), 0);
  EXPECT_LE(resolve_thread_count(0), 4096u);  // absurd counts fall through
  ASSERT_EQ(unsetenv("CROWDLEARN_THREADS"), 0);
}

}  // namespace
}  // namespace crowdlearn::util
