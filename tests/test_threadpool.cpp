// common::ThreadPool: coverage/ordering of parallel_for_chunks, exception
// propagation, nesting, concurrent callers, workers joining a loop and the
// 1-thread degenerate case.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/threadpool.hpp"

namespace bbal::common {
namespace {

/// body(i) for every i in [begin, end), on the pool's default chunking.
template <typename Body>
void for_each_index(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                    Body&& body) {
  pool.parallel_for_chunks(begin, end, /*grain=*/0,
                           [&](std::int64_t c0, std::int64_t c1) {
                             for (std::int64_t i = c0; i < c1; ++i) body(i);
                           });
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  constexpr int kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  for_each_index(pool, 0, kN, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < kN; ++i) ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1)
      << "index " << i;
}

TEST(ThreadPool, ResultsMatchSerialAtAnyThreadCount) {
  // Disjoint writes -> the output is bit-identical whatever the pool size;
  // this is the determinism contract the bench gate relies on.
  constexpr int kN = 4096;
  std::vector<double> serial(kN);
  for (int i = 0; i < kN; ++i)
    serial[static_cast<std::size_t>(i)] = static_cast<double>(i) * 1.5 + 0.25;
  for (const int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    std::vector<double> parallel(kN, -1.0);
    pool.parallel_for_chunks(0, kN, /*grain=*/7,
                             [&](std::int64_t c0, std::int64_t c1) {
                               for (std::int64_t i = c0; i < c1; ++i)
                                 parallel[static_cast<std::size_t>(i)] =
                                     static_cast<double>(i) * 1.5 + 0.25;
                             });
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(ThreadPool, ChunksPartitionTheRange) {
  ThreadPool pool(3);
  std::mutex m;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  pool.parallel_for_chunks(5, 105, /*grain=*/9,
                           [&](std::int64_t c0, std::int64_t c1) {
                             std::lock_guard<std::mutex> lk(m);
                             chunks.emplace_back(c0, c1);
                           });
  std::sort(chunks.begin(), chunks.end());
  std::int64_t expected_begin = 5;
  for (const auto& [c0, c1] : chunks) {
    EXPECT_EQ(c0, expected_begin);
    EXPECT_GT(c1, c0);
    EXPECT_LE(c1 - c0, 9);
    expected_begin = c1;
  }
  EXPECT_EQ(expected_begin, 105);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      for_each_index(pool, 0, 1000,
                     [&](std::int64_t i) {
                       ran.fetch_add(1);
                       if (i == 57) throw std::runtime_error("boom");
                     }),
      std::runtime_error);
  // Cancellation: not every index after the throw needs to run.
  EXPECT_GE(ran.load(), 1);
  // The pool stays usable after a failed loop.
  std::atomic<int> after{0};
  for_each_index(pool, 0, 64, [&](std::int64_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool(4);
  constexpr int kOuter = 12;
  constexpr int kInner = 256;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for_each_index(pool, 0, kOuter, [&](std::int64_t o) {
    for_each_index(pool, 0, kInner, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(1);
    });
  });
  for (int i = 0; i < kOuter * kInner; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1) << "slot " << i;
}

TEST(ThreadPool, NestedExceptionPropagatesThroughBothLevels) {
  ThreadPool pool(3);
  EXPECT_THROW(for_each_index(pool, 0, 8,
                              [&](std::int64_t o) {
                                for_each_index(pool, 0, 8, [&](std::int64_t i) {
                                  if (o == 3 && i == 5)
                                    throw std::runtime_error("inner");
                                });
                              }),
               std::runtime_error);
}

TEST(ThreadPool, SingleThreadRunsInlineOnCallerThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  int count = 0;  // non-atomic on purpose: everything must run inline
  for_each_index(pool, 0, 500, [&](std::int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++count;
  });
  EXPECT_EQ(count, 500);
}

TEST(ThreadPool, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(2);
  int count = 0;
  for_each_index(pool, 0, 0, [&](std::int64_t) { ++count; });
  for_each_index(pool, 10, 3, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(ThreadPool, WorkersJoinTheLoop) {
  // Each of two chunks waits until both are inside, so two distinct
  // threads show only if a worker joined the loop; a serialised pool passes
  // every other test here. The sleep lets the worker park first, so what
  // is tested is the loop waking it.
  ThreadPool pool(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::mutex m;
  std::condition_variable both_inside;
  std::vector<std::thread::id> ids;
  pool.parallel_for_chunks(0, 2, /*grain=*/1, [&](std::int64_t, std::int64_t) {
    std::unique_lock<std::mutex> lk(m);
    ids.push_back(std::this_thread::get_id());
    both_inside.notify_all();
    both_inside.wait_until(lk, deadline, [&] { return ids.size() == 2; });
  });
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], ids[1]);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  // Outside threads open nested loops on one pool at once, so a caller
  // often unlinks a loop that is not the newest open one.
  ThreadPool pool(4);
  constexpr int kCallers = 3;
  constexpr int kOuter = 16;
  constexpr int kInner = 64;
  std::vector<std::atomic<int>> hits(kCallers * kOuter * kInner);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      for_each_index(pool, 0, kOuter, [&](std::int64_t o) {
        for_each_index(pool, 0, kInner, [&](std::int64_t i) {
          hits[static_cast<std::size_t>((c * kOuter + o) * kInner + i)]
              .fetch_add(1);
        });
      });
    });
  for (std::thread& t : callers) t.join();
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], 1) << "slot " << i;
}

TEST(ThreadPool, GlobalPoolHonoursSetGlobalThreads) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().thread_count(), 3);
  std::atomic<int> hits{0};
  for_each_index(ThreadPool::global(), 0, 128,
                 [&](std::int64_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 128);
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

}  // namespace
}  // namespace bbal::common
