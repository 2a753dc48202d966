#include "common/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

namespace bbal::common {

// A loop lives in its caller's stack frame, which is safe because:
//  - a worker joins a loop only under mutex_, and only while it is linked
//    into open_;
//  - the caller unlinks its loop under mutex_ before it waits, so no
//    worker joins it after that;
//  - the last worker to leave notifies `left` while still holding mutex_,
//    so the caller cannot wake, return and destroy the loop before that
//    worker has let go of it.
struct ThreadPool::Loop {
  std::atomic<std::int64_t> next;  ///< first index of the next chunk
  std::int64_t end;
  std::int64_t grain;
  FunctionRef<void(std::int64_t, std::int64_t)> body;
  // Guarded by mutex_: the next loop in open_, the workers running this
  // loop's chunks, and the first body exception.
  Loop* older = nullptr;
  int joined = 0;
  std::exception_ptr error{};
  std::condition_variable left{};  ///< joined fell to 0
};

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = env_threads();
  workers_.reserve(static_cast<std::size_t>(std::max(0, threads - 1)));
  for (int i = 1; i < threads; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_chunks(Loop& loop) {
  for (;;) {
    const std::int64_t c0 =
        loop.next.fetch_add(loop.grain, std::memory_order_relaxed);
    if (c0 >= loop.end) return;
    try {
      loop.body(c0, std::min(c0 + loop.grain, loop.end));
    } catch (...) {
      std::lock_guard<std::mutex> lk(mutex_);
      if (!loop.error) loop.error = std::current_exception();
      loop.next.store(loop.end, std::memory_order_relaxed);  // cancel the rest
    }
  }
}

void ThreadPool::worker_main() {
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    // Join the newest loop with chunks left: a nested loop before the one
    // whose chunk opened it.
    Loop* loop = open_;
    while (loop != nullptr &&
           loop->next.load(std::memory_order_relaxed) >= loop->end)
      loop = loop->older;
    if (loop != nullptr) {
      ++loop->joined;
      lk.unlock();
      run_chunks(*loop);
      lk.lock();
      if (--loop->joined == 0) loop->left.notify_one();
      continue;
    }
    if (stop_) return;
    // The scan above and this wait both hold mutex_, and a loop is linked
    // under it, so no wake-up falls between them.
    wake_.wait(lk);
  }
}

void ThreadPool::parallel_for_chunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    FunctionRef<void(std::int64_t, std::int64_t)> body) {
  if (end <= begin) return;
  const std::int64_t n = end - begin;
  if (grain <= 0) grain = std::max<std::int64_t>(1, n / (4 * thread_count()));
  if (workers_.empty() || n <= grain) {
    body(begin, end);
    return;
  }

  Loop loop{{begin}, end, grain, body};
  {
    std::lock_guard<std::mutex> lk(mutex_);
    loop.older = open_;
    open_ = &loop;
  }
  wake_.notify_all();
  run_chunks(loop);  // the caller always runs chunks of its own loop

  // Another caller's loop may have been linked after this one.
  std::unique_lock<std::mutex> lk(mutex_);
  Loop** link = &open_;
  while (*link != &loop) link = &(*link)->older;
  *link = loop.older;
  loop.left.wait(lk, [&] { return loop.joined == 0; });
  if (loop.error) std::rethrow_exception(loop.error);
}

namespace {
std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;
}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lk(g_global_mutex);
  if (!g_global_pool) g_global_pool = std::make_unique<ThreadPool>();
  return *g_global_pool;
}

void ThreadPool::set_global_threads(int threads) {
  std::lock_guard<std::mutex> lk(g_global_mutex);
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

int ThreadPool::env_threads() {
  if (const char* env = std::getenv("BBAL_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace bbal::common
