#include "common/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <utility>

namespace bbal::common {

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = env_threads();
  const int workers = std::max(0, threads - 1);
  queues_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back(
        [this, i] { worker_main(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(sleep_mutex_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::try_enqueue_helper(std::function<void()> task) {
  const std::size_t start =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  bool pushed = false;
  for (std::size_t i = 0; i < queues_.size() && !pushed; ++i) {
    WorkerQueue& q = *queues_[(start + i) % queues_.size()];
    std::lock_guard<std::mutex> lk(q.mutex);
    if (q.tasks.empty()) {
      q.tasks.push_front(std::move(task));
      pushed = true;
    }
  }
  if (!pushed) return false;
  // Fence against the workers' check-then-wait: a worker holds sleep_mutex_
  // from its (failed) queue re-scan all the way into sleep_cv_.wait, so by
  // acquiring it here *after* the push we guarantee the notify lands either
  // after the worker started waiting or after a scan that saw the task —
  // never in between (which would put the worker to sleep with work
  // pending and silently serialise the loop).
  { std::lock_guard<std::mutex> lk(sleep_mutex_); }
  sleep_cv_.notify_all();
  return true;
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& task) {
  // Own queue first (back = most recently pushed, cache-warm)...
  {
    WorkerQueue& q = *queues_[self];
    std::lock_guard<std::mutex> lk(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
      return true;
    }
  }
  // ...then steal from the front of the others.
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    WorkerQueue& q = *queues_[(self + i) % queues_.size()];
    std::lock_guard<std::mutex> lk(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_main(std::size_t self) {
  std::function<void()> task;
  for (;;) {
    if (try_pop(self, task)) {
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lk(sleep_mutex_);
    if (stop_) return;
    // Re-check under the lock: an enqueue between the failed pop and this
    // wait would otherwise be missed until the next notify.
    bool any = false;
    for (const auto& q : queues_) {
      std::lock_guard<std::mutex> qlk(q->mutex);
      if (!q->tasks.empty()) {
        any = true;
        break;
      }
    }
    if (any) continue;
    sleep_cv_.wait(lk);
  }
}

namespace {

/// Shared state of one parallel_for: an atomic cursor over the index range
/// (the work-stealing of *iterations* — whoever is free grabs the next
/// chunk) plus completion/error bookkeeping for the waiting caller.
struct LoopState {
  std::atomic<std::int64_t> next;
  std::int64_t end;
  std::int64_t grain;
  const FunctionRef<void(std::int64_t, std::int64_t)>* body;

  std::atomic<int> active{0};  ///< threads currently inside the chunk loop
  std::mutex mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;

  void run_chunks() {
    active.fetch_add(1, std::memory_order_acq_rel);
    for (;;) {
      const std::int64_t c0 = next.fetch_add(grain, std::memory_order_relaxed);
      if (c0 >= end) break;
      const std::int64_t c1 = std::min(c0 + grain, end);
      try {
        (*body)(c0, c1);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mutex);
        if (!error) error = std::current_exception();
        next.store(end, std::memory_order_relaxed);  // cancel the rest
      }
    }
    if (active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(mutex);
      done_cv.notify_all();
    }
  }
};

}  // namespace

void ThreadPool::parallel_for_chunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    FunctionRef<void(std::int64_t, std::int64_t)> body) {
  if (end <= begin) return;
  const std::int64_t n = end - begin;
  const int executors = thread_count();
  if (grain <= 0)
    grain = std::max<std::int64_t>(1, n / (4 * executors));
  if (executors <= 1 || n <= grain) {
    body(begin, end);
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->grain = grain;
  state->body = &body;

  // Offer helper tasks to the pool — at most one per worker, never more
  // than there are chunks, and only while empty queues exist (a saturated
  // pool can't use more). Late helpers (picked up after the caller drained
  // the range) find next >= end and return without touching `body`, so the
  // shared_ptr keeps everything they access alive.
  const std::int64_t chunks = (n + grain - 1) / grain;
  const std::int64_t helpers =
      std::min<std::int64_t>(static_cast<std::int64_t>(workers_.size()),
                             chunks - 1);
  for (std::int64_t h = 0; h < helpers; ++h)
    if (!try_enqueue_helper([state] { state->run_chunks(); })) break;

  state->run_chunks();  // the caller always participates

  // Wait for helpers still executing a chunk; they depend on nobody, so
  // this cannot deadlock (nested loops included).
  {
    std::unique_lock<std::mutex> lk(state->mutex);
    state->done_cv.wait(lk, [&] {
      return state->active.load(std::memory_order_acquire) == 0;
    });
    if (state->error) std::rethrow_exception(state->error);
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              FunctionRef<void(std::int64_t)> body) {
  parallel_for_chunks(begin, end, /*grain=*/0,
                      [body](std::int64_t c0, std::int64_t c1) {
                        for (std::int64_t i = c0; i < c1; ++i) body(i);
                      });
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
