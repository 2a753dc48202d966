// Fork-join thread pool, the execution engine behind the quantised matmul
// hot path and bbal::SweepRunner. Its only unit of work is an open loop:
// parallel_for_chunks keeps the loop in its own stack frame, idle workers
// join it, and the caller waits for them before it returns.
//
// Design rules, in order of importance:
//
//  1. Determinism. parallel_for_chunks partitions an index range into
//     chunks and runs each chunk exactly once; bodies write disjoint
//     outputs, so the numeric result is bit-identical at any thread count
//     (enforced by the BENCH_table2.json regression gate in CI).
//  2. No deadlocks under nesting. The calling thread always runs chunks of
//     its own loop, so a loop completes even if no worker ever joins it. A
//     caller waits only on workers that are running chunks of its own loop.
//  3. Exceptions propagate. The first exception thrown by a body is
//     captured, remaining chunks are cancelled, and the exception is
//     rethrown on the calling thread.
//  4. Nothing allocates. A loop lives in its caller's frame and takes its
//     body by FunctionRef, so opening one touches no heap.
//
// Thread-count policy: ThreadPool(n) means n executors — the caller plus
// n-1 pooled workers — so ThreadPool(1) spawns no threads and runs every
// loop inline (the degenerate case tests rely on this). The process-wide
// pool (ThreadPool::global()) sizes itself from BBAL_THREADS, falling back
// to std::thread::hardware_concurrency(); tools expose the same knob as
// --threads N via set_global_threads(), which must be called before the
// first global() use (it replaces the pool, and concurrent loops on the old
// pool would be orphaned).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace bbal::common {

/// A non-owning reference to a callable: two pointers, so passing a lambda
/// allocates nothing (an owning wrapper copies a large capture to the
/// heap). It must not outlive the callable; ThreadPool's loops block until
/// their last chunk returns, so a body passed to one, a temporary included,
/// outlives every call.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)  // NOLINT(runtime/explicit)
      : callable_(std::addressof(f)),
        invoke_(&call<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return invoke_(callable_, std::forward<Args>(args)...);
  }

 private:
  template <typename F>
  static R call(const void* callable, Args... args) {
    return std::invoke(*static_cast<F*>(const_cast<void*>(callable)),
                       std::forward<Args>(args)...);
  }

  const void* callable_;
  R (*invoke_)(const void*, Args...);
};

class ThreadPool {
 public:
  /// n executors (caller + n-1 workers); n <= 0 picks env_threads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Executors available to a loop (including the caller).
  [[nodiscard]] int thread_count() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Run body(c0, c1) over half-open sub-ranges of [begin, end) of size
  /// <= grain, so bodies can hoist per-chunk scratch buffers out of the
  /// element loop. grain <= 0 picks end-begin over ~4 chunks per executor.
  /// Blocks until done; rethrows the first body exception. Safe to call
  /// from inside another loop's body (the nested loop reuses the pool).
  void parallel_for_chunks(std::int64_t begin, std::int64_t end,
                           std::int64_t grain,
                           FunctionRef<void(std::int64_t, std::int64_t)> body);

  /// The process-wide pool, created on first use with env_threads().
  [[nodiscard]] static ThreadPool& global();
  /// Replace the global pool with an n-executor one (the --threads knob).
  /// Call before the first global() use; not safe mid-sweep.
  static void set_global_threads(int threads);
  /// BBAL_THREADS when set and > 0, else hardware_concurrency (min 1).
  [[nodiscard]] static int env_threads();

 private:
  struct Loop;  ///< one open parallel_for_chunks call, in its caller's frame

  void run_chunks(Loop& loop);
  void worker_main();

  // mutex_ guards open_ (the newest open loop; older ones via
  // Loop::older), stop_ and each open loop's bookkeeping. wake_ is
  // notified when a loop opens or stop_ is set.
  std::mutex mutex_;
  std::condition_variable wake_;
  Loop* open_ = nullptr;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Run body(c0, c1) over [0, n): in chunks on the global pool, or as one
/// body(0, n) call on the caller when `work` (MACs or elements) is under
/// 1 << 15, where opening a loop costs more than the work it spreads. A
/// template, so a small loop keeps a direct, inlinable call.
template <class Body>
void parallel_chunks(std::int64_t n, std::int64_t work, Body&& body) {
  if (work < (std::int64_t{1} << 15)) {
    body(std::int64_t{0}, n);
  } else {
    ThreadPool::global().parallel_for_chunks(0, n, /*grain=*/0, body);
  }
}

}  // namespace bbal::common
