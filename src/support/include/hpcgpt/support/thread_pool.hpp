#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace hpcgpt {

/// CPUs the calling thread may run on: the size of its affinity mask
/// (sched_getaffinity), so a process started under `taskset` or a
/// cpuset sizes itself to what it was given. Falls back to
/// std::thread::hardware_concurrency() where the mask cannot be read;
/// always at least 1.
std::size_t usable_cores();

/// A fixed-size worker pool with a shared FIFO task queue.
///
/// This is the shared-memory parallel substrate for the whole repository:
/// the tensor library's row loops (int8 rows, softmax_rows), the
/// data-generation pipeline and the race detector evaluation harness all
/// schedule work through it. The pool is
/// intentionally simple — a mutex-protected deque — because tasks in this
/// codebase are coarse (row blocks, whole test programs), so queue
/// contention is negligible.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means usable_cores().
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers. Used by
  /// parallel_for to run nested parallel regions inline instead of
  /// re-submitting to the pool — a worker that blocked waiting on chunks
  /// it queued behind itself would deadlock the pool.
  bool on_worker_thread() const noexcept;

  /// Enqueues `fn` and returns a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    available_.notify_one();
    return result;
  }

  /// The process-wide default pool, sized by usable_cores() when first
  /// used.
  static ThreadPool& global();

  /// True while a ParallelInlineGuard is alive on the calling thread.
  static bool inline_region_active() noexcept;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// RAII scope that forces every parallel_for issued from the calling
/// thread to run inline (single-threaded), regardless of which pool it
/// targets. This is how an outer parallel engine — the data-parallel
/// trainer runs one model replica per OS thread — keeps the inner tensor
/// kernels from re-submitting row blocks to the global pool: without the
/// guard, W trainer threads would funnel their row chunks through the
/// global queue, serializing on its workers instead of using their own
/// core. Nestable; the effect ends when the outermost guard dies.
class ParallelInlineGuard {
 public:
  ParallelInlineGuard();
  ~ParallelInlineGuard();
  ParallelInlineGuard(const ParallelInlineGuard&) = delete;
  ParallelInlineGuard& operator=(const ParallelInlineGuard&) = delete;
};

namespace detail {

/// True when parallel_for over `n` iterations would run them all on the
/// calling thread: an inline region or a nested call from one of the
/// pool's workers, or a range too small to split at `grain`.
bool runs_inline(const ThreadPool& pool, std::size_t n,
                 std::size_t grain) noexcept;

/// The pooled half of parallel_for: chunks the range across `pool` and
/// waits for every chunk.
void run_chunked(ThreadPool& pool, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& body,
                 std::size_t grain);

}  // namespace detail

/// Runs `body(i)` for every i in [begin, end), split into contiguous chunks
/// across `pool`. Blocks until all chunks complete. Exceptions thrown by
/// `body` propagate to the caller (the first one wins).
///
/// The chunking is static — (end-begin) is divided evenly across workers —
/// which matches the regular, equally-sized iterations this codebase
/// produces (tensor rows, test cases). `grain` bounds the minimum chunk so
/// tiny ranges run inline without synchronization cost.
///
/// The inline decision comes before `body` is type-erased, so a range
/// that runs inline never wraps it in a std::function: the int8 rows of
/// a decode round stay allocation-free. Only a pooled range wraps it, by
/// reference.
///
/// Safe to call from inside a task running on `pool`: a nested call runs
/// the whole range inline on the calling worker (never self-deadlocks).
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Body&& body, std::size_t grain = 1) {
  if (begin >= end) return;
  if (detail::runs_inline(pool, end - begin, grain)) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  detail::run_chunked(pool, begin, end, std::ref(body), grain);
}

/// parallel_for on the global pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                  std::size_t grain = 1) {
  parallel_for(ThreadPool::global(), begin, end, std::forward<Body>(body),
               grain);
}

}  // namespace hpcgpt
