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
/// Parallelism lives above the tensor kernels, which run on their calling
/// thread: the inference server runs verify requests on the global pool
/// and prefills a round's fresh lanes with parallel_for over it (the
/// scheduler thread prefills one lane itself, and a decode-only round
/// never touches the pool), the analysis service fans a request's
/// functions across it, and the data-parallel trainer owns a pool with
/// one thread per model replica. The pool is intentionally simple — a
/// mutex-protected deque — because those tasks are coarse (whole prompts,
/// functions, training sequences), so queue contention is negligible.
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

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

namespace detail {

/// True when parallel_for over `n` iterations would run them all on the
/// calling thread: a nested call from one of the pool's workers, or a
/// range too small to split at `grain`.
bool runs_inline(const ThreadPool& pool, std::size_t n,
                 std::size_t grain) noexcept;

/// The pooled half of parallel_for: submits chunks 1..n-1 of the range to
/// `pool`, runs chunk 0 on the calling thread, and waits for every chunk
/// before rethrowing the first error.
void run_chunked(ThreadPool& pool, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& body,
                 std::size_t grain);

}  // namespace detail

/// Runs `body(i)` for every i in [begin, end), split into contiguous chunks:
/// the first chunk runs on the calling thread, the others on `pool`.
/// Blocks until all chunks complete. Exceptions thrown by `body` propagate
/// to the caller (the first one wins), once every chunk has returned.
///
/// The chunking is static — (end-begin) is divided evenly across workers.
/// `grain` bounds the minimum chunk so tiny ranges run inline without
/// synchronization cost.
///
/// The inline decision comes before `body` is type-erased, so a range
/// that runs inline never wraps it in a std::function and allocates
/// nothing. Only a pooled range wraps it, by reference.
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
