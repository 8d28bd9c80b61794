#include "hpcgpt/support/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>

namespace hpcgpt {

std::size_t usable_cores() {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<std::size_t>(count);
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

namespace {

// The pool (if any) whose worker_loop owns the current thread.
thread_local const ThreadPool* current_pool = nullptr;

// Static chunk count of a pooled range: one per worker, each at least
// `grain` iterations.
std::size_t chunk_count(const ThreadPool& pool, std::size_t n,
                        std::size_t grain) {
  return std::min(pool.size(), std::max<std::size_t>(
                                   1, n / std::max<std::size_t>(1, grain)));
}

}  // namespace

bool ThreadPool::on_worker_thread() const noexcept {
  return current_pool == this;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = usable_cores();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

namespace detail {

bool runs_inline(const ThreadPool& pool, std::size_t n,
                 std::size_t grain) noexcept {
  // A nested region issued from one of the pool's own workers runs
  // inline: submitting and waiting there could deadlock — every worker
  // might be blocked inside the wait with the chunks queued behind them.
  return pool.on_worker_thread() || chunk_count(pool, n, grain) <= 1;
}

void run_chunked(ThreadPool& pool, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& body,
                 std::size_t grain) {
  const std::size_t total = end - begin;
  const std::size_t chunks = chunk_count(pool, total, grain);
  const std::size_t per_chunk = (total + chunks - 1) / chunks;

  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto record_error = [&] {
    std::lock_guard lock(error_mutex);
    if (!failed.exchange(true)) first_error = std::current_exception();
  };
  const auto run_chunk = [&](std::size_t lo, std::size_t hi) {
    try {
      for (std::size_t i = lo; i < hi && !failed.load(); ++i) body(i);
    } catch (...) {
      record_error();
    }
  };

  // Chunks 1..n-1 go to the pool and chunk 0 runs here, so the caller
  // works instead of idling. Every chunk that was submitted is waited for
  // before this frame, which the tasks reference, unwinds.
  std::vector<std::future<void>> pending;
  try {
    pending.reserve(chunks - 1);
    for (std::size_t c = 1; c < chunks; ++c) {
      const std::size_t lo = begin + c * per_chunk;
      const std::size_t hi = std::min(end, lo + per_chunk);
      if (lo >= hi) break;
      pending.push_back(
          pool.submit([&run_chunk, lo, hi] { run_chunk(lo, hi); }));
    }
  } catch (...) {
    record_error();
  }
  run_chunk(begin, std::min(end, begin + per_chunk));
  for (auto& f : pending) f.wait();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

}  // namespace hpcgpt
