#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>

namespace mm {

namespace {

/// The pool whose chunk this thread is running, if any: a nested chunk of
/// the same pool already lies inside its outer chunk's busy time.
thread_local const ThreadPool* t_running = nullptr;

/// One parallel_for's shared state. It lives on the heap, held by the
/// caller and by every helper task, so a helper that the queue hands out
/// after the loop finished finds no chunk left and touches nothing else.
struct Loop {
  size_t count = 0;
  size_t chunk_size = 0;
  size_t num_chunks = 0;
  std::atomic<size_t> next{0};  // next chunk to claim

  std::mutex mutex;
  std::condition_variable cv;
  size_t finished = 0;  // chunks run to completion (under mutex)
  std::exception_ptr error;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::run_chunk(size_t begin, size_t end,
                           const std::function<void(size_t)>& fn) {
  chunks_run_.fetch_add(1, std::memory_order_relaxed);
  if (t_running == this) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Outermost chunk of this pool on this thread: time it, on the error
  // path too.
  const ThreadPool* outer = t_running;
  t_running = this;
  const auto start = std::chrono::steady_clock::now();
  auto account = [&] {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start);
    busy_ns_.fetch_add(static_cast<uint64_t>(ns.count()),
                       std::memory_order_relaxed);
    t_running = outer;
  };
  try {
    for (size_t i = begin; i < end; ++i) fn(i);
  } catch (...) {
    account();
    throw;
  }
  account();
}

void ThreadPool::parallel_for(size_t count,
                              const std::function<void(size_t)>& fn) {
  parallel_for(count, /*min_grain=*/1, fn);
}

void ThreadPool::parallel_for(size_t count, size_t min_grain,
                              const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (min_grain == 0) min_grain = 1;
  if (count <= min_grain || num_threads() == 1) {
    run_chunk(0, count, fn);
    return;
  }

  // Dynamic chunking: enough chunks per worker for load balance without
  // drowning in claim overhead.
  auto loop = std::make_shared<Loop>();
  const size_t target = std::min(count, num_threads() * 4);
  loop->count = count;
  loop->chunk_size = std::max((count + target - 1) / target, min_grain);
  loop->num_chunks = (count + loop->chunk_size - 1) / loop->chunk_size;

  // Claim chunks until none is left. `fn` is read only after a claim
  // succeeds, and the caller does not return before every claimed chunk
  // finished, so the reference is live whenever it is used.
  auto claim_and_run = [this, &fn](Loop& l) {
    for (;;) {
      const size_t k = l.next.fetch_add(1, std::memory_order_relaxed);
      if (k >= l.num_chunks) return;
      const size_t begin = k * l.chunk_size;
      std::exception_ptr error;
      try {
        run_chunk(begin, std::min(begin + l.chunk_size, l.count), fn);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(l.mutex);
      if (error && !l.error) l.error = std::move(error);
      if (++l.finished == l.num_chunks) l.cv.notify_all();
    }
  };

  // The caller takes chunks too, so at most num_chunks - 1 helpers can
  // find work.
  const size_t helpers = std::min(num_threads(), loop->num_chunks - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t h = 0; h < helpers; ++h) {
      tasks_.push([loop, claim_and_run] { claim_and_run(*loop); });
    }
  }
  if (helpers == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }

  claim_and_run(*loop);
  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->cv.wait(lock, [&] { return loop->finished == loop->num_chunks; });
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace mm
