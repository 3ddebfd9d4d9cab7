#include "util/thread_pool.h"

#include <exception>
#include <memory>

namespace mm {

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

void ThreadPool::parallel_for(size_t count,
                              const std::function<void(size_t)>& fn) {
  parallel_for(count, /*min_grain=*/1, fn);
}

void ThreadPool::parallel_for(size_t count, size_t min_grain,
                              const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (min_grain == 0) min_grain = 1;
  if (count <= min_grain || count == 1 || num_threads() == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Dynamic chunking: enough chunks per worker for load balance without
  // drowning in queue overhead.
  const size_t chunks = std::min(count, num_threads() * 4);
  size_t chunk_size = (count + chunks - 1) / chunks;
  if (chunk_size < min_grain) chunk_size = min_grain;

  // Completion state lives on the heap, shared by the caller and every
  // chunk: the last chunk decrements and notifies under the record's mutex,
  // so the caller can neither miss the wakeup nor return (and free the
  // state) while a worker is still touching it.
  struct Completion {
    std::mutex mutex;
    std::condition_variable cv;
    size_t remaining = 0;
    std::exception_ptr error;
  };
  auto done = std::make_shared<Completion>();
  done->remaining = (count + chunk_size - 1) / chunk_size;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t begin = 0; begin < count; begin += chunk_size) {
      const size_t end = std::min(begin + chunk_size, count);
      tasks_.push([done, &fn, begin, end] {
        std::exception_ptr error;
        try {
          for (size_t i = begin; i < end; ++i) fn(i);
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard<std::mutex> dlock(done->mutex);
        if (error && !done->error) done->error = std::move(error);
        if (--done->remaining == 0) done->cv.notify_all();
      });
    }
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(done->mutex);
  done->cv.wait(lock, [&] { return done->remaining == 0; });
  if (done->error) std::rethrow_exception(done->error);
}

}  // namespace mm
