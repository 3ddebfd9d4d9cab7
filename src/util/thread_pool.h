#pragma once
// Fixed-size thread pool with a parallel_for helper.
//
// The paper's engine is "implemented with a multithreaded engine in C++";
// we parallelize per-mode relationship propagation and per-endpoint
// comparison. parallel_for guarantees deterministic results because each
// index writes only its own slot; the caller merges in index order.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mm {

class ThreadPool {
 public:
  /// `num_threads == 0` means hardware_concurrency (min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Run fn(i) for i in [0, count) across the pool; blocks until done.
  /// Exceptions from fn propagate to the caller (first one wins).
  void parallel_for(size_t count, const std::function<void(size_t)>& fn);

  /// Same, with a minimum chunk size: at least `min_grain` consecutive
  /// indices per task, for loops whose per-index work is too cheap to pay
  /// one queue round-trip each (e.g. one mergeability pair check).
  void parallel_for(size_t count, size_t min_grain,
                    const std::function<void(size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace mm
