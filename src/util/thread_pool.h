#pragma once
// Fixed-size thread pool with a parallel_for helper.
//
// The paper's engine is "implemented with a multithreaded engine in C++";
// we parallelize clique merges, per-mode relationship propagation and
// per-endpoint comparison. parallel_for guarantees deterministic results
// because each index writes only its own slot; the caller merges in index
// order.
//
// parallel_for nests: a loop body may itself call parallel_for on the same
// pool. The waiting caller runs chunks of its own loop (never unrelated
// queued tasks) and then waits only for chunks another thread has already
// claimed, so a nested loop completes even when every worker is busy in an
// outer one, and a caller holding a lock never re-enters other work.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
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

  /// Run fn(i) for i in [0, count) across the pool and the calling thread;
  /// blocks until done. Exceptions from fn propagate to the caller (first
  /// one wins). A one-thread pool runs the indices in order on the caller.
  void parallel_for(size_t count, const std::function<void(size_t)>& fn);

  /// Same, with a minimum chunk size: at least `min_grain` consecutive
  /// indices per chunk, for loops whose per-index work is too cheap to pay
  /// one claim each (e.g. one mergeability pair check).
  void parallel_for(size_t count, size_t min_grain,
                    const std::function<void(size_t)>& fn);

  /// Chunks run so far, by any thread (an inline loop is one chunk).
  uint64_t chunks_run() const {
    return chunks_run_.load(std::memory_order_relaxed);
  }
  /// Summed wall time threads spent running chunks, in seconds. A chunk
  /// that runs a nested parallel_for counts once: the nested chunks it
  /// runs itself are inside its own time.
  double busy_seconds() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

 private:
  void worker_loop();
  /// Run fn(begin..end) as one chunk, counting it in the utilisation
  /// totals.
  void run_chunk(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<uint64_t> chunks_run_{0};
  std::atomic<uint64_t> busy_ns_{0};
};

}  // namespace mm
