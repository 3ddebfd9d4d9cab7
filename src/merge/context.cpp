#include "merge/context.h"

#include "obs/obs.h"

namespace mm::merge {

MergeContext::MergeContext(MergeOptions options)
    : options_(options) {}

ThreadPool& MergeContext::pool() {
  if (!pool_) {
    pool_ = std::make_unique<ThreadPool>(
        options_.num_threads == 0 ? 0 : options_.num_threads);
  }
  return *pool_;
}

void MergeContext::export_stats() const {
  if (pool_) {
    MM_GAUGE_SET("pool/tasks", pool_->chunks_run());
    MM_GAUGE_SET("pool/busy_us", pool_->busy_seconds() * 1e6);
  }
}

}  // namespace mm::merge
