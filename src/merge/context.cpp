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
  MM_GAUGE_SET("merge/relationship_cache_entries", cache_.size());
  const RelationshipCache::Stats s = cache_.stats();
  MM_GAUGE_SET("merge/relationship_cache_hit_total", s.hits);
  MM_GAUGE_SET("merge/relationship_cache_miss_total", s.misses);
  if (pool_) {
    MM_GAUGE_SET("pool/tasks", pool_->chunks_run());
    MM_GAUGE_SET("pool/busy_us", pool_->busy_seconds() * 1e6);
  }
}

}  // namespace mm::merge
