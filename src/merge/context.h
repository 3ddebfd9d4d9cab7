#pragma once
// MergeContext: one merge session's shared state. The engine used to
// re-derive canonical keys and relationship sets independently in
// mergeability analysis, preliminary merge, and refinement, and to spin up
// a fresh thread pool per pass. A MergeContext owns, for the lifetime of
// one merge_mode_set run (or any sequence of related merges):
//
//   - the MergeOptions every pass reads,
//   - a RelationshipCache, so the per-mode extraction the mergeability pass
//     pays for is reused verbatim by preliminary merge,
//   - the ThreadPool all passes fan out on (sized by options.num_threads,
//     created lazily on first use),
//
// and exports the cache and pool gauges into the mm.stats/1 snapshot.
//
// The options-only overloads of merge_modes / merge_mode_set /
// preliminary_merge construct a transient context, so existing callers keep
// working; anything that runs more than one pass should construct one
// context and thread it through.

#include <memory>

#include "merge/relationship_cache.h"
#include "merge/types.h"
#include "util/thread_pool.h"

namespace mm::merge {

class MergeContext {
 public:
  explicit MergeContext(MergeOptions options = {});
  MergeContext(const MergeContext&) = delete;
  MergeContext& operator=(const MergeContext&) = delete;

  const MergeOptions& options() const { return options_; }

  /// The session's relationship cache.
  RelationshipCache& cache() { return cache_; }

  /// The session's thread pool, created on first use with
  /// options().num_threads workers (0 = hardware concurrency). Reused by
  /// every pass instead of one pool per pass.
  ThreadPool& pool();

  /// One mode's relationship set, memoized via cache().
  std::shared_ptr<const ModeRelationships> relationships(const Sdc& sdc) {
    return cache_.get(sdc);
  }

  /// Export relationship-cache health and the pool's lifetime utilisation
  /// as mm.stats/1 gauges (merge/relationship_cache_*, pool/tasks,
  /// pool/busy_us).
  void export_stats() const;

 private:
  MergeOptions options_;
  RelationshipCache cache_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace mm::merge
