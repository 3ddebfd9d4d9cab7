#pragma once
// MergeContext: one merge session's shared state. A MergeContext owns, for
// the lifetime of one merge_mode_set run (or any sequence of related
// merges):
//
//   - the MergeOptions every pass reads,
//   - a RelationshipBuilder, which builds (and counts) the per-mode
//     relationship sets; the session slots that hold the decks own the
//     sets (merge/mcmm_session.h),
//   - the ThreadPool all passes fan out on (sized by options.num_threads,
//     created lazily on first use),
//
// and exports the pool gauges into the mm.stats/1 snapshot.
//
// The options-only overloads of merge_modes / merge_mode_set /
// preliminary_merge construct a transient context, so existing callers keep
// working; anything that runs more than one pass should construct one
// context and thread it through.

#include <memory>

#include "merge/mode_relationships.h"
#include "merge/types.h"
#include "util/thread_pool.h"

namespace mm::merge {

class MergeContext {
 public:
  explicit MergeContext(MergeOptions options = {});
  MergeContext(const MergeContext&) = delete;
  MergeContext& operator=(const MergeContext&) = delete;

  const MergeOptions& options() const { return options_; }

  /// The context's relationship-set builder and its counters.
  RelationshipBuilder& builder() { return builder_; }
  /// builder(), under its old name; kept only because the benchmark
  /// harness still names it; removed with the next benchmark change
  RelationshipBuilder& cache() { return builder_; }

  /// The session's thread pool, created on first use with
  /// options().num_threads workers (0 = hardware concurrency). Reused by
  /// every pass instead of one pool per pass.
  ThreadPool& pool();

  /// One mode's relationship set, freshly extracted (counted by builder()).
  std::shared_ptr<const ModeRelationships> relationships(const Sdc& sdc) {
    return builder_.get(sdc);
  }

  /// Export the pool's lifetime utilisation as mm.stats/1 gauges
  /// (pool/tasks, pool/busy_us).
  void export_stats() const;

 private:
  MergeOptions options_;
  RelationshipBuilder builder_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace mm::merge
