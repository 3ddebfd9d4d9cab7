#pragma once
// Shared state for the §3.1.8 / §3.2 refinement stages: the individual
// modes' per-mode timing views, built once (in parallel) and reused by
// clock refinement, data refinement and the equivalence checker.

#include <memory>
#include <mutex>
#include <vector>

#include "merge/context.h"
#include "merge/types.h"
#include "timing/exceptions.h"
#include "timing/mode_graph.h"
#include "timing/relationships.h"
#include "util/thread_pool.h"

namespace mm::merge {

struct RefineContext {
  const timing::TimingGraph* graph = nullptr;
  std::vector<const Sdc*> modes;
  std::vector<std::unique_ptr<timing::ModeGraph>> mode_graphs;

 private:
  /// Set only by the standalone constructor; declared before `pool` so it
  /// exists when the reference binds to it.
  std::unique_ptr<ThreadPool> owned_pool_;

 public:
  /// The pool every stage fans out on: the merge session's when the stages
  /// run inside one, otherwise one the context owns (hardware threads).
  ThreadPool& pool;

  RefineContext(const timing::TimingGraph& g, std::vector<const Sdc*> m)
      : graph(&g),
        modes(std::move(m)),
        owned_pool_(std::make_unique<ThreadPool>()),
        pool(*owned_pool_) {
    build_mode_graphs(g);
  }

  RefineContext(const timing::TimingGraph& g, std::vector<const Sdc*> m,
                MergeContext& ctx)
      : graph(&g), modes(std::move(m)), pool(ctx.pool()) {
    build_mode_graphs(g);
  }

  /// Each member's compiled exceptions, built for all members on first use
  /// and kept for the context's lifetime.
  const std::vector<std::unique_ptr<timing::CompiledExceptions>>&
  member_exceptions() const;

  /// Each member's relation map under `opts`, keys in the member's own
  /// clock ids (not yet mapped to the merged deck). Unfiltered
  /// endpoint-level walks are memoized, so data refinement's pass 1 and
  /// the equivalence check propagate each member once per clique merge;
  /// startpoint-level or filtered requests are computed fresh every call.
  std::shared_ptr<const std::vector<timing::RelationMap>> member_relations(
      const timing::PropagationOptions& opts) const;

 private:
  void build_mode_graphs(const timing::TimingGraph& g) {
    mode_graphs.resize(modes.size());
    pool.parallel_for(modes.size(), [&](size_t i) {
      mode_graphs[i] = std::make_unique<timing::ModeGraph>(g, *modes[i]);
    });
  }

  struct RelationMemo {
    bool compute_arrivals = false;
    bool analyze_hold = false;
    std::shared_ptr<const std::vector<timing::RelationMap>> maps;
  };

  mutable std::mutex memo_mutex_;
  mutable std::vector<std::unique_ptr<timing::CompiledExceptions>>
      member_exceptions_;
  mutable RelationMemo memo_;
};

/// Fold member `m`'s relation map (keys in its own clock ids) into `out`,
/// with clocks renamed into the merged deck's clock space.
void accumulate_mapped(const timing::RelationMap& member, size_t m,
                       const ClockMap& map, timing::RelationMap& out);

}  // namespace mm::merge
