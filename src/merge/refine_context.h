#pragma once
// Shared state for the §3.1.8 / §3.2 refinement stages: the individual
// modes' per-mode timing views, built once (in parallel) and reused by
// clock refinement, data refinement and the equivalence checker.

#include <functional>
#include <memory>
#include <mutex>
#include <span>
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

  /// Each member's relation table under `opts`, with clocks renamed into
  /// the merged deck's clock space by `map`. Unfiltered endpoint-level
  /// walks are memoized (for one map at a time), so data refinement's
  /// pass 1 and the equivalence check propagate each member once per clique
  /// merge and share one table per member; startpoint-level or filtered
  /// requests are computed fresh every call.
  ///
  /// `beside`, when given, runs as one more task of the same parallel_for
  /// as the member walks (alone when the tables come from the memo), so a
  /// caller's own walk overlaps them.
  std::shared_ptr<const std::vector<timing::RelationTable>> member_relations(
      const timing::PropagationOptions& opts, const ClockMap& map,
      const std::function<void()>& beside = {}) const;

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
    ClockMap map;
    std::shared_ptr<const std::vector<timing::RelationTable>> tables;
  };

  mutable std::mutex memo_mutex_;
  mutable std::vector<std::unique_ptr<timing::CompiledExceptions>>
      member_exceptions_;
  mutable RelationMemo memo_;
};

/// Visit, in key order, every key of the merged table and of the members'
/// tables (all in merged clock space), as fn(key, merged, members): each
/// side's row for the key, nullptr where a table has none. One sweep over
/// tables already sorted replaces a per-key lookup in each.
template <typename Fn>
void join_relations(const std::vector<timing::RelationTable>& members,
                    const timing::RelationTable& merged, Fn&& fn) {
  const size_t num = members.size();
  std::vector<size_t> cursor(num + 1, 0);
  auto table = [&](size_t t) -> const timing::RelationTable& {
    return t < num ? members[t] : merged;
  };
  std::vector<const timing::RelationData*> rows(num, nullptr);
  for (;;) {
    const timing::RelationKey* next = nullptr;
    for (size_t t = 0; t <= num; ++t) {
      if (cursor[t] == table(t).size()) continue;
      const timing::RelationKey& key = table(t)[cursor[t]].key;
      if (!next || key < *next) next = &key;
    }
    if (!next) return;
    const timing::RelationKey key = *next;
    const timing::RelationData* merged_row = nullptr;
    for (size_t t = 0; t <= num; ++t) {
      const timing::RelationData* row = nullptr;
      if (cursor[t] < table(t).size() && table(t)[cursor[t]].key == key) {
        row = &table(t)[cursor[t]++].data;
      }
      if (t < num) rows[t] = row;
      else merged_row = row;
    }
    fn(key, merged_row, std::span<const timing::RelationData* const>(rows));
  }
}

}  // namespace mm::merge
