#pragma once
// Shared state for the §3.1.8 / §3.2 refinement stages: the individual
// modes' per-mode timing views, built once (in parallel) and reused by
// clock refinement, data refinement and the equivalence checker, plus the
// merged deck's ModeGraph, shared by every stage that sees the same
// merged timing state.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "merge/context.h"
#include "merge/corner.h"
#include "merge/types.h"
#include "timing/exceptions.h"
#include "timing/mode_graph.h"
#include "timing/relationships.h"
#include "util/thread_pool.h"

namespace mm::merge {

/// One member deck's timing view: what refinement and validation derive
/// from that deck alone (paper §3.2 compares the merged mode against each
/// individual mode's own timing relationships). Every piece depends only
/// on the deck, so a view stays valid for as long as the deck is unchanged
/// and alive, whatever clique the deck is merged in. Pieces are immutable
/// once built and shared; an unset piece is built when a stage first asks
/// for it.
struct MemberView {
  std::shared_ptr<const timing::ModeGraph> mode_graph;
  std::shared_ptr<const timing::CompiledExceptions> exceptions;
  /// The unfiltered endpoint-level relation table in the member's own
  /// clock space, walked under `relations_hold` / `relations_arrivals`.
  std::shared_ptr<const timing::PackedRelationTable> relations;
  bool relations_hold = false;
  bool relations_arrivals = false;

  bool empty() const { return mode_graph == nullptr; }
};

struct RefineContext {
  const timing::TimingGraph* graph = nullptr;
  std::vector<const Sdc*> modes;

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
    build_mode_graphs();
  }

  RefineContext(const timing::TimingGraph& g, std::vector<const Sdc*> m,
                MergeContext& ctx)
      : graph(&g), modes(std::move(m)), pool(ctx.pool()) {
    build_mode_graphs();
  }

  /// Start from the members' `views` (views[i] is modes[i]'s; an empty
  /// view is built here) and keep every view complete, relation table
  /// included, so the caller can take them back with views() and hand them
  /// to the next merge of the same decks.
  RefineContext(const timing::TimingGraph& g, std::vector<const Sdc*> m,
                MergeContext& ctx, std::vector<MemberView> views)
      : graph(&g),
        modes(std::move(m)),
        pool(ctx.pool()),
        views_(std::move(views)),
        keep_views_(true) {
    build_mode_graphs();
  }

  /// Member m's ModeGraph.
  const timing::ModeGraph& mode_graph(size_t m) const {
    return *views_[m].mode_graph;
  }

  /// The members' views as they stand: every ModeGraph, plus whatever
  /// exceptions and relation tables the stages asked for.
  const std::vector<MemberView>& views() const { return views_; }

  /// Each member's compiled exceptions, built for all members on first use
  /// and kept for the context's lifetime.
  const std::vector<const timing::CompiledExceptions*>& member_exceptions()
      const;

  /// Each member's relation table under `opts`, with clocks renamed into
  /// the merged deck's clock space by `map`. Unfiltered endpoint-level
  /// walks are memoized (for one map at a time), so data refinement's
  /// pass 1 and the equivalence check propagate each member once per clique
  /// merge and share one table per member; a member whose view already
  /// holds its table under `opts` is not walked at all, only copied and
  /// renamed. Startpoint-level or filtered requests are computed fresh
  /// every call.
  ///
  /// `beside`, when given, runs as one more task of the same parallel_for
  /// as the member walks (alone when the tables come from the memo), so a
  /// caller's own walk overlaps them.
  std::shared_ptr<const std::vector<timing::RelationTable>> member_relations(
      const timing::PropagationOptions& opts, const ClockMap& map,
      const std::function<void()>& beside = {}) const;

  /// The merged deck's ModeGraph as `merged` stands now. The view is
  /// built on first use and rebuilt only when `merged` is another deck or
  /// a field a ModeGraph reads changed since (timing_view_key): disables
  /// and clock stops that clock refinement adds do, exceptions that data
  /// refinement adds do not. A rebuild of the same deck keeps the
  /// constants when the case analysis is unchanged, and the arc enables
  /// too when the disables are, re-running only the later stages.
  std::shared_ptr<const timing::ModeGraph> merged_view(const Sdc& merged) const;

 private:
  void build_mode_graphs();

  struct RelationMemo {
    bool compute_arrivals = false;
    bool analyze_hold = false;
    ClockMap map;
    std::shared_ptr<const std::vector<timing::RelationTable>> tables;
  };

  mutable std::mutex memo_mutex_;
  /// [member]; written only under memo_mutex_ after construction.
  mutable std::vector<MemberView> views_;
  const bool keep_views_ = false;
  mutable std::vector<const timing::CompiledExceptions*> member_exceptions_;
  mutable RelationMemo memo_;
  mutable const Sdc* merged_deck_ = nullptr;
  mutable TimingViewKey merged_key_;
  mutable std::shared_ptr<const timing::ModeGraph> merged_view_;
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
