#pragma once
// Shared state for the §3.1.8 / §3.2 refinement stages: the individual
// modes' per-mode timing views, built once (in parallel) and reused by
// clock refinement, data refinement and the equivalence checker, plus the
// merged deck's ModeGraph, shared by every stage that sees the same
// merged timing state.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
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

struct EquivalenceReport;

/// The launch clocks a view's data network carries: row p holds `words`
/// 64-bit words, bit c set iff the view's clock c, launched at an active
/// startpoint, reaches pin p through enabled data arcs (data refinement's
/// pass 0 compares the merged deck's reach against the members').
struct LaunchReach {
  size_t words = 0;
  std::vector<uint64_t> rows;
};

/// Call fn(pin, clock) for each launch clock a view seeds at each of its
/// active startpoints, in the view's own clock space: the clocks on a
/// register clock pin, the -clock of an input port's set_input_delay.
template <typename Fn>
void for_each_launch(const timing::ModeGraph& mg, Fn&& fn) {
  const netlist::Design& design = mg.graph().design();
  for (PinId sp : mg.active_startpoints()) {
    if (design.pin(sp).is_port()) {
      for (const sdc::PortDelay& pd : mg.sdc().port_delays()) {
        if (pd.is_input && pd.port_pin == sp && pd.clock.valid()) {
          fn(sp, pd.clock);
        }
      }
    } else {
      for (const timing::ClockArrival& ca : mg.clocks_on(sp)) {
        fn(sp, ca.clock);
      }
    }
  }
}

/// Walk a view's data network in topological order, calling step(from,
/// to) for every enabled arc a launch clock can cross out of a pin whose
/// row of `rows` (`words` words a pin) is non-empty; register clock pins
/// cross only their launch arcs.
template <typename Step>
void walk_data_network(const timing::ModeGraph& mg,
                       const std::vector<uint64_t>& rows, size_t words,
                       Step&& step) {
  const timing::TimingGraph& graph = mg.graph();
  for (PinId pin : graph.topo_order()) {
    const uint64_t* row = &rows[pin.index() * words];
    if (std::all_of(row, row + words, [](uint64_t w) { return w == 0; })) {
      continue;
    }
    bool has_launch = false;
    for (timing::ArcId aid : graph.fanout(pin)) {
      if (graph.arc(aid).kind == timing::ArcKind::kLaunch) has_launch = true;
    }
    for (timing::ArcId aid : graph.fanout(pin)) {
      if (!mg.arc_enabled(aid)) continue;
      const timing::Arc& arc = graph.arc(aid);
      if (has_launch && arc.kind != timing::ArcKind::kLaunch) continue;
      step(pin.index(), arc.to.index());
    }
  }
}

/// A view's launch reach, in the view's own clock space.
LaunchReach launch_reach(const timing::ModeGraph& mg);

/// One member deck's timing view: what refinement and validation derive
/// from that deck alone (paper §3.2 compares the merged mode against each
/// individual mode's own timing relationships). Every piece depends only
/// on the deck, so a view stays valid for as long as the deck is unchanged
/// and alive, whatever clique the deck is merged in. Pieces are immutable
/// once built and shared; an unset piece is built when a stage first asks
/// for it.
///
/// The ModeGraph and the launch reach read only the fields that `key`
/// (timing_view_key) covers, so they also stay valid for a new deck with
/// the same key — an edit of exceptions only — once the ModeGraph is
/// rebound to it (ModeGraph::rebound). The compiled exceptions and the
/// relation table do not.
struct MemberView {
  std::shared_ptr<const timing::ModeGraph> mode_graph;
  /// timing_view_key of the deck `mode_graph` was built from.
  TimingViewKey key;
  std::shared_ptr<const LaunchReach> reach;
  std::shared_ptr<const timing::CompiledExceptions> exceptions;
  /// The unfiltered endpoint-level relation table in the member's own
  /// clock space, walked under `relations_hold` / `relations_arrivals`.
  std::shared_ptr<const timing::PackedRelationTable> relations;
  bool relations_hold = false;
  bool relations_arrivals = false;

  bool empty() const { return mode_graph == nullptr; }
};

/// What data refinement's pass 1 leaves for validation: its merged walk
/// and the §2 comparison its sweep made, plus every refinement fix added
/// after that walk. check_equivalence (merge/equivalence.h) reads it to
/// skip or shorten its own merged walk.
struct MergedWalk {
  const Sdc* deck = nullptr;
  ClockMap map;
  /// timing_state_fingerprint of the deck when pass 1 walked it, and when
  /// refinement finished.
  uint64_t walked_fingerprint = 0;
  uint64_t refined_fingerprint = 0;
  /// The endpoint-level merged table, walked with analyze_hold on and
  /// without arrivals — validation's own options. Held, packed, only when
  /// a fix anchored on an endpoint landed or may land after the walk.
  std::optional<timing::PackedRelationTable> table;
  /// The §2 comparison of `table` against the members' tables.
  std::shared_ptr<const EquivalenceReport> report;
  /// Ascending endpoints of the fixes added after the walk, each anchored
  /// on that one -to pin; `full_walk` when some fix was not.
  std::vector<PinId> fix_endpoints;
  bool full_walk = false;
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

  /// Member m's launch reach: its view's, or built now. Only a context
  /// that keeps its views stores a built one, so a batch merge holds each
  /// reach only while its caller does. Calls for distinct m may run
  /// concurrently.
  std::shared_ptr<const LaunchReach> member_reach(size_t m) const;

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

  /// The merged deck's ModeGraph as `merged` stands now, built at least
  /// up to stage `upto`. The view is built on first use and rebuilt only
  /// when `merged` is another deck, a field a stage up to `upto` reads
  /// changed since (timing_view_key), or that stage is not built yet:
  /// disables and clock stops that clock refinement adds change fields,
  /// exceptions that data refinement adds do not. A rebuild of the same
  /// deck keeps the constants when the case analysis is unchanged, and the
  /// arc enables too when the disables are, running only the later stages.
  /// Clock refinement reads only constants and arc enables, so it asks for
  /// kArcs, and the clock stage runs once, for data refinement.
  std::shared_ptr<const timing::ModeGraph> merged_view(
      const Sdc& merged,
      timing::ModeGraph::Stage upto = timing::ModeGraph::Stage::kClocks) const;

  /// Pass 1's record (data_refine.h), kept for check_equivalence.
  void keep_merged_walk(std::shared_ptr<const MergedWalk> walk) const;
  /// The record kept for `merged` walked under `map`, or null.
  std::shared_ptr<const MergedWalk> merged_walk(const Sdc& merged,
                                                const ClockMap& map) const;
  /// Forget the record: the deck is about to change in a way refinement
  /// did not make (a debug mutation), so validation must walk it whole.
  void drop_merged_walk() const;

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
  mutable std::shared_ptr<const MergedWalk> merged_walk_;
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
