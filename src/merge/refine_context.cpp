#include "merge/refine_context.h"

#include "merge/corner.h"

namespace mm::merge {

using timing::CompiledExceptions;
using timing::ModeGraph;
using timing::PackedRelationTable;
using timing::PropagationOptions;
using timing::Propagator;
using timing::RelationTable;

namespace {

/// Only whole-graph endpoint-level walks are memoized: pass 1 and the
/// equivalence check ask for exactly these, and keeping larger or filtered
/// maps alive would cost memory for no reuse.
bool memoizable(const PropagationOptions& opts) {
  return !opts.track_startpoints && opts.pin_filter == nullptr &&
         opts.arc_delays == nullptr && opts.arc_delays_min == nullptr;
}

}  // namespace

void RefineContext::build_mode_graphs() {
  views_.resize(modes.size());
  std::vector<size_t> missing;
  for (size_t m = 0; m < modes.size(); ++m) {
    if (views_[m].empty()) missing.push_back(m);
  }
  pool.parallel_for(missing.size(), [&](size_t k) {
    const size_t m = missing[k];
    views_[m].mode_graph = std::make_shared<ModeGraph>(*graph, *modes[m]);
  });
}

const std::vector<const CompiledExceptions*>&
RefineContext::member_exceptions() const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  if (member_exceptions_.size() != modes.size()) {
    std::vector<size_t> missing;
    for (size_t m = 0; m < modes.size(); ++m) {
      if (!views_[m].exceptions) missing.push_back(m);
    }
    pool.parallel_for(missing.size(), [&](size_t k) {
      const size_t m = missing[k];
      views_[m].exceptions =
          std::make_shared<CompiledExceptions>(*graph, *modes[m]);
    });
    member_exceptions_.resize(modes.size());
    for (size_t m = 0; m < modes.size(); ++m) {
      member_exceptions_[m] = views_[m].exceptions.get();
    }
  }
  return member_exceptions_;
}

std::shared_ptr<const std::vector<RelationTable>>
RefineContext::member_relations(const PropagationOptions& opts,
                                const ClockMap& map,
                                const std::function<void()>& beside) const {
  const bool memo = memoizable(opts);
  // The members' own tables under `opts`, where their views hold one.
  std::vector<std::shared_ptr<const PackedRelationTable>> held(
      modes.size());
  if (memo) {
    std::unique_lock<std::mutex> lock(memo_mutex_);
    if (memo_.tables && memo_.compute_arrivals == opts.compute_arrivals &&
        memo_.analyze_hold == opts.analyze_hold && memo_.map == map) {
      auto tables = memo_.tables;
      lock.unlock();
      if (beside) beside();
      return tables;
    }
    for (size_t m = 0; m < modes.size(); ++m) {
      const MemberView& v = views_[m];
      if (v.relations && v.relations_hold == opts.analyze_hold &&
          v.relations_arrivals == opts.compute_arrivals) {
        held[m] = v.relations;
      }
    }
  }

  const auto& excs = member_exceptions();
  auto tables = std::make_shared<std::vector<RelationTable>>(modes.size());
  auto rename = [&](size_t m) {
    (*tables)[m].rename_clocks([&](sdc::ClockId c) {
      return c.valid() ? map.merged_of(m, c) : c;
    });
  };
  // A fresh walk the views keep is packed before it is renamed, after the
  // parallel_for, so what outlives this merge is allocated by the thread
  // that runs the clique merge (a pool worker when a session commit fans
  // its cliques out), not by whichever thread ran the walk.
  const bool keep = memo && keep_views_;
  const size_t tasks = modes.size() + (beside ? 1 : 0);
  pool.parallel_for(tasks, [&](size_t m) {
    if (m == modes.size()) {
      beside();
      return;
    }
    if (held[m]) {
      (*tables)[m] = held[m]->unpack();
    } else {
      Propagator prop(mode_graph(m), *excs[m]);
      prop.run(opts);
      (*tables)[m] = prop.release_relations();
      if (keep) return;
    }
    rename(m);
  });

  if (memo) {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    memo_ = {opts.compute_arrivals, opts.analyze_hold, map, tables};
    for (size_t m = 0; keep && m < modes.size(); ++m) {
      if (held[m]) continue;
      views_[m].relations =
          std::make_shared<const PackedRelationTable>((*tables)[m]);
      views_[m].relations_hold = opts.analyze_hold;
      views_[m].relations_arrivals = opts.compute_arrivals;
      rename(m);
    }
  }
  return tables;
}

std::shared_ptr<const ModeGraph> RefineContext::merged_view(
    const Sdc& merged) const {
  const TimingViewKey key = timing_view_key(merged);
  std::lock_guard<std::mutex> lock(memo_mutex_);
  const bool same_deck = merged_view_ && merged_deck_ == &merged;
  if (same_deck && merged_key_ == key) return merged_view_;
  // The same deck with more fields: rebuild from the first stage that
  // reads a changed one (clock refinement adds disables, then stops).
  if (same_deck && merged_key_.constants == key.constants) {
    merged_view_ = std::make_shared<ModeGraph>(
        *merged_view_, merged,
        merged_key_.arcs == key.arcs ? ModeGraph::Stage::kClocks
                                     : ModeGraph::Stage::kArcs);
  } else {
    merged_view_ = std::make_shared<ModeGraph>(*graph, merged);
  }
  merged_deck_ = &merged;
  merged_key_ = key;
  return merged_view_;
}

}  // namespace mm::merge
