#include "merge/equivalence.h"

#include <memory>

#include "obs/obs.h"
#include "timing/relationships.h"
#include "timing/sta_batch.h"
#include "util/thread_pool.h"

namespace mm::merge {

using timing::BatchOptions;
using timing::BatchPropagator;
using timing::CompiledExceptions;
using timing::ModeGraph;
using timing::Propagator;
using timing::PropagationOptions;
using timing::RelationKey;
using timing::RelationMap;
using timing::StaLane;
using timing::StateSet;

namespace {

const StateSet& side_states(const timing::RelationData& data, int side) {
  return side == 0 ? data.states : data.hold_states;
}

/// The merged deck's relation map: a one-lane batched walk, or the serial
/// engine as the byte-parity reference.
RelationMap propagate_merged(const timing::TimingGraph& graph,
                             const Sdc& merged, const PropagationOptions& opts,
                             ThreadPool& pool, bool use_batched_sta) {
  const ModeGraph mg(graph, merged);
  const CompiledExceptions ce(graph, merged);
  if (!use_batched_sta) {
    Propagator prop(mg, ce);
    prop.run(opts);
    return prop.release_relations();
  }
  BatchOptions bopts;
  bopts.track_startpoints = opts.track_startpoints;
  bopts.compute_arrivals = opts.compute_arrivals;
  bopts.analyze_hold = opts.analyze_hold;
  bopts.pool = &pool;
  BatchPropagator prop(graph, {StaLane{&mg, &ce}});
  prop.run(bopts);
  return prop.relations(0);
}

}  // namespace

EquivalenceReport check_equivalence(const RefineContext& ctx,
                                    const Sdc& merged, const ClockMap& map,
                                    bool startpoint_level, size_t num_threads,
                                    bool use_batched_sta) {
  MM_SPAN("merge/equivalence");
  EquivalenceReport report;
  const timing::TimingGraph& graph = *ctx.graph;

  PropagationOptions opts;
  opts.compute_arrivals = false;
  opts.track_startpoints = startpoint_level;
  opts.analyze_hold = true;

  std::unique_ptr<ThreadPool> local;
  ThreadPool& pool = ctx.pool(local, num_threads);

  // Individual side: the union over members of their (memoized) relation
  // maps, clocks mapped to merged space. Merged side: one walk.
  RelationMap indiv;
  const auto members = ctx.member_relations(opts, pool);
  for (size_t m = 0; m < members->size(); ++m) {
    accumulate_mapped((*members)[m], m, map, indiv);
  }
  const RelationMap mrel =
      propagate_merged(graph, merged, opts, pool, use_batched_sta);

  // Lost-relation keys live in the *mapped individual* clock space; a
  // candidate that dropped a clock entirely has no name for them.
  auto clock_name = [&](sdc::ClockId id) -> std::string {
    if (id.index() < merged.num_clocks()) return merged.clock(id).name;
    return "<dropped clock #" + std::to_string(id.index()) + ">";
  };
  auto example = [&](const std::string& what, const RelationKey& key,
                     const std::string& detail) {
    if (report.examples.size() >= 10) return;
    std::string msg = what + " at " +
                      std::string(graph.design().pin_name(key.endpoint));
    if (key.startpoint.valid()) {
      msg += " from " + std::string(graph.design().pin_name(key.startpoint));
    }
    if (key.launch.valid()) msg += " launch=" + clock_name(key.launch);
    if (key.capture.valid()) msg += " capture=" + clock_name(key.capture);
    report.examples.push_back(msg + " " + detail);
  };

  const char* side_name[2] = {"setup", "hold"};
  for (const auto& [key, data] : mrel) {
    for (int side = 0; side < 2; ++side) {
      ++report.keys_compared;
      const StateSet& ms = side_states(data, side);
      const auto it = indiv.find(key);
      const StateSet* is = it == indiv.end() ? nullptr : &side_states(it->second, side);
      const bool indiv_timed = is && is->any_timed();
      const bool merged_timed = ms.any_timed();
      if (!indiv_timed && merged_timed) {
        ++report.pessimism_keys;
        example(std::string("PESSIMISM(") + side_name[side] + ")", key,
                "merged=" + ms.str() + " individual=" + (is ? is->str() : "{}"));
      } else if (indiv_timed && !merged_timed) {
        ++report.optimism_violations;
        example(std::string("OPTIMISM(") + side_name[side] + ")", key,
                "merged=" + ms.str() + " individual=" + is->str());
      } else if (is && *is == ms) {
        ++report.matches;
      } else if (indiv_timed && merged_timed) {
        // Both timed: check the timed sub-states agree (MCP values etc.).
        StateSet a, b;
        for (const auto& s : ms.states)
          if (s.is_timed()) a.insert(s);
        for (const auto& s : is->states)
          if (s.is_timed()) b.insert(s);
        if (a == b) {
          ++report.matches;
        } else {
          ++report.state_mismatches;
          example(std::string("STATE-MISMATCH(") + side_name[side] + ")", key,
                  "merged=" + ms.str() + " individual=" + is->str());
        }
      } else {
        ++report.matches;  // both untimed
      }
    }
  }

  // Relations the merged mode lost entirely.
  for (const auto& [key, data] : indiv) {
    if (!data.states.any_timed() && !data.hold_states.any_timed()) continue;
    if (!mrel.count(key)) {
      ++report.keys_compared;
      ++report.optimism_violations;
      example("OPTIMISM (lost relation)", key,
              "individual=" + data.states.str());
    }
  }

  return report;
}

}  // namespace mm::merge
