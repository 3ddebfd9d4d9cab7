#include "merge/equivalence.h"

#include <memory>
#include <span>

#include "obs/obs.h"
#include "timing/relationships.h"

namespace mm::merge {

using timing::CompiledExceptions;
using timing::ModeGraph;
using timing::Propagator;
using timing::PropagationOptions;
using timing::RelationData;
using timing::RelationKey;
using timing::RelationTable;
using timing::StateSet;

namespace {

const StateSet& side_states(const timing::RelationData& data, int side) {
  return side == 0 ? data.states : data.hold_states;
}

}  // namespace

EquivalenceReport check_equivalence(const RefineContext& ctx,
                                    const Sdc& merged, const ClockMap& map,
                                    bool startpoint_level,
                                    size_t /*num_threads*/,
                                    bool /*use_batched_sta*/) {
  MM_SPAN("merge/equivalence");
  EquivalenceReport report;
  const timing::TimingGraph& graph = *ctx.graph;

  PropagationOptions opts;
  opts.compute_arrivals = false;
  opts.track_startpoints = startpoint_level;
  opts.analyze_hold = true;

  // Individual side: the members' (memoized) relation tables in merged
  // clock space. Merged side: one walk, beside the member walks when those
  // are not memoized yet.
  const std::shared_ptr<const ModeGraph> merged_graph =
      ctx.merged_view(merged);
  const CompiledExceptions merged_exceptions(graph, merged);
  RelationTable mrel;
  const auto indiv = ctx.member_relations(opts, map, [&] {
    Propagator prop(*merged_graph, merged_exceptions);
    prop.run(opts);
    mrel = prop.release_relations();
  });

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
  join_relations(*indiv, mrel, [&](const RelationKey& key,
                                  const RelationData* mdata,
                                  std::span<const RelationData* const> rows) {
    // The union of the members' states at this key, per side.
    bool any_member = false;
    StateSet union_states[2];
    for (const RelationData* row : rows) {
      if (!row) continue;
      any_member = true;
      union_states[0].merge(row->states);
      union_states[1].merge(row->hold_states);
    }

    if (!mdata) {
      // A relation the merged mode lost entirely.
      if (!union_states[0].any_timed() && !union_states[1].any_timed()) return;
      ++report.keys_compared;
      ++report.optimism_violations;
      example("OPTIMISM (lost relation)", key,
              "individual=" + union_states[0].str());
      return;
    }

    for (int side = 0; side < 2; ++side) {
      ++report.keys_compared;
      const StateSet& ms = side_states(*mdata, side);
      const StateSet* is = any_member ? &union_states[side] : nullptr;
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
        for (const auto& s : ms)
          if (s.is_timed()) a.insert(s);
        for (const auto& s : *is)
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
  });

  return report;
}

}  // namespace mm::merge
