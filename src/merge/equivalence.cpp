#include "merge/equivalence.h"

#include <memory>
#include <span>

#include "merge/corner.h"
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

void EquivalenceSweep::example(const std::string& what, const RelationKey& key,
                               const std::string& detail) {
  if (report_.examples.size() >= 10) return;
  // Lost-relation keys live in the *mapped individual* clock space; a
  // candidate that dropped a clock entirely has no name for them.
  auto clock_name = [&](sdc::ClockId id) -> std::string {
    if (id.index() < merged_.num_clocks()) return merged_.clock(id).name;
    return "<dropped clock #" + std::to_string(id.index()) + ">";
  };
  std::string msg =
      what + " at " + std::string(graph_.design().pin_name(key.endpoint));
  if (key.startpoint.valid()) {
    msg += " from " + std::string(graph_.design().pin_name(key.startpoint));
  }
  if (key.launch.valid()) msg += " launch=" + clock_name(key.launch);
  if (key.capture.valid()) msg += " capture=" + clock_name(key.capture);
  report_.examples.push_back(msg + " " + detail);
}

void EquivalenceSweep::visit(const RelationKey& key, const RelationData* mdata,
                             std::span<const RelationData* const> rows) {
  static const char* const side_name[2] = {"setup", "hold"};
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
    ++report_.keys_compared;
    ++report_.optimism_violations;
    example("OPTIMISM (lost relation)", key,
            "individual=" + union_states[0].str());
    return;
  }

  for (int side = 0; side < 2; ++side) {
    ++report_.keys_compared;
    const StateSet& ms = side_states(*mdata, side);
    const StateSet* is = any_member ? &union_states[side] : nullptr;
    const bool indiv_timed = is && is->any_timed();
    const bool merged_timed = ms.any_timed();
    if (!indiv_timed && merged_timed) {
      ++report_.pessimism_keys;
      example(std::string("PESSIMISM(") + side_name[side] + ")", key,
              "merged=" + ms.str() + " individual=" + (is ? is->str() : "{}"));
    } else if (indiv_timed && !merged_timed) {
      ++report_.optimism_violations;
      example(std::string("OPTIMISM(") + side_name[side] + ")", key,
              "merged=" + ms.str() + " individual=" + is->str());
    } else if (is && *is == ms) {
      ++report_.matches;
    } else if (indiv_timed && merged_timed) {
      // Both timed: check the timed sub-states agree (MCP values etc.).
      StateSet a, b;
      for (const auto& s : ms)
        if (s.is_timed()) a.insert(s);
      for (const auto& s : *is)
        if (s.is_timed()) b.insert(s);
      if (a == b) {
        ++report_.matches;
      } else {
        ++report_.state_mismatches;
        example(std::string("STATE-MISMATCH(") + side_name[side] + ")", key,
                "merged=" + ms.str() + " individual=" + is->str());
      }
    } else {
      ++report_.matches;  // both untimed
    }
  }
}

EquivalenceReport check_equivalence(const RefineContext& ctx,
                                    const Sdc& merged, const ClockMap& map,
                                    bool startpoint_level,
                                    size_t /*num_threads*/,
                                    bool /*use_batched_sta*/) {
  MM_SPAN("merge/equivalence");
  const timing::TimingGraph& graph = *ctx.graph;

  PropagationOptions opts;
  opts.compute_arrivals = false;
  opts.track_startpoints = startpoint_level;
  opts.analyze_hold = true;

  // Pass 1's walk of this deck, when refinement on this context left one.
  const std::shared_ptr<const MergedWalk> walk =
      startpoint_level ? nullptr : ctx.merged_walk(merged, map);
  const uint64_t fingerprint = walk ? timing_state_fingerprint(merged) : 0;
  if (walk && fingerprint == walk->walked_fingerprint) {
    // The deck pass 1 walked, under these options: its sweep was this
    // check.
    MM_COUNT("merge/validation_reused", 1);
    return *walk->report;
  }
  const bool splice = walk && walk->table && !walk->full_walk &&
                      fingerprint == walk->refined_fingerprint;

  // Individual side: the members' (memoized) relation tables in merged
  // clock space. Merged side: one walk — whole, or of the fixed endpoints'
  // cones — beside the member walks when those are not memoized yet.
  const std::shared_ptr<const ModeGraph> merged_graph =
      ctx.merged_view(merged);
  const CompiledExceptions merged_exceptions(graph, merged);
  RelationTable mrel;
  const auto indiv = ctx.member_relations(opts, map, [&] {
    if (splice) {
      mrel = timing::rewalk_endpoints(*merged_graph, merged_exceptions, opts,
                                      walk->table->unpack(),
                                      walk->fix_endpoints);
      return;
    }
    Propagator prop(*merged_graph, merged_exceptions);
    prop.run(opts);
    mrel = prop.release_relations();
  });
  // MM_COUNT binds its counter once per call site: one site per name.
  if (splice) {
    MM_COUNT("merge/validation_cone_walks", 1);
  } else {
    MM_COUNT("merge/validation_full_walks", 1);
  }

  EquivalenceSweep sweep(graph, merged);
  join_relations(*indiv, mrel,
                 [&](const RelationKey& key, const RelationData* mdata,
                     std::span<const RelationData* const> rows) {
                   sweep.visit(key, mdata, rows);
                 });
  return sweep.report();
}

}  // namespace mm::merge
