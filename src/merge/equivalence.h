#pragma once
// Two-sided constraint-set equivalence (paper §2): two constraint sets are
// equivalent iff every timing relationship induced by one is induced by the
// other, in both directions. The merge flow runs this at the end — the
// paper's "in-built, correct by construction validation step".

#include <span>
#include <string>
#include <vector>

#include "merge/refine_context.h"

namespace mm::merge {

struct EquivalenceReport {
  size_t keys_compared = 0;
  size_t matches = 0;           // identical state sets
  size_t optimism_violations = 0;  // individual times it, merged does not —
                                   // NEVER acceptable for sign-off
  size_t pessimism_keys = 0;    // merged times something no mode times
  size_t state_mismatches = 0;  // both timed but with different states
                                // (e.g. MCP value lost) — pessimistic-safe
  std::vector<std::string> examples;  // first few findings, human-readable

  bool equivalent() const {
    return optimism_violations == 0 && pessimism_keys == 0 &&
           state_mismatches == 0;
  }
  bool signoff_safe() const { return optimism_violations == 0; }
};

/// The §2 comparison, one key at a time: fed every key of the merged
/// table and the members' tables in key order (join_relations), it builds
/// the report check_equivalence returns. Data refinement's pass 1 feeds
/// its own merge-join of the same tables through one, so validation can
/// take that report when refinement changed nothing after the walk.
class EquivalenceSweep {
 public:
  /// Both must outlive the sweep; `merged` names the clocks in examples.
  EquivalenceSweep(const timing::TimingGraph& graph, const Sdc& merged)
      : graph_(graph), merged_(merged) {}

  void visit(const timing::RelationKey& key,
             const timing::RelationData* merged_row,
             std::span<const timing::RelationData* const> member_rows);

  const EquivalenceReport& report() const { return report_; }

 private:
  void example(const std::string& what, const timing::RelationKey& key,
               const std::string& detail);

  const timing::TimingGraph& graph_;
  const Sdc& merged_;
  EquivalenceReport report_;
};

/// Compare the merged mode against the union of individual modes at
/// timing-relationship granularity (per endpoint, launch, capture). With
/// `startpoint_level` the comparison runs per (startpoint, endpoint, ...)
/// instead — slower, finer.
///
/// The members' relation tables come from `ctx.member_relations`, so after
/// data refinement on the same context only the merged deck is walked, by
/// one Propagator run. Both sides are compared in one sweep over the
/// tables in key order.
///
/// After data refinement on the same context the merged side is cheaper
/// still (ctx.merged_walk): when the deck's timing_state_fingerprint is
/// the one pass 1 walked, the report pass 1's sweep built is returned with
/// no walk; when only fixes anchored on one -to endpoint were added since,
/// just those endpoints' fan-in cones are walked and spliced into pass 1's
/// table (timing::rewalk_endpoints) before the sweep. A startpoint-level
/// check, or a deck changed in any other way, walks the whole deck.
///
/// Member walks fan out on `ctx.pool`. `num_threads` and `use_batched_sta`
/// are ignored; they are kept only because the benchmark harness still
/// names them, and go with the next benchmark change.
EquivalenceReport check_equivalence(const RefineContext& ctx,
                                    const Sdc& merged, const ClockMap& map,
                                    bool startpoint_level = false,
                                    size_t num_threads = 0,
                                    bool use_batched_sta = true);

}  // namespace mm::merge
