#pragma once
// Two-sided constraint-set equivalence (paper §2): two constraint sets are
// equivalent iff every timing relationship induced by one is induced by the
// other, in both directions. The merge flow runs this at the end — the
// paper's "in-built, correct by construction validation step".

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

/// Compare the merged mode against the union of individual modes at
/// timing-relationship granularity (per endpoint, launch, capture). With
/// `startpoint_level` the comparison runs per (startpoint, endpoint, ...)
/// instead — slower, finer.
///
/// The members' relation maps come from `ctx.member_relations`, so after
/// data refinement on the same context only the merged deck is walked, by
/// one Propagator run.
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
