#pragma once
// Mode-merging orchestrator — the library's top-level public API.
//
//   merge_modes: N mergeable modes -> 1 superset mode
//                (preliminary merge -> clock refinement -> data refinement
//                 -> equivalence validation), the full paper §3 flow.
//   merge_mode_set: the complete flow over an arbitrary mode set —
//                mergeability graph, greedy clique cover, one merge per
//                clique (Figure 2 + Tables 5/6 configuration).

#include "merge/context.h"
#include "merge/equivalence.h"
#include "merge/mergeability.h"
#include "merge/refine_context.h"
#include "merge/types.h"

namespace mm::merge {

struct ValidatedMergeResult {
  MergeResult merge;
  EquivalenceReport equivalence;  // empty unless options.validate
  /// Refinement and validation did not run for this result: its fix list,
  /// refinement counters and equivalence report come from a donor merge of
  /// the same clique with the same timing state (merge_modes' `donor`).
  bool shared = false;
};

/// Merge N modes (assumed mergeable) into one superset mode over `graph`.
/// Constructs a transient MergeContext from `options`.
ValidatedMergeResult merge_modes(const timing::TimingGraph& graph,
                                 const std::vector<const Sdc*>& modes,
                                 const MergeOptions& options = {});

/// Session entry: every pass shares ctx's options and thread pool.
/// `rels[i]` is modes[i]'s relationship set, which the caller already
/// holds (the session slot of the deck), so the merge extracts nothing.
///
/// `donor` is the same clique's merge in another corner, offered by a
/// caller that has matched every member deck's timing_state_fingerprint
/// (merge/corner.h) against the donor's members. Refinement and validation
/// read only that timing state, so when this merge's preliminary deck also
/// has the donor's clock map and timing state, the result is its own
/// preliminary merge plus the donor's fix list (appended in the same
/// order), with the donor's refinement counters and equivalence report,
/// zero refinement/validation seconds, and `shared` set. Otherwise — no
/// donor, a mismatch, or a debug mutation to catch — the full merge runs.
///
/// `views`, when given, holds one MemberView per mode (refine_context.h;
/// an empty one where the caller has none). Refinement starts from them,
/// builds only what is missing, and writes every member's complete view
/// back, relation table included, for the caller to hand to a later merge
/// of the same decks. Without `views` nothing outlives the merge. A merge
/// that runs no refinement leaves `views` as it was.
ValidatedMergeResult merge_modes(
    const timing::TimingGraph& graph, const std::vector<const Sdc*>& modes,
    const RelationshipSets& rels, MergeContext& ctx,
    const ValidatedMergeResult* donor = nullptr,
    std::vector<MemberView>* views = nullptr);

struct MergedModeSet {
  /// One merged mode per clique (cliques of size 1 reuse the original mode's
  /// constraints verbatim).
  std::vector<ValidatedMergeResult> merged;
  /// Clique membership: cliques[i] lists input mode indices merged into
  /// merged[i].
  std::vector<std::vector<size_t>> cliques;
  size_t num_input_modes = 0;
  double total_seconds = 0.0;

  size_t num_merged_modes() const { return merged.size(); }
  double reduction_percent() const {
    if (num_input_modes == 0) return 0.0;
    return 100.0 *
           (1.0 - static_cast<double>(num_merged_modes()) /
                      static_cast<double>(num_input_modes));
  }
};

/// Full flow: mergeability analysis + clique cover + per-clique merges.
/// Constructs one MergeContext for the whole run.
MergedModeSet merge_mode_set(const timing::TimingGraph& graph,
                             const std::vector<const Sdc*>& modes,
                             const MergeOptions& options = {});

/// Session entry: mergeability analysis, every clique's preliminary merge,
/// refinement, and validation all flow through ctx — each mode's
/// relationship set is extracted exactly once, by its session slot.
MergedModeSet merge_mode_set(const timing::TimingGraph& graph,
                             const std::vector<const Sdc*>& modes,
                             MergeContext& ctx);

/// Human-readable summary of one merge (stats + notes).
std::string report_merge(const MergeResult& result,
                         const EquivalenceReport& equivalence);

}  // namespace mm::merge
