#pragma once
// Preliminary mode merging (paper §3.1): build the superset mode whose
// timing relationships are a superset of every individual mode's — union of
// clocks and external delays, tolerance-merge of clock-based constraints,
// intersection of case analysis / disable timing / drive-load, derived
// clock exclusivity, and exception intersection with uniquification.
//
// The preliminary merged mode may temporarily time extra paths; §3.2
// refinement (clock_refine / data_refine) removes them.

#include "merge/mode_relationships.h"
#include "merge/types.h"

namespace mm::merge {

class MergeContext;

/// Merge N mergeable modes into one preliminary superset Sdc. All modes
/// must reference the same Design. `rels[i]` is modes[i]'s relationship
/// set (merge/mode_relationships.h): clock identity and exception grouping
/// read its canonical keys, so a session that already holds each member's
/// set (the slot that checked its pairs) merges without extracting again.
MergeResult preliminary_merge(const std::vector<const Sdc*>& modes,
                              const RelationshipSets& rels,
                              const MergeOptions& options);

/// Extracts each mode's set with ctx.relationships(), then merges.
MergeResult preliminary_merge(const std::vector<const Sdc*>& modes,
                              MergeContext& ctx);

/// Extracts each mode's set in a transient MergeContext, then merges.
MergeResult preliminary_merge(const std::vector<const Sdc*>& modes,
                              const MergeOptions& options);

}  // namespace mm::merge
