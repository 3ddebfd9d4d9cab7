#pragma once
// Mergeability analysis (paper §3, Figure 2): a mock run of preliminary
// merging decides which mode pairs can be merged; the resulting
// mergeability graph is covered with cliques by a greedy algorithm, each
// clique becoming one superset mode.

#include <string>
#include <vector>

#include "merge/corner.h"
#include "merge/mode_relationships.h"
#include "merge/types.h"

namespace mm::merge {

class MergeContext;

/// Why a pair of modes cannot merge (empty reason == mergeable).
///
/// `category` and `subject` are the first conflict's provenance for the
/// mm.journal/1 pair_verdict event: a machine-readable reason class
/// (clock_latency, clock_uncertainty, clock_transition, drive, load,
/// exception_conflict, exception_one_sided) and the canonical subject it
/// fired on (clock key, "pin#N", or exception anchor signature). Like
/// `reason`, both are byte-identical between the relationship check and
/// the Sdc-level oracle.
///
/// Policy provenance (merge/policy.h): `policy` names the policy the
/// verdict was computed under. When a windowed policy accepted one or more
/// comparisons beyond within_tolerance, `window_field` / `window_used` /
/// `window_budget` record the largest such acceptance — the field it fired
/// on (clock_latency, clock_uncertainty, clock_transition, drive, load),
/// the absolute disagreement accepted, and that field's configured window
/// — so mmreport explain can say "merged under windowed policy, 0.012 of
/// 0.020 budget used". Both check paths visit comparisons in the same
/// order and fold the accumulator with strictly-greater updates, so these
/// fields are byte-identical across them too.
struct PairVerdict {
  bool mergeable = true;
  std::string reason;
  std::string category;
  std::string subject;
  std::string policy = "exact";
  std::string window_field;
  double window_used = 0.0;
  double window_budget = 0.0;

  /// Corner provenance (merge/corner.h), stamped only by
  /// with_corner_provenance onto a corner scan's combined verdict: the corner
  /// the first conflict fired in (name + id; empty/0 on a single-corner run
  /// or a flat check), and how many corners were checked before the
  /// verdict settled — C on a mergeable verdict (every corner agreed), the
  /// conflicting corner's 1-based position on early exit. All three stay at their flat defaults
  /// from the corner-unaware check paths AND at C == 1, so a single-corner
  /// verdict is the flat verdict member for member.
  std::string corner;
  uint32_t corner_id = 0;
  uint32_t corners_checked = 0;
};

/// Pairwise mergeability: a mock preliminary merge checking for
///  - clock-based constraint values out of tolerance on matching clocks,
///  - drive/load constraint values out of tolerance on the same port,
///  - conflicting non-false-path exceptions (same anchors, different
///    kind/value) that cannot be uniquified by clock restriction,
///  - generated-clock master mismatches (clock blocking).
///
/// This overload re-derives both modes' keys and signatures as strings
/// straight from the Sdc. It is the test oracle: fuzz P4 and the unit tests
/// check the production overload below against it, and no production code
/// calls it.
PairVerdict check_mergeable(const Sdc& a, const Sdc& b,
                            const MergeOptions& options);

/// The production check: same verdicts (bit-identical, including reason
/// text) from relationship sets extracted once per mode. Clocks match by a
/// merge-join over the key-sorted clock orders, exceptions by binary search
/// in the sorted signature indexes, and a clock-conflict pre-screen
/// short-circuits pairs whose per-clock windows already conflict before any
/// exception-signature work (counted in
/// merge/mergeability_prescreen_conflicts).
PairVerdict check_mergeable(const ModeRelationships& a,
                            const ModeRelationships& b,
                            const MergeOptions& options);

/// The MCMM accept rule: two modes merge only when mergeable in EVERY
/// registered corner. `a`/`b` hold one relationship set per corner
/// (corner-major, a.size() == corners.size()); check_mergeable runs on each
/// corner in order, with early exit on the first conflicting corner.
/// Conflict verdicts carry the corner's name/id when C > 1; a C == 1 call
/// returns exactly the flat verdict (byte-identical single-corner path).
/// The mergeable verdict's window provenance is the primary corner's.
PairVerdict check_mergeable_corners(
    const std::vector<const ModeRelationships*>& a,
    const std::vector<const ModeRelationships*>& b, const CornerSet& corners,
    const MergeOptions& options);

/// The combined verdict of a corner scan that stopped at corner `stop`: `v`
/// is the verdict of the conflicting corner `stop`, or the primary corner's
/// when every corner agreed (`stop` == corners.size()). Stamps `corner`,
/// `corner_id` and `corners_checked`; at C == 1 returns `v` unchanged.
/// check_mergeable_corners and the session's resume scan both call it.
PairVerdict with_corner_provenance(PairVerdict v, CornerId stop,
                                   const CornerSet& corners);

/// The greedy clique cover over an n-by-n adjacency matrix (row-major,
/// nonzero = edge, diagonal set): seeds cliques in descending-degree order
/// (stable-sorted, so ties break by index) and grows each with every
/// still-unassigned compatible mode. This is the single cover
/// implementation — MergeabilityGraph::clique_cover and the session engine
/// (McmmSession, which MergeSession wraps at C == 1) both call it, which
/// is what makes an incremental commit's cover bit-identical to a
/// from-scratch build over the same verdicts.
std::vector<std::vector<size_t>> greedy_clique_cover(
    size_t n, const std::vector<uint8_t>& adj);

class MergeabilityGraph {
 public:
  /// Build the graph over `modes`. Each mode's relationship set is
  /// extracted once (ctx.relationships()) and the pairwise checks fan out
  /// over a flattened pair index on ctx.pool(). Each pair writes only its
  /// own verdict slot and the adjacency fill consumes the slots in index
  /// order, so the graph — and therefore the clique cover — is
  /// bit-identical to a serial build.
  MergeabilityGraph(const std::vector<const Sdc*>& modes, MergeContext& ctx);

  /// Assemble from precomputed verdicts (the incremental session path:
  /// only dirty pairs were re-checked, clean verdicts were carried over).
  /// `adj` and `reasons` are row-major n*n with the diagonal set.
  MergeabilityGraph(size_t n, std::vector<uint8_t> adj,
                    std::vector<std::string> reasons);

  /// Replace one pair's verdict, both directions (the session path when a
  /// commit re-checked some pairs and no mode moved).
  void set_pair(size_t i, size_t j, bool mergeable, std::string reason) {
    adj_[i * n_ + j] = adj_[j * n_ + i] = mergeable ? 1 : 0;
    reasons_[j * n_ + i] = reason;
    reasons_[i * n_ + j] = std::move(reason);
  }

  size_t num_modes() const { return n_; }
  bool edge(size_t i, size_t j) const { return adj_[i * n_ + j] != 0; }
  const std::string& reason(size_t i, size_t j) const {
    return reasons_[i * n_ + j];
  }
  size_t degree(size_t i) const;

  /// Greedy clique cover ("the maximal sets of mergeable individual modes
  /// are identified by finding cliques of this graph ... using a greedy
  /// algorithm as the number of modes is small"). Returns groups of mode
  /// indices; singletons are modes that merge with nothing.
  std::vector<std::vector<size_t>> clique_cover() const;

 private:
  void build(const std::vector<const Sdc*>& modes, MergeContext& ctx);

  size_t n_ = 0;
  std::vector<uint8_t> adj_;
  std::vector<std::string> reasons_;
};

}  // namespace mm::merge
