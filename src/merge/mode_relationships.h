#pragma once
// Per-mode relationship extraction for mergeability analysis and
// preliminary merging.
//
// check_mergeable derives the same per-mode data for every pair it
// inspects: canonical clock keys, per-clock constraint windows, exception
// signatures, effective launch-clock key sets. Over an M-mode set the
// pairwise mock merges would re-derive each mode's set M-1 times — O(M^2)
// full extractions, the first superlinear wall of the pipeline (paper §2.3).
//
// ModeRelationships is one mode's set, extracted once by a single linear
// scan and fully self-contained (no Sdc pointers), so it outlives the Sdc
// it came from. The session slot that holds a deck (merge/mcmm_session.h)
// is the one owner of its set: built at the commit that first needs it,
// dropped when the slot's deck is replaced, and handed to every pair check
// and clique merge of the deck. RelationshipBuilder builds sets and counts
// them; it keeps none.
//
// Each set carries its canonical key strings plus sorted indexes over them
// (clocks by key, exceptions by anchor and by full signature), built once at
// extraction. check_mergeable matches two sets by merge-joins and binary
// searches over those indexes. The strings mean the same in every set, so
// sets built by any context or thread compare directly.

#include <atomic>
#include <cstdint>
#include <memory>
#include <ranges>
#include <string>
#include <vector>

#include "merge/types.h"

namespace mm::merge {

/// One mode's relationship set as mergeability analysis consumes it.
struct ModeRelationships {
  /// Per-clock constraint values, pre-resolved with the same
  /// last-matching-entry-wins scan check_mergeable performs on the raw
  /// constraint lists. Indices: latency[source][max_side],
  /// uncertainty[setup], transition[max_side].
  struct ClockInfo {
    std::string key;  // canonical clock key (merge/keys.h)
    double latency[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
    bool latency_present[2][2] = {{false, false}, {false, false}};
    double uncertainty[2] = {0.0, 0.0};
    bool uncertainty_present[2] = {false, false};
    double transition[2] = {0.0, 0.0};
    bool transition_present[2] = {false, false};
  };

  struct ExceptionInfo {
    sdc::ExceptionKind kind = sdc::ExceptionKind::kFalsePath;
    double value = 0.0;
    std::string sig_anchor;  // exception_signature(include_value=false)
    std::string sig_full;    // exception_signature(include_value=true)
    /// The -from clocks as indices into `clocks`, one per key in key order
    /// (effective_from_keys). Empty when the -from names no clock, which
    /// means every clock of the mode: launch_clocks() then reads
    /// clock_order.
    std::vector<uint32_t> from_clocks;
  };

  std::vector<ClockInfo> clocks;          // index = ClockId.index()
  std::vector<ExceptionInfo> exceptions;  // in Sdc order
  std::vector<sdc::DriveConstraint> drives;
  std::vector<sdc::LoadConstraint> loads;

  /// Structural fingerprint of the deck this set was extracted from
  /// (merge/corner.h): the skeleton identity corner decks are matched
  /// against before a value-only delta fill may reuse this set's keys and
  /// indexes.
  uint64_t structure_fp = 0;

  /// Clock indices in canonical-key order, first clock per key, so the
  /// clock pre-screen visits matched clocks in the order the Sdc-level
  /// check does and returns the same first conflict.
  std::vector<uint32_t> clock_order;
  /// Exception indices in sig_anchor order, first exception (Sdc order) per
  /// anchor, as the Sdc-level check's anchor map keeps them.
  std::vector<uint32_t> anchor_order;
  /// Exception indices in sig_full order, one per full signature.
  std::vector<uint32_t> full_order;

  /// An exception's effective launch clocks, one per key in key order.
  const std::vector<uint32_t>& launch_clocks(const ExceptionInfo& ex) const {
    return ex.from_clocks.empty() ? clock_order : ex.from_clocks;
  }

  /// The keys of `indices` (clock_order or launch_clocks), as an ascending
  /// view for keys_disjoint.
  auto keys_of(const std::vector<uint32_t>& indices) const {
    return indices | std::views::transform(
                         [this](uint32_t i) -> const std::string& {
                           return clocks[i].key;
                         });
  }

  /// The first exception (Sdc order) with this anchor signature, or null.
  const ExceptionInfo* find_anchor(const std::string& sig_anchor) const;

  /// Whether some exception of this mode has this full signature.
  bool has_full_sig(const std::string& sig_full) const;
};

/// Relationship sets of a list of modes, one per mode in the same order.
using RelationshipSets =
    std::vector<std::shared_ptr<const ModeRelationships>>;

/// Extract a mode's relationship set (one linear scan over the Sdc).
ModeRelationships extract_relationships(const Sdc& sdc);

/// Builds relationship sets and counts them. Holds no sets: every call
/// builds. Thread-safe; the counters are lock-free.
class RelationshipBuilder {
 public:
  struct Stats {
    /// Every set built: full extractions plus corner delta fills. Named
    /// for a miss only because the benchmark harness still reads it as
    /// `misses`; renamed with the next benchmark change.
    uint64_t misses = 0;
    /// Corner sets produced by the value-only delta fill (skeleton
    /// structure reused) vs corner decks whose structure diverged from
    /// their skeleton and fell back to full extraction.
    uint64_t delta_fills = 0;
    uint64_t skeleton_mismatches = 0;
  };

  /// Full extraction (merge/relationship_sets_built).
  std::shared_ptr<const ModeRelationships> get(const Sdc& sdc);

  /// Corner set: delta-fill or extract. `skeleton` is the mode's primary
  /// corner set (from get()). When `corner_sdc`'s structural fingerprint
  /// (merge/corner.h) matches the skeleton's, the set is built by copying
  /// the skeleton — canonical keys, signatures and their indexes — and
  /// re-scanning only the corner deck's value tables (clock
  /// latency/uncertainty/transition, drives, loads): a value-only fill that
  /// skips every key derivation. The result is value-identical
  /// to extract_relationships(corner_sdc) — asserted by fuzz P8 — so
  /// skeleton sharing can never change a verdict. Structure mismatches
  /// (counted merge/relationship_skeleton_mismatches) fall back to full
  /// extraction.
  std::shared_ptr<const ModeRelationships> get_corner(
      const Sdc& corner_sdc, const ModeRelationships& skeleton);

  Stats stats() const;

 private:
  std::atomic<uint64_t> built_{0};
  std::atomic<uint64_t> delta_fills_{0};
  std::atomic<uint64_t> skeleton_mismatches_{0};
};

}  // namespace mm::merge
