#pragma once
// Memoized per-mode relationship extraction for mergeability analysis.
//
// check_mergeable derives the same per-mode data for every pair it
// inspects: canonical clock keys, per-clock constraint windows, exception
// signatures, effective launch-clock key sets. Over an M-mode set the
// pairwise mock merges re-derive each mode's set M-1 times — O(M^2) full
// extractions, the first superlinear wall of the pipeline (paper §2.3).
//
// ModeRelationships is one mode's set, extracted once by a single linear
// scan and fully self-contained (no Sdc pointers), so a cached entry
// outlives the Sdc it came from. RelationshipCache memoizes extraction
// behind a content-hash key — FNV-1a over the mode's written SDC text plus
// the netlist's identity — so repeated analyses (clique-cover rebuilds,
// bench sweeps, server-style re-runs over the same decks) skip extraction
// entirely, and any textual change to the constraints or a different
// netlist invalidates naturally.
//
// Each entry carries its canonical key strings plus sorted indexes over them
// (clocks by key, exceptions by anchor and by full signature), built once at
// extraction. check_mergeable matches two entries by merge-joins and binary
// searches over those indexes. The strings mean the same in every entry, so
// entries from any cache, context or thread compare directly.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ranges>
#include <string>
#include <unordered_map>
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
  /// against before a value-only delta fill may reuse this entry's keys and
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

/// Extract a mode's relationship set (one linear scan over the Sdc).
ModeRelationships extract_relationships(const Sdc& sdc);

/// Content-addressed, thread-safe memoization of extract_relationships.
class RelationshipCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Corner entries produced by the value-only delta fill (skeleton
    /// structure reused) vs corner decks whose structure diverged from
    /// their skeleton and fell back to full extraction.
    uint64_t delta_fills = 0;
    uint64_t skeleton_mismatches = 0;
  };

  /// `max_entries` bounds memory; exceeding it evicts the whole table
  /// (entries are cheap to rebuild and eviction is rare at real mode
  /// counts).
  explicit RelationshipCache(size_t max_entries = 4096);

  /// Extract-or-reuse. Thread-safe: concurrent misses on the same key both
  /// extract and the first insert wins. Increments the
  /// merge/relationship_cache_{hits,misses} counters.
  std::shared_ptr<const ModeRelationships> get(const Sdc& sdc);

  /// Corner entry: extract-or-delta-fill. `skeleton` is the mode's primary
  /// corner entry (from get()). When `corner_sdc`'s structural fingerprint
  /// (merge/corner.h) matches the skeleton's, the entry is built by copying
  /// the skeleton — canonical keys, signatures and their indexes — and
  /// re-scanning only the corner deck's value tables (clock
  /// latency/uncertainty/transition, drives, loads): a value-only fill that
  /// skips every key derivation. The result is value-identical
  /// to extract_relationships(corner_sdc) — asserted by fuzz P8 — so
  /// skeleton sharing can never change a verdict. Structure mismatches
  /// (counted merge/relationship_cache_skeleton_mismatches) fall back to
  /// full extraction. Memoized under the same content key as get().
  std::shared_ptr<const ModeRelationships> get_corner(
      const Sdc& corner_sdc, const ModeRelationships& skeleton);

  /// The key get() uses: FNV-1a of write_sdc(sdc) mixed with the design's
  /// structural identity — name, pin/port/net/instance counts, and every
  /// port name — so two distinct designs never alias an entry just because
  /// their name and pin count agree. Exposed so tests can assert
  /// invalidation.
  static uint64_t content_key(const Sdc& sdc);

  /// Drop the entry for this mode's current content, if present. Used by
  /// the session's update_mode so a long-lived session does not accumulate
  /// entries for constraint decks nothing can reach anymore. (Content
  /// addressing already prevents *stale hits*; this bounds growth.)
  void invalidate(const Sdc& sdc);

  void clear();
  size_t size() const;
  Stats stats() const;

 private:
  using Entry = std::shared_ptr<const ModeRelationships>;

  /// The entry under `key`, counted as a hit; on a miss, `make()` builds it
  /// outside the lock and it is inserted (evicting the whole table when
  /// full).
  Entry lookup_or_insert(uint64_t key, const std::function<Entry()>& make);

  const size_t max_entries_;
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, Entry> map_;
  Stats stats_;
};

}  // namespace mm::merge
