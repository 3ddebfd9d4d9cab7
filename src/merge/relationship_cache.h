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
// Extraction interns every key string into a CanonicalKeyTable, so each
// entry carries KeyIds, dense key bitsets, and a clock iteration order
// matching canonical-key string order; check_mergeable compares those
// integers instead of strings. All entries in one cache share one table, so
// their ids are mutually comparable.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "merge/keys.h"
#include "merge/types.h"
#include "util/bitset.h"

namespace mm::merge {

/// One mode's relationship set as mergeability analysis consumes it.
struct ModeRelationships {
  /// Per-clock constraint values, pre-resolved with the same
  /// last-matching-entry-wins scan check_mergeable performs on the raw
  /// constraint lists. Indices: latency[source][max_side],
  /// uncertainty[setup], transition[max_side].
  struct ClockInfo {
    std::string key;  // canonical clock key (merge/keys.h)
    KeyId key_id;     // interned key
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
    KeyId anchor_id;         // interned sig_anchor
    KeyId full_id;           // interned sig_full
    DynamicBitset from_key_bits;  // interned effective_from_keys
  };

  std::vector<ClockInfo> clocks;          // index = ClockId.index()
  std::vector<ExceptionInfo> exceptions;  // in Sdc order
  std::vector<sdc::DriveConstraint> drives;
  std::vector<sdc::LoadConstraint> loads;

  /// Structural fingerprint of the deck this set was extracted from
  /// (merge/corner.h): the skeleton identity corner decks are matched
  /// against before a value-only delta fill may reuse this entry's interned
  /// structure.
  uint64_t structure_fp = 0;

  /// Clock indices in canonical-key string order (first clock per key), so
  /// the clock pre-screen visits matched clocks in the order the Sdc-level
  /// check does and returns the same first conflict.
  std::vector<uint32_t> clock_order;
  std::unordered_map<uint32_t, uint32_t> by_key_id;  // key id -> clock index
  DynamicBitset clock_key_bits;                      // mode clock keys
  std::unordered_set<uint32_t> full_sig_ids;         // all full_id values
};

/// Extract a mode's relationship set (one linear scan over the Sdc),
/// interning every key into `table`. Ids are only comparable against
/// entries interned in the same table.
ModeRelationships extract_relationships(const Sdc& sdc,
                                        CanonicalKeyTable& table);

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

  /// Every extracted entry draws its ids from `table`, which must outlive
  /// the cache. `max_entries` bounds memory; exceeding it evicts the whole
  /// table (entries are cheap to rebuild and eviction is rare at real mode
  /// counts).
  explicit RelationshipCache(CanonicalKeyTable& table,
                             size_t max_entries = 4096);

  /// Extract-or-reuse. Thread-safe: concurrent misses on the same key both
  /// extract and the first insert wins. Increments the
  /// merge/relationship_cache_{hits,misses} counters.
  std::shared_ptr<const ModeRelationships> get(const Sdc& sdc);

  /// Corner entry: extract-or-delta-fill. `skeleton` is the mode's primary
  /// corner entry (from get()). When `corner_sdc`'s structural fingerprint
  /// (merge/corner.h) matches the skeleton's, the entry is built by copying
  /// the skeleton — canonical keys, signatures, interned ids, bitsets — and
  /// re-scanning only the corner deck's value tables (clock
  /// latency/uncertainty/transition, drives, loads): a value-only fill that
  /// skips every key derivation and intern. The result is value-identical
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
  CanonicalKeyTable& table_;
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, Entry> map_;
  Stats stats_;
};

}  // namespace mm::merge
