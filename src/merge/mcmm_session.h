#pragma once
// McmmSession: the multi-corner multi-mode merge engine (docs/MCMM.md).
//
// An MCMM sign-off matrix is modes x corners, but the corner axis only
// varies constraint VALUES (derates, loads, voltages) — topology (clocks,
// exceptions, drive/load channel shape) is a property of the mode. The
// session exploits that split end to end:
//
//   data model   one skeleton extraction per mode (corner 0, full
//                extract_relationships with interned keys) plus one
//                value-only delta fill per additional corner
//                (RelationshipCache::get_corner) — M skeletons + M*C value
//                tables instead of M*C full extractions.
//   mergeability two modes merge only when mergeable in EVERY registered
//                corner. The structural check runs once per pair (corner 0,
//                full check_mergeable); corners 1..C-1 run the value-only
//                screen (check_mergeable_values) when they share their
//                mode's skeleton, with early exit on the first conflicting
//                corner. The conflicting corner's name/id lands in the
//                PairVerdict and the journal.
//   cover        ONE clique cover over the combined (all-corner) verdicts —
//                the mode partition is shared across corners, which is what
//                makes the merged matrix navigable.
//   merge        each clique merges once per corner from that corner's
//                member decks; per-(clique, corner) results are cached and
//                reused across commits like MergeSession's clique results.
//
// Incrementality is per (mode, corner): update_mode(id, corner, deck)
// dirties only that corner's slot, so the next commit re-checks only that
// corner's values on the mode's pairs (stored per-corner verdicts for clean
// corners are carried over) and re-merges only that corner's cliques.
//
// Determinism contract: with one registered corner, commit() produces the
// same mergeability graph, cover, merged SDC bytes and verdicts as a
// MergeSession over the same decks — the corner machinery adds zero
// byte-level difference at C == 1 (fuzz property P8). At C > 1, each
// corner's cover-constrained merged decks are byte-identical to what the
// flat engine produces for that corner's decks under the shared cover.
//
// Observability: commits bump mcmm/* counters (pair_corner_checks,
// pair_corner_reuses, delta fills arrive via merge/relationship_cache_*);
// journal events carry corner provenance fields only when C > 1 so
// single-corner journals stay byte-stable against pre-MCMM builds.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "merge/context.h"
#include "merge/corner.h"
#include "merge/mergeability.h"
#include "merge/merger.h"
#include "merge/qor.h"

namespace mm::merge {

class McmmSession {
 public:
  /// Stable handle to a mode across edits (never reused within a session).
  using ModeId = uint64_t;
  static constexpr ModeId kInvalidMode = 0;

  /// What one commit() produced. merged/reused are corner-major:
  /// merged[c][k] is clique k's superset deck in corner c. Results are
  /// shared with the session's per-(clique, corner) reuse cache.
  struct CommitResult {
    /// Clique membership as positions into the live mode list (shared by
    /// every corner — the cover is computed once over combined verdicts).
    std::vector<std::vector<size_t>> cliques;
    /// Clique membership as session ModeIds (stable across commits).
    std::vector<std::vector<ModeId>> clique_ids;
    std::vector<std::vector<std::shared_ptr<const ValidatedMergeResult>>>
        merged;
    std::vector<std::vector<bool>> reused;
    size_t num_input_modes = 0;
    /// Pairs with at least one freshly computed corner verdict / pairs
    /// resolved entirely from stored verdicts.
    size_t pairs_rechecked = 0;
    size_t pairs_skipped_clean = 0;
    /// Per-corner verdicts computed fresh vs carried over clean this
    /// commit. Early exit keeps both below pairs * C.
    size_t pair_corner_checks = 0;
    size_t pair_corner_reuses = 0;
    /// (clique, corner) merges run vs reused, summed over corners.
    size_t cliques_merged = 0;
    size_t cliques_reused = 0;
    double total_seconds = 0.0;

    size_t num_merged_modes() const { return cliques.size(); }
    double reduction_percent() const {
      if (num_input_modes == 0) return 0.0;
      return 100.0 * (1.0 - static_cast<double>(cliques.size()) /
                                static_cast<double>(num_input_modes));
    }
  };

  /// Borrow an external context (shared caches across sessions). The graph
  /// and context must outlive the session.
  McmmSession(const timing::TimingGraph& graph, CornerSet corners,
              MergeContext& ctx);
  /// Own a private context configured by `options`.
  McmmSession(const timing::TimingGraph& graph, CornerSet corners,
              MergeOptions options = {});
  McmmSession(const McmmSession&) = delete;
  McmmSession& operator=(const McmmSession&) = delete;
  ~McmmSession();

  const CornerSet& corners() const { return corners_; }

  /// Register a mode with one deck per corner (decks.size() must equal
  /// corners().size(); decks[c] is the mode's constraints in corner c).
  /// The caller keeps ownership; every deck must stay alive until the mode
  /// is removed or that corner's slot is updated.
  ModeId add_mode(std::string name, std::vector<const Sdc*> decks);

  /// Replace ONE corner's deck for a mode. Only that (mode, corner) slot is
  /// dirtied: the next commit re-derives that slot's relationship set,
  /// re-checks only that corner's values on the mode's pairs, and re-merges
  /// only that corner's cliques containing the mode.
  void update_mode(ModeId id, CornerId corner, const Sdc* deck);

  /// Drop a mode. Its per-corner verdicts are discarded; no pair is
  /// re-checked at the next commit.
  void remove_mode(ModeId id);

  /// Run the corner-aware pipeline over the current matrix, reusing every
  /// per-corner verdict and per-(clique, corner) merge the deltas since the
  /// previous commit did not invalidate. The returned reference stays valid
  /// until the next commit().
  const CommitResult& commit();

  /// Never-optimistic QoR gate for ONE corner of the last commit: the
  /// corner's member decks vs its merged cliques, one flat report
  /// (qor_report deck-level overload). MCMM sign-off runs this for every
  /// corner — the invariant must hold per corner, not just in aggregate.
  QoRReport qor(CornerId corner, double slack_eps = 1e-4) const;

  size_t num_modes() const { return modes_.size(); }
  bool has_mode(ModeId id) const;
  const std::string& mode_name(ModeId id) const;
  /// Live decks of one corner in insertion order — the mode list a flat
  /// engine must see for that corner's byte-parity comparison.
  std::vector<const Sdc*> corner_modes(CornerId corner) const;

  /// The combined-verdict mergeability graph of the last commit.
  const MergeabilityGraph& graph() const { return graph_; }
  const CommitResult& last_commit() const { return last_; }
  MergeContext& context() { return *ctx_; }

 private:
  struct Entry {
    ModeId id = kInvalidMode;
    std::string name;
    std::vector<const Sdc*> decks;  // [corner]
    std::vector<std::shared_ptr<const ModeRelationships>> rels;  // [corner]
  };
  /// Stored per-corner verdicts for one live pair. checked[c] == 0 marks a
  /// slot that was invalidated (dirty endpoint) or never reached (a lower
  /// corner early-exited); it is recomputed on demand the next time the
  /// resume scan reaches corner c.
  struct PairState {
    std::vector<uint8_t> checked;    // [corner]
    std::vector<PairVerdict> verdicts;  // [corner]
  };

  uint64_t pair_key(ModeId a, ModeId b) const;
  size_t position_of(ModeId id) const;
  bool corner_dirty(ModeId id, CornerId corner) const;
  /// One corner's verdict for one pair: full check at corner 0, value-only
  /// screen for skeleton-sharing corners, full check on mismatch.
  PairVerdict check_corner(const Entry& a, const Entry& b,
                           CornerId corner) const;

  const timing::TimingGraph& timing_graph_;
  CornerSet corners_;
  std::unique_ptr<MergeContext> owned_ctx_;  // set iff constructed w/ options
  MergeContext* ctx_ = nullptr;

  uint64_t journal_id_ = 0;
  uint64_t commit_seq_ = 0;
  uint64_t policy_salt_ = 0;

  ModeId next_id_ = 1;
  std::vector<Entry> modes_;  // live modes, insertion order
  /// Per-pair per-corner verdict state, keyed by pair_key(id, id).
  std::unordered_map<uint64_t, PairState> pairs_;
  /// Dirty (mode, corner) slots since the last commit.
  std::unordered_map<ModeId, std::vector<uint8_t>> dirty_;
  bool results_valid_ = false;
  /// Previous commit's per-(clique, corner) results, keyed by
  /// "p<salt>:c<corner>:id,id,..." (salt/corner tags dropped when 0 / C==1
  /// so single-corner exact keys match MergeSession's).
  std::unordered_map<std::string, std::shared_ptr<ValidatedMergeResult>>
      clique_results_;
  MergeabilityGraph graph_{0, {}, {}};
  CommitResult last_;
};

}  // namespace mm::merge
