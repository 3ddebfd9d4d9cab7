#pragma once
// McmmSession: the delta-driven merge engine over a matrix of modes x
// corners (docs/MCMM.md). It is the only session engine: MergeSession
// (merge/session.h) is its single-corner view, and the batch
// merge_mode_set is one MergeSession commit.
//
// Sign-off is iterative, so the session keeps the pipeline's state alive
// between edits and each delta pays only for what it invalidated:
//
//   add_mode(m)        -> m's pairs are checked at the next commit; every
//                         clean pair verdict is carried over.
//   update_mode(m, c)  -> only the (m, c) slot is dirtied: its relationship
//                         set is re-derived, corner c is re-checked on m's
//                         pairs, and corner c's cliques containing m
//                         re-merge.
//   remove_mode(m)     -> m's verdicts are dropped; no pair is re-checked,
//                         only cliques that lose a member re-merge.
//   commit()           -> visits only the pairs with a dirty endpoint,
//                         recomputes the greedy cover over the full
//                         verdict matrix, and re-merges only dirty
//                         (clique, corner) slots; an untouched slot's
//                         result is reused byte for byte.
//
// Corners vary only constraint values, so each mode has one skeleton
// extraction (corner 0) plus one value-only delta fill per other corner.
// Two modes merge only when mergeable in EVERY corner: check_mergeable
// runs on each corner in order, with early exit on the first conflicting
// corner. ONE clique cover is computed over the combined verdicts, and
// each clique merges once per corner. Refinement and validation read only
// value-independent timing state, so a corner c > 0 whose member decks
// have corner 0's timing state takes corner 0's fix list and equivalence
// report instead of refining again (merge_modes' donor); any other corner
// falls back to a full merge.
//
// From the second commit on, each (mode, corner) slot also keeps a member
// view (merge/refine_context.h): the ModeGraph, compiled exceptions and
// endpoint-level relation table of its deck, which depend on that deck
// alone. A later merge of the deck, in whatever clique, takes the view
// instead of building and walking it again, so an edit commit walks only
// the edited decks. A view lives exactly as long as the slot's deck:
// update_mode and remove_mode drop it, and so does release_batch. The
// first commit keeps none, so a batch merge_mode_set (one commit) holds no
// more memory than the merge itself.
//
// The session is rooted in a MergeContext (key table, relationship cache,
// thread pool): borrow one to share those caches across sessions, or pass
// MergeOptions to own a private one.
//
// Determinism contract (fuzz P5 and P8, bench_incremental): commit()
// output equals a from-scratch merge of the live modes in insertion order,
// corner by corner under the shared cover. The mm.journal/1 events
// (obs/journal.h) are emitted serially in deterministic order, so a
// journal is byte-identical across num_threads values; corner fields
// appear only at C > 1. Counters: the session/* family
// (docs/OBSERVABILITY.md).

#include <cstdint>
#include <map>
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
    /// Of the merges run in corners c > 0: those that took corner 0's fix
    /// list and equivalence report (same timing state), and those that
    /// fell back to a full refinement and validation. Both 0 at C == 1.
    size_t corner_shared_merges = 0;
    size_t corner_share_fallbacks = 0;
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
  /// until the next commit() / release_batch().
  const CommitResult& commit();

  /// Move the last commit's results out, one MergedModeSet per corner (the
  /// batch API's shape). Ends the reuse guarantees: the result cache is
  /// cleared and a later commit re-merges every clique.
  std::vector<MergedModeSet> release_batch();

  /// Never-optimistic QoR gate for ONE corner of the last commit: the
  /// corner's member decks vs its merged cliques, one flat report
  /// (qor_report deck-level overload). MCMM sign-off runs this for every
  /// corner — the invariant must hold per corner, not just in aggregate.
  QoRReport qor(CornerId corner, double slack_eps = 1e-4) const;

  size_t num_modes() const { return modes_.size(); }
  /// Member views the session holds, over every (mode, corner) slot.
  size_t num_member_views() const;
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
    /// timing_state_fingerprint of each deck, refreshed with rels; kept
    /// only at C > 1, where it decides corner sharing.
    std::vector<uint64_t> state_fps;  // [corner]
    /// Each deck's member view, kept from the second commit on; empty
    /// until a merge of the deck builds it and again once the deck is
    /// replaced.
    std::vector<MemberView> views;  // [corner]
  };
  /// Stored verdicts for one live pair. checked[c] == 0 marks a corner
  /// slot that was invalidated (dirty endpoint) or never reached (a lower
  /// corner early-exited); the resume scan recomputes it when it reaches
  /// corner c. `combined` is the all-corner verdict the cover reads and
  /// `scanned` the number of corner slots that scan visited; both change
  /// only when a commit recomputes a slot of this pair.
  struct PairState {
    std::vector<uint8_t> checked;       // [corner]
    std::vector<PairVerdict> verdicts;  // [corner]
    PairVerdict combined;
    uint32_t scanned = 0;
  };

  /// The two ids packed into one key, smaller id in the high half.
  static uint64_t pair_key(ModeId a, ModeId b);
  size_t position_of(ModeId id) const;
  /// The clique event of one (clique, corner) slot, followed by its refine
  /// and equivalence events when the slot was merged this commit.
  void journal_clique(CornerId corner, size_t clique_index,
                      const CommitResult& out, bool reused,
                      const char* action,
                      const ValidatedMergeResult& result) const;

  const timing::TimingGraph& timing_graph_;
  CornerSet corners_;
  std::unique_ptr<MergeContext> owned_ctx_;  // set iff constructed w/ options
  MergeContext* ctx_ = nullptr;

  /// Process-unique id tying this session's journal events together, and
  /// the 1-based commit counter scoping each journal segment.
  uint64_t journal_id_ = 0;
  uint64_t commit_seq_ = 0;

  ModeId next_id_ = 1;
  std::vector<Entry> modes_;  // live modes, insertion order
  /// Per-pair per-corner verdict state, keyed by pair_key(id, id).
  std::unordered_map<uint64_t, PairState> pairs_;
  /// Dirty (mode, corner) slots since the last commit; a mode is present
  /// only with at least one dirty slot.
  std::unordered_map<ModeId, std::vector<uint8_t>> dirty_;
  /// Previous commit's results of one corner, keyed by clique member ids.
  using CliqueResults =
      std::map<std::vector<ModeId>, std::shared_ptr<ValidatedMergeResult>>;
  /// [corner]; empty before the first commit and after release_batch().
  std::vector<CliqueResults> clique_results_;
  MergeabilityGraph graph_{0, {}, {}};
  /// A mode was added or removed since graph_ was built, so positions in
  /// it no longer match modes_.
  bool positions_moved_ = true;
  CommitResult last_;
};

}  // namespace mm::merge
