#pragma once
// MergeSession: the delta-driven merge engine. The batch pipeline
// (mergeability graph -> greedy clique cover -> per-clique superset merge ->
// refinement -> equivalence validation) is a pure function of the mode set,
// but real sign-off is iterative: engineers add, drop and edit modes
// repeatedly while converging. A MergeSession keeps the whole pipeline's
// intermediate state alive between edits so each delta pays only for what
// it invalidated:
//
//   add_mode(m)    -> m's M-1 pairs are checked at the next commit; every
//                     clean pair verdict is carried over.
//   update_mode(m) -> m's relationship-cache entry is invalidated, its M-1
//                     pairs are re-checked, cliques containing m re-merge.
//   remove_mode(m) -> m's verdict row is dropped; no pair is re-checked,
//                     only cliques that lose a member re-merge.
//   commit()       -> re-checks exactly the dirty pairs (fanned over the
//                     session pool), recomputes the greedy cover over the
//                     full verdict matrix (cheap integer work, shared with
//                     the batch path so the cover is bit-identical), and
//                     re-runs preliminary merge + refinement + validation
//                     only for dirty cliques. An untouched clique's merged
//                     SDC, stats, and validation verdict are reused
//                     byte-for-byte from the previous commit.
//
// The session is rooted in a MergeContext: the context owns the canonical
// key table, the relationship cache, and the thread pool; the session owns
// the incremental state (live modes, verdict matrix, per-clique results)
// layered on top of it. Construct with an external context to share those
// caches across sessions, or with plain MergeOptions to let the session own
// a private context.
//
// Determinism contract (enforced by fuzz property P5 and bench_incremental):
// after any sequence of add/remove/update, commit() produces the same
// mergeability graph, reasons, clique cover, merged SDC bytes, and
// count-valued stats as a from-scratch merge_mode_set over the live modes
// in insertion order. Only wall-clock stats fields may differ.
//
// Observability: each commit bumps session/* counters — modes_added,
// modes_removed, modes_updated, commits, pairs_rechecked,
// pairs_skipped_clean, cliques_dirty, cliques_reused (docs/OBSERVABILITY.md).
// When the mm.journal/1 decision journal is open (obs/journal.h), every
// delta, pair re-check verdict, clique-cover decision, refinement pass, and
// equivalence outcome is appended as a structured event; commit() drains
// the journal buffers once at the end (a phase boundary). All events are
// emitted from the committing thread in deterministic order, so a journal
// is byte-identical across num_threads values.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "merge/context.h"
#include "merge/mergeability.h"
#include "merge/merger.h"
#include "merge/types.h"

namespace mm::merge {

class MergeSession {
 public:
  /// Stable handle to a mode across edits (never reused within a session).
  using ModeId = uint64_t;
  static constexpr ModeId kInvalidMode = 0;

  /// What one commit() produced. Merged results are shared with the
  /// session's reuse cache: a clique untouched by later deltas hands the
  /// same object to the next commit.
  struct CommitResult {
    /// One merged mode per clique, in cover order.
    std::vector<std::shared_ptr<const ValidatedMergeResult>> merged;
    /// Clique membership as positions into modes() (insertion order).
    std::vector<std::vector<size_t>> cliques;
    /// Clique membership as session ModeIds (stable across commits).
    std::vector<std::vector<ModeId>> clique_ids;
    /// Per-clique: true if the result was reused byte-for-byte from the
    /// previous commit.
    std::vector<bool> reused;
    size_t num_input_modes = 0;
    size_t pairs_rechecked = 0;
    size_t pairs_skipped_clean = 0;
    size_t cliques_reused = 0;
    size_t cliques_merged = 0;
    double total_seconds = 0.0;

    size_t num_merged_modes() const { return merged.size(); }
    double reduction_percent() const {
      if (num_input_modes == 0) return 0.0;
      return 100.0 *
             (1.0 - static_cast<double>(merged.size()) /
                        static_cast<double>(num_input_modes));
    }
  };

  /// Borrow an external context (shared caches across sessions). The graph
  /// and context must outlive the session.
  MergeSession(const timing::TimingGraph& graph, MergeContext& ctx);
  /// Own a private context configured by `options`.
  explicit MergeSession(const timing::TimingGraph& graph,
                        MergeOptions options = {});
  MergeSession(const MergeSession&) = delete;
  MergeSession& operator=(const MergeSession&) = delete;
  ~MergeSession();

  /// Register a mode. The caller keeps ownership of `sdc`, which must stay
  /// alive until the mode is removed or updated. `name` is used in logs and
  /// the --script driver ("" is fine). The mode's relationship set is
  /// extracted (or cache-hit) immediately, so a re-added identical mode
  /// costs zero extractions.
  ModeId add_mode(std::string name, const Sdc* sdc);

  /// Drop a mode. Its pair verdicts are discarded; no pair is re-checked at
  /// the next commit — only cliques that contained it become dirty.
  void remove_mode(ModeId id);

  /// Replace a mode's constraints in place (same handle, same position in
  /// insertion order). Invalidates the old content's relationship-cache
  /// entry and marks the mode's pairs dirty. The old Sdc may be destroyed
  /// once this returns; `sdc` must stay alive like in add_mode.
  void update_mode(ModeId id, const Sdc* sdc);

  /// Run the pipeline over the current mode set, reusing everything the
  /// deltas since the previous commit did not invalidate. The returned
  /// reference stays valid until the next commit() / release_batch().
  const CommitResult& commit();

  size_t num_modes() const { return modes_.size(); }
  bool has_mode(ModeId id) const;
  /// Live modes in insertion order — the order a from-scratch
  /// merge_mode_set over the same set must use for output parity.
  std::vector<const Sdc*> live_modes() const;
  const std::string& mode_name(ModeId id) const;

  /// The mergeability graph of the last commit (empty before the first).
  const MergeabilityGraph& graph() const { return graph_; }
  const CommitResult& last_commit() const { return last_; }

  MergeContext& context() { return *ctx_; }

  /// One-shot adapter for the batch API: move the last commit's results
  /// into a MergedModeSet. Ends the session's reuse guarantees (the result
  /// cache is cleared; a later commit re-merges every clique).
  MergedModeSet release_batch();

 private:
  struct Entry {
    ModeId id = kInvalidMode;
    std::string name;
    const Sdc* sdc = nullptr;
    std::shared_ptr<const ModeRelationships> rels;
  };

  uint64_t pair_key(ModeId a, ModeId b) const;
  void mark_dirty(ModeId id);
  size_t position_of(ModeId id) const;

  const timing::TimingGraph& timing_graph_;
  std::unique_ptr<MergeContext> owned_ctx_;  // set iff constructed w/ options
  MergeContext* ctx_ = nullptr;

  /// Process-unique id tying this session's journal events together, and
  /// the 1-based commit counter scoping each journal segment.
  uint64_t journal_id_ = 0;
  uint64_t commit_seq_ = 0;

  /// Content fingerprint of the context's merge policy (0 for exact),
  /// folded into every pair-verdict key and clique-result key so cached
  /// decisions made under one policy can never be served to another —
  /// defense in depth for callers sharing caches across contexts.
  uint64_t policy_salt_ = 0;

  ModeId next_id_ = 1;
  std::vector<Entry> modes_;  // live modes, insertion order
  /// Verdicts for every checked live pair, keyed by pair_key(id, id).
  std::unordered_map<uint64_t, PairVerdict> verdicts_;
  /// Modes added or updated since the last commit: their pairs need
  /// (re-)checking.
  std::unordered_set<ModeId> dirty_;
  /// True until the first commit, and after release_batch().
  bool results_valid_ = false;
  /// Previous commit's per-clique results, keyed by sorted member ids.
  std::unordered_map<std::string, std::shared_ptr<ValidatedMergeResult>>
      clique_results_;
  MergeabilityGraph graph_{0, {}, {}};
  CommitResult last_;
};

}  // namespace mm::merge
