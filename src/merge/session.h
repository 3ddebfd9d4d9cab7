#pragma once
// MergeSession: the single-corner view of the session engine
// (merge/mcmm_session.h, where the delta semantics are documented). It
// registers one deck per mode under the default corner, forwards every
// delta to an McmmSession, and flattens each commit to one merged mode per
// clique. It holds no pair, dirty or clique state of its own.
//
// Determinism contract (fuzz P5 and bench_incremental): after any sequence
// of add/remove/update, commit() produces the same mergeability graph,
// reasons, clique cover, merged SDC bytes and count-valued stats as a
// from-scratch merge_mode_set over the live modes in insertion order. Only
// wall-clock stats fields may differ.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "merge/context.h"
#include "merge/mcmm_session.h"
#include "merge/mergeability.h"
#include "merge/merger.h"
#include "merge/types.h"

namespace mm::merge {

class MergeSession {
 public:
  /// Stable handle to a mode across edits (never reused within a session).
  using ModeId = McmmSession::ModeId;
  static constexpr ModeId kInvalidMode = McmmSession::kInvalidMode;

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

  size_t num_modes() const { return engine_.num_modes(); }
  /// Member views the session holds (McmmSession::num_member_views).
  size_t num_member_views() const { return engine_.num_member_views(); }
  bool has_mode(ModeId id) const { return engine_.has_mode(id); }
  /// Live modes in insertion order — the order a from-scratch
  /// merge_mode_set over the same set must use for output parity.
  std::vector<const Sdc*> live_modes() const {
    return engine_.corner_modes(kPrimaryCorner);
  }
  const std::string& mode_name(ModeId id) const {
    return engine_.mode_name(id);
  }

  /// The mergeability graph of the last commit (empty before the first).
  const MergeabilityGraph& graph() const { return engine_.graph(); }
  const CommitResult& last_commit() const { return last_; }

  MergeContext& context() { return engine_.context(); }

  /// One-shot adapter for the batch API: move the last commit's results
  /// into a MergedModeSet. Ends the session's reuse guarantees (the result
  /// cache is cleared; a later commit re-merges every clique).
  MergedModeSet release_batch();

 private:
  McmmSession engine_;
  /// The last engine commit, flattened to its one corner.
  CommitResult last_;
};

}  // namespace mm::merge
