#pragma once
// QoR conformity report (paper Table 6 spirit, extended with merge-policy
// accounting): per clique, compare the merged deck's per-endpoint worst
// setup slacks against the worst slack over its member modes, then
// aggregate into one mm.qor/1 document (docs/POLICIES.md).
//
// The invariant the windowed policy sells is NEVER OPTIMISTIC: the merged
// deck may tighten an endpoint's slack (pessimism, bounded by
// MergePolicy::pessimism_bound()), but it must never loosen one, and it
// must never silently stop checking an endpoint a member mode timed.
// Fuzz property P7 (src/fuzz) asserts never_optimistic() on every windowed
// case it generates; modemerge --qor-out emits the JSON for sign-off.

#include <string>
#include <vector>

#include "merge/merger.h"
#include "merge/types.h"

namespace mm::merge {

/// Slack-delta summary of one multi-member clique. Deltas are
/// (worst individual slack) - (merged slack) per endpoint: positive =
/// merged is tighter (pessimistic, safe), negative = looser (optimistic,
/// a violation when it exceeds slack_eps).
struct CliqueQoR {
  size_t clique_index = 0;
  size_t num_members = 0;
  size_t endpoints_compared = 0;
  /// Endpoints timed by at least one member but absent from the merged
  /// deck's results — checks the merge silently dropped: optimism.
  size_t missing_endpoints = 0;
  /// Compared endpoints where the merged slack is looser than the worst
  /// individual slack by more than slack_eps.
  size_t optimism_violations = 0;
  double max_optimism = 0.0;   // largest loosening seen (0 when none)
  double max_pessimism = 0.0;  // largest tightening seen
  double mean_pessimism = 0.0; // mean positive delta over compared endpoints
};

struct QoRReport {
  std::string policy;            // options.policy.name()
  double pessimism_bound = 0.0;  // options.policy.pessimism_bound()
  double slack_eps = 0.0;
  std::vector<CliqueQoR> cliques;  // multi-member cliques only
  // Aggregates over all reported cliques.
  size_t endpoints_compared = 0;
  size_t missing_endpoints = 0;
  size_t optimism_violations = 0;
  double max_optimism = 0.0;
  double max_pessimism = 0.0;
  double mean_pessimism = 0.0;

  /// The hard policy invariant: no loosened slack, no dropped endpoint.
  bool never_optimistic() const {
    return optimism_violations == 0 && missing_endpoints == 0;
  }
};

/// Build the report over a completed merge: one setup-only run_sta per
/// member and per merged deck of each multi-member clique, fanned over a
/// pool of options.num_threads, then per-endpoint deltas.
/// Singleton cliques reuse the original constraints verbatim and are
/// skipped. `slack_eps` absorbs float accumulation noise in the
/// optimism direction only — pessimism is reported at full precision.
QoRReport qor_report(const timing::TimingGraph& graph,
                     const std::vector<const Sdc*>& modes,
                     const MergedModeSet& merged, const MergeOptions& options,
                     double slack_eps = 1e-4);

/// Deck-level entry: the same report over bare merged decks + clique
/// membership, without requiring a MergedModeSet (whose results are
/// move-only). This is how MCMM gates the invariant per corner: a corner's
/// decks and its per-clique merged decks form one flat report, and
/// McmmSession::qor runs it for each registered corner — never-optimistic
/// must hold in every corner, not just the primary one (docs/MCMM.md).
/// `merged_decks` is indexed like `cliques`.
QoRReport qor_report(const timing::TimingGraph& graph,
                     const std::vector<const Sdc*>& modes,
                     const std::vector<const Sdc*>& merged_decks,
                     const std::vector<std::vector<size_t>>& cliques,
                     const MergeOptions& options, double slack_eps = 1e-4);

/// Serialize as an mm.qor/1 JSON document (schema in docs/POLICIES.md).
std::string write_qor_json(const QoRReport& report);

}  // namespace mm::merge
