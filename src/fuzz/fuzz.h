#pragma once
// mm::fuzz — property-based differential fuzzing of the merge pipeline.
//
// The paper's central claim (§2) is that a merged superset mode is
// *equivalent* to each source mode. The engine additionally promises that a
// threaded run matches a one-thread run byte for byte, and that its
// cached, interned pair check matches the Sdc-level oracle. This harness
// industrializes those promises into a randomized, self-checking oracle:
//
//   1. generate a random design + mode family (gen::design_gen /
//      gen::mode_gen through a widened parameter space: generated clocks,
//      MCPs, min/max-delay, case analysis, disabled arcs, clock-group
//      topologies), then mutate the SDC *text* (drop / duplicate / reorder
//      / perturb constraint lines);
//   2. run the full merge flow and assert machine-checkable properties —
//      see check_case for the property set;
//   3. on any violation, delta-debug the case down to a minimal repro
//      (fewest modes, fewest constraint lines, smallest design), write it
//      to a corpus directory, and print the one-line seed that replays it.
//
// Every random decision flows from FuzzOptions::seed through util::Rng, so
// `modemerge_fuzz --case-seed N` reproduces any single case exactly.
//
// Mutation testing: MergeOptions::debug_mutation (merge/types.h) injects a
// known pipeline bug; a healthy oracle must catch it. The corpus replay
// keeps both directions as regressions: a checked-in case must pass clean
// AND still be caught under its recorded injection.

#include <string>
#include <vector>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "merge/types.h"
#include "util/rng.h"

namespace mm::fuzz {

struct FuzzOptions {
  uint64_t seed = 1;
  size_t iters = 100;
  /// Generated family size range: 2..max_modes modes per case.
  size_t max_modes = 6;
  /// Design size cap (registers); keeps one iteration in the tens of ms.
  size_t max_regs = 90;
  /// Merge threads for the baseline configuration (0 = hardware).
  size_t threads = 0;
  /// Enable the SDC-text mutation stage.
  bool mutate_sdc = true;
  // Property toggles.
  bool check_equiv = true;        // P1: two-sided equivalence per clique
  bool check_parity = true;       // P2: config byte-parity
  bool check_idempotence = true;  // P3: merge(S, S) == merge(S)
  bool check_cover = true;        // P4: clique-cover validity + maximality
  bool check_incremental = true;  // P5: MergeSession delta == batch rebuild
  bool check_policy = true;       // P7: windowed policy never-optimistic +
                                  //     bounded pessimism on a case-seeded
                                  //     near-miss family
  bool check_mcmm = true;         // P8: corner-aware MCMM parity — combined
                                  //     verdicts + per-corner byte parity
                                  //     to independent flat merges
  /// Corner-count cap for P8's generated matrix (cases draw 2..max_corners).
  size_t max_corners = 4;
  /// Cliques per case put through the idempotence re-merge (cost control).
  size_t idempotence_cliques = 2;
  /// Stop after this many violations (each is minimized first).
  size_t max_violations = 1;
  /// Write minimized repros under this directory ("" = don't).
  std::string corpus_dir;
  /// Injected pipeline bug for oracle mutation testing (kNone = off).
  merge::DebugMutation inject = merge::DebugMutation::kNone;
  /// Run the minimizer on each violation found.
  bool minimize = true;
};

/// One generated scenario: everything needed to rebuild the design and the
/// mode family from scratch (the SDC text is stored post-mutation).
struct FuzzCase {
  uint64_t case_seed = 0;
  gen::DesignParams design;
  std::vector<std::string> mode_names;
  std::vector<std::string> mode_sdc;
};

struct Violation {
  std::string property;  // "equivalence" | "parity" | "idempotence" |
                         // "cover" | "incremental" | "policy" | "mcmm"
  std::string detail;    // human-readable first finding
};

/// Outcome of checking one case.
struct CheckResult {
  bool parsed = false;  // false => case rejected (mutation broke the SDC)
  std::string parse_error;
  size_t cliques = 0;
  std::vector<Violation> violations;
  bool ok() const { return parsed && violations.empty(); }
};

/// One minimized finding, ready for the corpus.
struct Finding {
  FuzzCase repro;
  Violation violation;
  merge::DebugMutation inject = merge::DebugMutation::kNone;
  size_t minimize_runs = 0;  // predicate evaluations spent shrinking
};

struct FuzzReport {
  size_t iterations = 0;
  size_t rejected = 0;        // unparsable after mutation
  size_t modes_generated = 0;
  size_t cliques_checked = 0;
  std::vector<Finding> findings;
  double seconds = 0.0;
  bool ok() const { return findings.empty(); }
};

/// The case seed for iteration k of a run: util::Rng::mix(seed, k).
/// Printed on every violation so one integer replays the exact case.
inline uint64_t case_seed_for(uint64_t seed, uint64_t iteration) {
  return util::Rng::mix(seed, iteration);
}

/// Deterministically generate the case for a case seed.
FuzzCase generate_case(const FuzzOptions& options, uint64_t case_seed);

/// SDC-text mutation stage: drop / duplicate / swap / numerically perturb
/// constraint lines. Deterministic in `rng`.
std::string mutate_sdc_text(const std::string& text, util::Rng& rng);

/// Run the merge flow on one case and evaluate every enabled property:
///   P1 equivalence:  per clique, zero optimism violations, and zero
///                    pessimism keys unless the refinement explicitly
///                    accounted for them (stats.unresolved_pessimism);
///   P2 parity:       cliques and merged SDC bytes identical between the
///                    baseline configuration and a one-thread run;
///   P3 idempotence:  re-merging a merged superset mode with itself yields
///                    the same bytes (merge is a fixpoint);
///   P4 cover:        the clique cover partitions the modes, every
///                    in-clique pair is mergeable (re-checked through the
///                    reference Sdc-pair path), and the cover is maximal —
///                    a mode in a later clique conflicts with at least one
///                    member of every earlier clique;
///   P5 incremental:  a MergeSession driven through a case-seeded random
///                    add / remove / update sequence (with interleaved
///                    commits) ends byte-identical to a from-scratch batch
///                    merge of its final live modes — same clique cover,
///                    same mergeability edges and reason strings, same
///                    merged SDC bytes, same count-valued stats;
///   P7 policy:       a case-seeded near-miss family (gen/mode_gen.h:
///                    carrier gaps alternating W -/+ eps around the window
///                    boundary, every windowed field present in every mode)
///                    merged under MergePolicy::uniform(W) must decide the
///                    boundary correctly on both sides (exact: G cliques,
///                    windowed: exactly ceil(G/2)), record in-budget window
///                    provenance on every accepted pair, and pass the
///                    merge/qor.h oracle: merged decks NEVER optimistic vs
///                    the worst individual mode (hard), pessimism within
///                    MergePolicy::pessimism_bound() when refinement
///                    accounted for everything (unresolved_pessimism == 0);
///   P8 mcmm:         the session engine (merge/mcmm_session.h) over a
///                    case-seeded M x C corner family (gen/corner_gen.h:
///                    uniform per-corner value derates, which preserve
///                    exact-policy verdicts corner by corner): the combined
///                    mergeability graph equals the corner-0 reference
///                    graph edge for edge and reason for reason — skeleton
///                    sharing and value-only corner checks change no
///                    verdict — and each corner's merged decks are
///                    byte-identical to an independent flat merge of that
///                    corner's decks.
CheckResult check_case(const FuzzCase& c, const FuzzOptions& options);

/// Delta-debugging minimizer: greedily drop whole modes, ddmin each mode's
/// constraint lines, then shrink the design — re-running check_case at
/// every step and keeping only changes that preserve a violation of
/// `property`. Returns the smallest violating case found.
FuzzCase minimize_case(const FuzzCase& c, const FuzzOptions& options,
                       const std::string& property, size_t* runs = nullptr);

/// The full loop: iterate, check, minimize, collect (and write the corpus
/// when options.corpus_dir is set). Exports fuzz/* counters into the
/// mm.stats/1 snapshot.
FuzzReport run_fuzz(const FuzzOptions& options);

/// Names for DebugMutation in CLI flags and corpus manifests.
const char* mutation_name(merge::DebugMutation m);
bool parse_mutation(const std::string& name, merge::DebugMutation* out);

}  // namespace mm::fuzz
