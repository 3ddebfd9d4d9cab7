#pragma once
// Shared types of the mode-merging engine.

#include <memory>
#include <string>
#include <vector>

#include "merge/policy.h"
#include "sdc/sdc.h"
#include "timing/graph.h"

namespace mm::merge {

using sdc::ClockId;
using sdc::Mode;
using sdc::Sdc;
using timing::PinId;

/// Deliberate pipeline bugs, injectable for mutation-testing the fuzz
/// harness's oracles (mm::fuzz): each one corrupts the merged mode *after*
/// refinement and *before* validation, so a healthy oracle must flag it.
/// Production paths always run with kNone.
enum class DebugMutation : uint8_t {
  kNone = 0,
  /// Rewrite every multicycle exception in the merged mode to a false path
  /// ("merge forgot MCP semantics") — endpoints lose their timed state, an
  /// optimism violation.
  kFalsifyMcp,
  /// Drop every exception from the merged mode — paths the source modes
  /// false-pathed become timed, pessimism the refinement never accounted.
  kDropExceptions,
  /// Reverse the merged exception order only when num_threads != 1 —
  /// breaks byte-parity between threaded and one-thread runs.
  kShuffleThreaded,
};

struct MergeOptions {
  /// Merge policy (merge/policy.h): exact (default, byte-identical to the
  /// pre-policy engine) or windowed (per-field bounded-pessimism budgets;
  /// mergeability accepts disagreement that fits the budget and the merged
  /// deck takes the worst-case envelope). Orthogonal to value_tolerance:
  /// a comparison passes when it is within tolerance OR within the
  /// policy's window for the field.
  MergePolicy policy;
  /// Relative tolerance for merging clock-based / drive / load constraint
  /// values across modes (paper §3.1.2 "within a certain tolerance limit").
  double value_tolerance = 0.0;
  /// Worker threads for the whole merge pipeline: the MergeContext pool
  /// sized by this value runs relationship extraction, pairwise
  /// mergeability checks, refinement passes, and equivalence validation
  /// (0 = hardware concurrency).
  size_t num_threads = 0;
  /// ignored; kept only because the benchmark harness still names it;
  /// removed with the next benchmark PR
  bool use_batched_sta = true;
  /// Run §3.2 refinement (clock + data + 3-pass). Disabling yields the
  /// preliminary merged mode only — used by benchmarks and ablations.
  bool run_refinement = true;
  /// Run the final two-sided equivalence validation.
  bool validate = true;
  /// Compare and refine hold-side (min-path) relationships as well as
  /// setup-side. Fixes that apply to only one side are emitted with
  /// -setup / -hold qualifiers.
  bool analyze_hold = true;
  /// Fuzz-harness mutation testing only (see DebugMutation).
  DebugMutation debug_mutation = DebugMutation::kNone;
};

/// Two-way map between individual-mode clocks and merged-mode clocks
/// (paper §3.1.1: "we create a two way map between the individual mode
/// clocks and the merged mode clocks").
struct ClockMap {
  /// to_merged[mode_index][mode_clock.index] -> merged clock id.
  std::vector<std::vector<ClockId>> to_merged;
  /// from_merged[merged_clock.index][mode_index] -> mode clock id
  /// (invalid if the clock does not exist in that mode).
  std::vector<std::vector<ClockId>> from_merged;

  size_t num_modes() const { return to_merged.size(); }
  size_t num_merged_clocks() const { return from_merged.size(); }

  ClockId merged_of(size_t mode, ClockId mode_clock) const {
    return to_merged[mode][mode_clock.index()];
  }
  ClockId mode_clock_of(ClockId merged, size_t mode) const {
    return from_merged[merged.index()][mode];
  }
  /// True if the merged clock exists in the given mode.
  bool exists_in(ClockId merged, size_t mode) const {
    return from_merged[merged.index()][mode].valid();
  }

  void register_clock(size_t mode, ClockId mode_clock, ClockId merged,
                      size_t total_modes);

  friend bool operator==(const ClockMap&, const ClockMap&) = default;
};

struct MergeStats {
  // Preliminary merge counters.
  size_t clocks_union = 0;
  size_t clocks_deduped = 0;
  size_t clocks_renamed = 0;
  size_t clock_constraints_merged = 0;
  size_t clock_constraints_dropped = 0;
  size_t port_delays_union = 0;
  size_t case_kept = 0;
  size_t case_dropped = 0;
  size_t disables_kept = 0;
  size_t disables_dropped = 0;
  size_t drive_load_kept = 0;
  size_t drive_load_dropped = 0;
  size_t exclusivity_constraints = 0;
  size_t exceptions_common = 0;
  size_t exceptions_uniquified = 0;
  size_t exceptions_dropped = 0;
  size_t exceptions_kept_pessimistic = 0;
  // Refinement counters.
  size_t inferred_disables = 0;
  size_t clock_stops_added = 0;
  size_t data_clock_fps_added = 0;
  size_t pass0_pair_fixed = 0;  // clock-pair-level false paths
  size_t pass1_keys = 0;
  size_t pass1_mismatch_fixed = 0;
  size_t pass1_ambiguous = 0;
  size_t pass2_keys = 0;
  size_t pass2_mismatch_fixed = 0;
  size_t pass2_ambiguous = 0;
  size_t pass3_pairs = 0;
  size_t pass3_paths_enumerated = 0;
  size_t pass3_fps_added = 0;
  size_t unresolved_pessimism = 0;
  // Timing.
  double preliminary_seconds = 0.0;
  double refinement_seconds = 0.0;
  double validate_seconds = 0.0;
  // Data-refinement wall clock per pass, as the merge/refine_pass0..3
  // spans time them: 0 = launch clocks on the data network, 1-3 = the
  // three relationship passes (pass 1 includes the clock-pair fixes).
  double pass0_seconds = 0.0;
  double pass1_seconds = 0.0;
  double pass2_seconds = 0.0;
  double pass3_seconds = 0.0;
};

/// Lengths of the merged deck's refinement-appended lists (and of the
/// notes) as the preliminary merge left them. Refinement only appends — to
/// disables, clock sense stops and exceptions — so everything past these
/// marks is the refinement's fix list.
struct FixListMarks {
  size_t disables = 0;
  size_t clock_sense_stops = 0;
  size_t exceptions = 0;
  size_t notes = 0;
};

struct MergeResult {
  std::unique_ptr<Sdc> merged;
  ClockMap clock_map;
  MergeStats stats;
  std::vector<std::string> notes;  // human-readable decision log
  FixListMarks fix_marks;

  void note(std::string msg) { notes.push_back(std::move(msg)); }
};

}  // namespace mm::merge
