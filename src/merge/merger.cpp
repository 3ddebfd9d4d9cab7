#include "merge/merger.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "merge/clock_refine.h"
#include "merge/corner.h"
#include "merge/data_refine.h"
#include "merge/preliminary.h"
#include "merge/session.h"
#include "obs/obs.h"
#include "util/logger.h"
#include "util/timer.h"

namespace mm::merge {

namespace {

/// Corrupt the merged mode per options.debug_mutation (fuzz-harness
/// mutation testing; no-op for kNone). Runs after refinement and before
/// validation so the equivalence oracle gets a chance to catch the bug.
void apply_debug_mutation(Sdc& merged, const MergeOptions& options) {
  switch (options.debug_mutation) {
    case DebugMutation::kNone:
      return;
    case DebugMutation::kFalsifyMcp:
      for (sdc::Exception& e : merged.exceptions()) {
        if (e.kind == sdc::ExceptionKind::kMulticyclePath) {
          e.kind = sdc::ExceptionKind::kFalsePath;
          e.value = 0.0;
        }
      }
      return;
    case DebugMutation::kDropExceptions:
      merged.exceptions().clear();
      return;
    case DebugMutation::kShuffleThreaded:
      if (options.num_threads != 1) {
        std::reverse(merged.exceptions().begin(), merged.exceptions().end());
      }
      return;
  }
}

FixListMarks marks_of(const MergeResult& r) {
  return {r.merged->disables().size(), r.merged->clock_sense_stops().size(),
          r.merged->exceptions().size(), r.notes.size()};
}

/// Append `donor`'s fix list to `out` and adopt its refinement counters,
/// when `out`'s preliminary merge has the donor's clock map and timing
/// state. Returns false (with `out` untouched) otherwise.
bool adopt_fix_list(MergeResult& out, const MergeResult& donor) {
  if (out.clock_map != donor.clock_map) return false;
  Sdc& merged = *out.merged;
  const Sdc& from = *donor.merged;
  const FixListMarks& m = donor.fix_marks;
  merged.disables().insert(merged.disables().end(),
                           from.disables().begin() + m.disables,
                           from.disables().end());
  merged.clock_sense_stops().insert(
      merged.clock_sense_stops().end(),
      from.clock_sense_stops().begin() + m.clock_sense_stops,
      from.clock_sense_stops().end());
  merged.exceptions().insert(merged.exceptions().end(),
                             from.exceptions().begin() + m.exceptions,
                             from.exceptions().end());
  // With equal fix lists appended, equal fingerprints mean equal
  // preliminary timing state.
  if (timing_state_fingerprint(merged) != timing_state_fingerprint(from)) {
    merged.disables().resize(out.fix_marks.disables);
    merged.clock_sense_stops().resize(out.fix_marks.clock_sense_stops);
    merged.exceptions().resize(out.fix_marks.exceptions);
    return false;
  }
  out.notes.insert(out.notes.end(), donor.notes.begin() + m.notes,
                   donor.notes.end());

  // Refinement counters are the donor's; the preliminary counters and
  // every timing stay this merge's own (no refinement ran here).
  MergeStats& s = out.stats;
  const MergeStats& d = donor.stats;
  s.inferred_disables = d.inferred_disables;
  s.clock_stops_added = d.clock_stops_added;
  s.data_clock_fps_added = d.data_clock_fps_added;
  s.pass0_pair_fixed = d.pass0_pair_fixed;
  s.pass1_keys = d.pass1_keys;
  s.pass1_mismatch_fixed = d.pass1_mismatch_fixed;
  s.pass1_ambiguous = d.pass1_ambiguous;
  s.pass2_keys = d.pass2_keys;
  s.pass2_mismatch_fixed = d.pass2_mismatch_fixed;
  s.pass2_ambiguous = d.pass2_ambiguous;
  s.pass3_pairs = d.pass3_pairs;
  s.pass3_paths_enumerated = d.pass3_paths_enumerated;
  s.pass3_fps_added = d.pass3_fps_added;
  s.unresolved_pessimism = d.unresolved_pessimism;
  return true;
}

}  // namespace

ValidatedMergeResult merge_modes(const timing::TimingGraph& graph,
                                 const std::vector<const Sdc*>& modes,
                                 const MergeOptions& options) {
  MergeContext session(options);
  return merge_modes(graph, modes, session);
}

ValidatedMergeResult merge_modes(const timing::TimingGraph& graph,
                                 const std::vector<const Sdc*>& modes,
                                 MergeContext& session,
                                 const ValidatedMergeResult* donor,
                                 std::vector<MemberView>* views) {
  const MergeOptions& options = session.options();
  ValidatedMergeResult out{preliminary_merge(modes, session), {}};
  out.merge.fix_marks = marks_of(out.merge);

  if (donor != nullptr && options.debug_mutation == DebugMutation::kNone &&
      adopt_fix_list(out.merge, donor->merge)) {
    out.equivalence = donor->equivalence;
    out.shared = true;
  } else if (options.run_refinement) {
    Stopwatch timer;
    std::optional<RefineContext> refine;
    if (views != nullptr) {
      refine.emplace(graph, modes, session, std::move(*views));
    } else {
      refine.emplace(graph, modes, session);
    }
    const RefineContext& ctx = *refine;
    refine_clock_network(ctx, out.merge, options);
    refine_data_network(ctx, out.merge, options);
    out.merge.stats.refinement_seconds = timer.elapsed_seconds();

    apply_debug_mutation(*out.merge.merged, options);

    if (options.validate) {
      Stopwatch vtimer;
      out.equivalence =
          check_equivalence(ctx, *out.merge.merged, out.merge.clock_map);
      out.merge.stats.validate_seconds = vtimer.elapsed_seconds();
      if (!out.equivalence.signoff_safe()) {
        MM_ERROR("merged mode has %zu optimism violation(s)",
                 out.equivalence.optimism_violations);
      }
      MM_COUNT("merge/equivalence_keys_compared",
               out.equivalence.keys_compared);
      MM_COUNT("merge/optimism_violations",
               out.equivalence.optimism_violations);
    }
    if (views != nullptr) *views = ctx.views();
  }
  MM_COUNT("merge/modes_merged", modes.size());
  MM_COUNT("merge/pass1_ambiguous_endpoints", out.merge.stats.pass1_ambiguous);
  MM_COUNT("merge/unresolved_pessimism", out.merge.stats.unresolved_pessimism);
  return out;
}

MergedModeSet merge_mode_set(const timing::TimingGraph& graph,
                             const std::vector<const Sdc*>& modes,
                             const MergeOptions& options) {
  MergeContext session(options);
  return merge_mode_set(graph, modes, session);
}

MergedModeSet merge_mode_set(const timing::TimingGraph& graph,
                             const std::vector<const Sdc*>& modes,
                             MergeContext& ctx) {
  // The batch flow is now the degenerate session: add every mode, commit
  // once, hand the results over. Verdicts, cover, merged SDC bytes, and
  // count-valued stats are identical to the historical direct pipeline —
  // commit() shares the pair-check and greedy-cover code with it.
  Stopwatch timer;
  MergeSession session(graph, ctx);
  for (const Sdc* mode : modes) session.add_mode("", mode);
  session.commit();
  MergedModeSet out = session.release_batch();
  out.total_seconds = timer.elapsed_seconds();
  return out;
}

std::string report_merge(const MergeResult& result,
                         const EquivalenceReport& equivalence) {
  const MergeStats& s = result.stats;
  std::ostringstream os;
  os << "=== mode merge report ===\n";
  os << "preliminary merge (" << s.preliminary_seconds << " s)\n";
  os << "  clocks: " << s.clocks_union << " union, " << s.clocks_deduped
     << " deduplicated, " << s.clocks_renamed << " renamed\n";
  os << "  clock constraints: " << s.clock_constraints_merged << " merged, "
     << s.clock_constraints_dropped << " dropped\n";
  os << "  external delays: " << s.port_delays_union << " union\n";
  os << "  case_analysis: " << s.case_kept << " kept, " << s.case_dropped
     << " dropped\n";
  os << "  disable_timing: " << s.disables_kept << " kept, "
     << s.disables_dropped << " dropped\n";
  os << "  drive/load: " << s.drive_load_kept << " kept, "
     << s.drive_load_dropped << " dropped\n";
  os << "  clock exclusivity constraints: " << s.exclusivity_constraints
     << "\n";
  os << "  exceptions: " << s.exceptions_common << " common, "
     << s.exceptions_uniquified << " uniquified, " << s.exceptions_dropped
     << " dropped, " << s.exceptions_kept_pessimistic
     << " kept pessimistic\n";
  os << "refinement (" << s.refinement_seconds << " s)\n";
  os << "  inferred disables: " << s.inferred_disables << "\n";
  os << "  clock stop_propagation constraints: " << s.clock_stops_added << "\n";
  os << "  data-network clock false paths: " << s.data_clock_fps_added << "\n";
  os << "  pass 0: " << s.pass0_pair_fixed
     << " clock-pair false paths\n";
  os << "  pass 1: " << s.pass1_keys << " keys, " << s.pass1_mismatch_fixed
     << " fixed, " << s.pass1_ambiguous << " ambiguous endpoints\n";
  os << "  pass 2: " << s.pass2_keys << " keys, " << s.pass2_mismatch_fixed
     << " fixed, " << s.pass2_ambiguous << " ambiguous pairs\n";
  os << "  pass 3: " << s.pass3_pairs << " pairs, "
     << s.pass3_paths_enumerated << " paths, " << s.pass3_fps_added
     << " false paths added\n";
  os << "  unresolved pessimism: " << s.unresolved_pessimism << "\n";
  os << "validation (" << s.validate_seconds << " s)\n";
  os << "  keys compared: " << equivalence.keys_compared << ", matches: "
     << equivalence.matches << "\n";
  os << "  optimism violations: " << equivalence.optimism_violations
     << ", pessimism keys: " << equivalence.pessimism_keys
     << ", state mismatches: " << equivalence.state_mismatches << "\n";
  os << "  verdict: "
     << (equivalence.equivalent()
             ? "EQUIVALENT"
             : (equivalence.signoff_safe() ? "SIGNOFF-SAFE (pessimistic)"
                                           : "UNSAFE"))
     << "\n";
  for (const std::string& e : equivalence.examples) os << "    " << e << "\n";
  if (!result.notes.empty()) {
    os << "notes (" << result.notes.size() << "):\n";
    size_t shown = 0;
    for (const std::string& n : result.notes) {
      os << "  - " << n << "\n";
      if (++shown >= 20) {
        os << "  ... (" << result.notes.size() - shown << " more)\n";
        break;
      }
    }
  }
  return os.str();
}

}  // namespace mm::merge
