#include "fuzz/fuzz.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "fuzz/corpus.h"
#include "gen/corner_gen.h"
#include "merge/equivalence.h"
#include "merge/mcmm_session.h"
#include "merge/mergeability.h"
#include "merge/qor.h"
#include "obs/journal.h"
#include "merge/merger.h"
#include "merge/session.h"
#include "netlist/design.h"
#include "obs/obs.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include "timing/graph.h"
#include "util/error.h"
#include "util/logger.h"
#include "util/timer.h"

namespace mm::fuzz {

using merge::DebugMutation;
using util::Rng;

const char* mutation_name(DebugMutation m) {
  switch (m) {
    case DebugMutation::kNone: return "none";
    case DebugMutation::kFalsifyMcp: return "falsify-mcp";
    case DebugMutation::kDropExceptions: return "drop-exceptions";
    case DebugMutation::kShuffleThreaded: return "shuffle-threaded";
  }
  return "none";
}

bool parse_mutation(const std::string& name, DebugMutation* out) {
  for (DebugMutation m : {DebugMutation::kNone, DebugMutation::kFalsifyMcp,
                          DebugMutation::kDropExceptions,
                          DebugMutation::kShuffleThreaded}) {
    if (name == mutation_name(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

// --- case generation --------------------------------------------------------

namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// Format a double the way the generators do (default ostream precision),
/// so perturbed lines look like generated ones.
std::string format_value(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string mutate_sdc_text(const std::string& text, Rng& rng) {
  std::vector<std::string> lines = split_lines(text);
  const size_t ops = 1 + rng.below(3);
  for (size_t op = 0; op < ops && !lines.empty(); ++op) {
    switch (rng.below(4)) {
      case 0:  // drop a constraint line
        lines.erase(lines.begin() + static_cast<long>(rng.below(lines.size())));
        break;
      case 1: {  // duplicate a line at a random position
        const std::string copy = lines[rng.below(lines.size())];
        lines.insert(lines.begin() + static_cast<long>(rng.below(lines.size() + 1)),
                     copy);
        break;
      }
      case 2: {  // reorder: swap two lines (SDC is last-entry-wins)
        std::swap(lines[rng.below(lines.size())],
                  lines[rng.below(lines.size())]);
        break;
      }
      default: {  // perturb one numeric token of one line
        std::string& line = lines[rng.below(lines.size())];
        std::istringstream is(line);
        std::vector<std::string> tokens;
        std::string tok;
        while (is >> tok) tokens.push_back(tok);
        std::vector<size_t> numeric;
        for (size_t t = 0; t < tokens.size(); ++t) {
          char* end = nullptr;
          std::strtod(tokens[t].c_str(), &end);
          if (end != tokens[t].c_str() && *end == '\0') numeric.push_back(t);
        }
        if (!numeric.empty()) {
          const size_t t = numeric[rng.below(numeric.size())];
          const double scales[] = {0.5, 0.9, 1.1, 2.0};
          const double v = std::strtod(tokens[t].c_str(), nullptr);
          tokens[t] = format_value(v * rng.pick(scales));
          std::string rebuilt;
          for (size_t k = 0; k < tokens.size(); ++k) {
            if (k) rebuilt += ' ';
            rebuilt += tokens[k];
          }
          line = rebuilt;
        }
        break;
      }
    }
  }
  return join_lines(lines);
}

FuzzCase generate_case(const FuzzOptions& options, uint64_t case_seed) {
  FuzzCase c;
  c.case_seed = case_seed;
  Rng rng(case_seed);

  gen::DesignParams dp;
  dp.name = "fuzz";
  dp.num_regs =
      30 + rng.below(options.max_regs > 30 ? options.max_regs - 30 : 1);
  dp.num_domains = 2 + rng.below(3);
  dp.num_data_ports = 3 + rng.below(4);
  dp.comb_per_reg = 1 + rng.below(3);
  dp.fanin_span = 4 + rng.below(8);
  dp.scan = rng.chance(70);
  dp.clock_gates = rng.chance(70);
  dp.seed = rng.next();
  c.design = dp;

  gen::ModeFamilyParams mp;
  mp.num_modes =
      2 + rng.below(options.max_modes >= 3 ? options.max_modes - 1 : 1);
  mp.target_groups = 1 + rng.below(mp.num_modes);
  const double periods[] = {4.0, 8.0, 10.0, 16.0};
  mp.base_period = rng.pick(periods);
  mp.group_mcps = rng.below(4);
  mp.mode_fps = rng.below(5);
  mp.io_delay_fraction = 0.1 * static_cast<double>(1 + rng.below(4));
  mp.group_conflict_step = rng.chance(70) ? 0.5 : 0.0;
  mp.seed = rng.next();
  // The widened space (see gen/mode_gen.h).
  mp.gen_clocks = rng.below(3);
  mp.min_max_delays = rng.below(3);
  mp.disabled_arcs = rng.below(3);
  mp.randomize_case = rng.chance(40);
  mp.clock_group_style = rng.below(4);

  for (const gen::GeneratedMode& gm : gen::generate_mode_family(dp, mp)) {
    c.mode_names.push_back(gm.name);
    std::string text = gm.sdc_text;
    if (options.mutate_sdc && rng.chance(60)) {
      text = mutate_sdc_text(text, rng);
    }
    c.mode_sdc.push_back(std::move(text));
  }
  return c;
}

// --- the oracle -------------------------------------------------------------

namespace {

merge::MergeOptions baseline_options(const FuzzOptions& options) {
  merge::MergeOptions base;
  base.num_threads = options.threads;
  base.debug_mutation = options.inject;
  return base;
}

/// The flipped configuration for P2: one thread instead of the baseline's
/// pool. Validation is skipped — P2 compares merge *outputs*, P1 owns
/// validation.
merge::MergeOptions flipped_options(const FuzzOptions& options) {
  merge::MergeOptions alt = baseline_options(options);
  alt.num_threads = 1;
  alt.validate = false;
  return alt;
}

std::string clique_to_string(const std::vector<size_t>& clique) {
  std::string s = "{";
  for (size_t k = 0; k < clique.size(); ++k) {
    if (k) s += ",";
    s += std::to_string(clique[k]);
  }
  return s + "}";
}

/// P1: the paper-§2 equivalence oracle over every clique's validation
/// report. The report itself must be the one a full check of the merged
/// deck on a fresh context gives, field for field: the pipeline's
/// validation may take pass 1's sweep or splice re-walked endpoint cones
/// into pass 1's table instead of walking the deck again.
void check_equiv_property(const timing::TimingGraph& graph,
                          const std::vector<const sdc::Sdc*>& modes,
                          const merge::MergedModeSet& out,
                          std::vector<Violation>& violations) {
  for (size_t i = 0; i < out.merged.size(); ++i) {
    const merge::ValidatedMergeResult& m = out.merged[i];
    const merge::EquivalenceReport& eq = m.equivalence;
    std::string where = "clique " + std::to_string(i) + " " +
                        clique_to_string(out.cliques[i]);
    std::vector<const sdc::Sdc*> members;
    for (size_t k : out.cliques[i]) members.push_back(modes[k]);
    merge::RefineContext fresh(graph, members);
    const merge::EquivalenceReport full = merge::check_equivalence(
        fresh, *m.merge.merged, m.merge.clock_map);
    if (full.keys_compared != eq.keys_compared ||
        full.matches != eq.matches ||
        full.optimism_violations != eq.optimism_violations ||
        full.pessimism_keys != eq.pessimism_keys ||
        full.state_mismatches != eq.state_mismatches ||
        full.examples != eq.examples) {
      violations.push_back(
          {"equivalence",
           where + ": validation report differs from a fresh full check (" +
               std::to_string(eq.keys_compared) + " keys, " +
               std::to_string(eq.matches) + " matches vs " +
               std::to_string(full.keys_compared) + " keys, " +
               std::to_string(full.matches) + " matches)"});
    }
    if (eq.optimism_violations > 0) {
      violations.push_back(
          {"equivalence",
           where + ": " + std::to_string(eq.optimism_violations) +
               " optimism violation(s)" +
               (eq.examples.empty() ? "" : "; " + eq.examples.front())});
    } else if (eq.pessimism_keys > 0 &&
               m.merge.stats.unresolved_pessimism == 0) {
      violations.push_back(
          {"equivalence",
           where + ": " + std::to_string(eq.pessimism_keys) +
               " unaccounted pessimism key(s)" +
               (eq.examples.empty() ? "" : "; " + eq.examples.front())});
    }
  }
}

/// P2: byte-parity between the baseline and the one-thread configuration.
void check_parity_property(const timing::TimingGraph& graph,
                           const std::vector<const sdc::Sdc*>& ptrs,
                           const FuzzOptions& options,
                           const merge::MergedModeSet& base_out,
                           std::vector<Violation>& violations) {
  const merge::MergedModeSet alt =
      merge::merge_mode_set(graph, ptrs, flipped_options(options));

  std::string mismatch;
  if (alt.cliques != base_out.cliques) {
    mismatch = "clique cover differs";
  } else {
    for (size_t i = 0; i < base_out.merged.size() && mismatch.empty(); ++i) {
      if (sdc::write_sdc(*base_out.merged[i].merge.merged) !=
          sdc::write_sdc(*alt.merged[i].merge.merged)) {
        mismatch = "merged SDC bytes differ for clique " + std::to_string(i);
      }
    }
  }
  if (!mismatch.empty()) {
    violations.push_back({"parity", mismatch + " (num_threads " +
                                        std::to_string(options.threads) +
                                        " vs 1)"});
  }
}

/// The SDC text as a sorted line multiset. Refinement derives exceptions in
/// analysis order rather than source order, so a re-merge can emit the same
/// constraints with two lines swapped; the fixpoint property is about
/// content, not line order, and a multiset compare still catches dropped,
/// duplicated, or altered constraints.
std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// P3: the merge is a fixpoint — re-merging a superset mode with itself
/// reproduces its constraints.
void check_idempotence_property(const timing::TimingGraph& graph,
                                const FuzzOptions& options,
                                const merge::MergedModeSet& base_out,
                                std::vector<Violation>& violations) {
  merge::MergeOptions re = baseline_options(options);
  re.validate = false;
  const size_t limit =
      std::min(options.idempotence_cliques, base_out.merged.size());
  for (size_t i = 0; i < limit; ++i) {
    const sdc::Sdc& superset = *base_out.merged[i].merge.merged;
    const merge::MergedModeSet again =
        merge::merge_mode_set(graph, {&superset, &superset}, re);
    if (again.cliques.size() != 1 || again.cliques[0].size() != 2) {
      violations.push_back(
          {"idempotence", "clique " + std::to_string(i) +
                              ": superset mode is not mergeable with itself"});
      continue;
    }
    if (sorted_lines(sdc::write_sdc(*again.merged[0].merge.merged)) !=
        sorted_lines(sdc::write_sdc(superset))) {
      violations.push_back(
          {"idempotence",
           "clique " + std::to_string(i) +
               ": merge(S, S) produced different constraints than S"});
    }
  }
}

/// P4: cover validity + maximality, with every edge re-derived through the
/// Sdc-level mergeability oracle (so a production verdict that diverges
/// from the oracle also surfaces here).
void check_cover_property(const std::vector<const sdc::Sdc*>& ptrs,
                          const FuzzOptions& options,
                          const merge::MergedModeSet& out,
                          std::vector<Violation>& violations) {
  const size_t n = ptrs.size();
  merge::MergeOptions base = baseline_options(options);
  std::vector<uint8_t> edge(n * n, 0);
  for (size_t i = 0; i < n; ++i) {
    edge[i * n + i] = 1;
    for (size_t j = i + 1; j < n; ++j) {
      const merge::PairVerdict v = merge::check_mergeable(*ptrs[i], *ptrs[j], base);
      edge[i * n + j] = edge[j * n + i] = v.mergeable ? 1 : 0;
    }
  }

  // Partition: every mode in exactly one clique.
  std::vector<size_t> seen(n, 0);
  for (const std::vector<size_t>& clique : out.cliques) {
    for (size_t v : clique) {
      if (v >= n || seen[v]++) {
        violations.push_back({"cover", "cover is not a partition of the modes"});
        return;
      }
    }
  }
  for (size_t v = 0; v < n; ++v) {
    if (!seen[v]) {
      violations.push_back(
          {"cover", "mode " + std::to_string(v) + " missing from the cover"});
      return;
    }
  }

  // Validity: every in-clique pair is mergeable.
  for (size_t ci = 0; ci < out.cliques.size(); ++ci) {
    const std::vector<size_t>& clique = out.cliques[ci];
    for (size_t a = 0; a < clique.size(); ++a) {
      for (size_t b = a + 1; b < clique.size(); ++b) {
        if (!edge[clique[a] * n + clique[b]]) {
          violations.push_back(
              {"cover", "unmergeable pair (" + std::to_string(clique[a]) +
                            "," + std::to_string(clique[b]) +
                            ") inside clique " + std::to_string(ci)});
          return;
        }
      }
    }
  }

  // Maximality / monotonicity: every mergeable pair either shares a clique
  // or each endpoint conflicts with the other's clique — concretely, a
  // mode in a later clique must conflict with at least one member of every
  // earlier clique, else the greedy cover left a merge on the table.
  for (size_t earlier = 0; earlier < out.cliques.size(); ++earlier) {
    for (size_t later = earlier + 1; later < out.cliques.size(); ++later) {
      for (size_t v : out.cliques[later]) {
        bool conflicts = false;
        for (size_t u : out.cliques[earlier]) {
          if (!edge[u * n + v]) {
            conflicts = true;
            break;
          }
        }
        if (!conflicts) {
          violations.push_back(
              {"cover", "mode " + std::to_string(v) +
                            " is mergeable with every member of earlier clique " +
                            std::to_string(earlier) + " but was not merged"});
          return;
        }
      }
    }
  }
}

/// Count-valued MergeStats fields (everything but the wall-clock seconds),
/// for P5's "stats modulo timing" comparison.
std::vector<size_t> stat_counts(const merge::MergeStats& s) {
  return {s.clocks_union,       s.clocks_deduped,
          s.clocks_renamed,     s.clock_constraints_merged,
          s.clock_constraints_dropped, s.port_delays_union,
          s.case_kept,          s.case_dropped,
          s.disables_kept,      s.disables_dropped,
          s.drive_load_kept,    s.drive_load_dropped,
          s.exclusivity_constraints,   s.exceptions_common,
          s.exceptions_uniquified,     s.exceptions_dropped,
          s.exceptions_kept_pessimistic, s.inferred_disables,
          s.clock_stops_added,  s.data_clock_fps_added,
          s.pass0_pair_fixed,   s.pass1_keys,
          s.pass1_mismatch_fixed, s.pass1_ambiguous,
          s.pass2_keys,         s.pass2_mismatch_fixed,
          s.pass2_ambiguous,    s.pass3_pairs,
          s.pass3_paths_enumerated, s.pass3_fps_added,
          s.unresolved_pessimism};
}

/// P5: incremental parity. Drive a MergeSession through a case-seeded
/// random delta sequence (adds, removals, updates, interleaved commits)
/// drawing decks from the case's mode pool, then compare the final commit
/// against a from-scratch batch merge of the session's live modes: same
/// clique cover, same mergeability edges and reason strings, same merged
/// SDC bytes, same count-valued stats. Validation is skipped — P5 compares
/// merge *outputs*; P1 owns validation.
void check_incremental_property(const timing::TimingGraph& graph,
                                const std::vector<const sdc::Sdc*>& ptrs,
                                const FuzzCase& c, const FuzzOptions& options,
                                std::vector<Violation>& violations) {
  merge::MergeOptions base = baseline_options(options);
  base.validate = false;

  merge::MergeSession session(graph, base);
  std::vector<merge::MergeSession::ModeId> live;
  Rng rng(Rng::mix(c.case_seed, 0x5e5510));
  size_t serial = 0;
  auto deck = [&]() { return ptrs[rng.below(ptrs.size())]; };
  auto add = [&]() {
    live.push_back(session.add_mode("s" + std::to_string(serial++), deck()));
  };

  add();
  const size_t ops = 4 + rng.below(2 * ptrs.size() + 4);
  for (size_t op = 0; op < ops; ++op) {
    switch (rng.below(5)) {
      case 0:
      case 1:
        add();
        break;
      case 2:
        if (!live.empty()) {
          const size_t k = rng.below(live.size());
          session.remove_mode(live[k]);
          live.erase(live.begin() + static_cast<long>(k));
        }
        break;
      case 3:
        if (!live.empty()) {
          session.update_mode(live[rng.below(live.size())], deck());
        }
        break;
      default:
        session.commit();
        break;
    }
  }
  if (live.empty()) add();
  const merge::MergeSession::CommitResult& r = session.commit();

  const std::vector<const sdc::Sdc*> final_live = session.live_modes();
  const merge::MergedModeSet scratch =
      merge::merge_mode_set(graph, final_live, base);

  const std::string after =
      " differs from batch rebuild after " + std::to_string(ops) +
      " delta op(s) over " + std::to_string(final_live.size()) + " live modes";
  if (r.cliques != scratch.cliques) {
    violations.push_back({"incremental", "session clique cover" + after});
    return;
  }
  for (size_t i = 0; i < r.merged.size(); ++i) {
    if (sdc::write_sdc(*r.merged[i]->merge.merged) !=
        sdc::write_sdc(*scratch.merged[i].merge.merged)) {
      violations.push_back(
          {"incremental",
           "merged SDC bytes for clique " + std::to_string(i) + after});
      return;
    }
    if (stat_counts(r.merged[i]->merge.stats) !=
        stat_counts(scratch.merged[i].merge.stats)) {
      violations.push_back(
          {"incremental",
           "count-valued stats for clique " + std::to_string(i) + after});
      return;
    }
  }

  merge::MergeContext ref_ctx(base);
  const merge::MergeabilityGraph ref(final_live, ref_ctx);
  for (size_t i = 0; i < ref.num_modes(); ++i) {
    for (size_t j = 0; j < ref.num_modes(); ++j) {
      if (session.graph().edge(i, j) != ref.edge(i, j) ||
          session.graph().reason(i, j) != ref.reason(i, j)) {
        violations.push_back(
            {"incremental", "mergeability verdict (" + std::to_string(i) +
                                "," + std::to_string(j) + ")" + after});
        return;
      }
    }
  }
}

/// P7: the merge-policy oracle. Deliberately ignores the case's (mutated)
/// mode decks — text mutation can legitimately loosen merged STA values
/// even under the exact policy (dropping a one-sided drive or latency is
/// relationship-equivalent but value-optimistic) — and instead derives a
/// self-contained near-miss family from the case seed on the case's
/// design: one functional mode per group, carrier gaps alternating
/// W -/+ eps around the window boundary, every windowed field present in
/// every mode (gen/mode_gen.h). Asserts:
///   - boundary decisions on both sides: exact -> G cliques, windowed ->
///     exactly ceil(G/2), and each adjacent pair merges iff its gap is
///     the inside one;
///   - verdict provenance: every windowed acceptance records a window
///     field and fits its budget;
///   - the merge/qor.h oracle: merged decks are NEVER optimistic vs the
///     worst individual member (zero loosened slacks, zero dropped
///     endpoints) — unconditional;
///   - bounded pessimism: when refinement accounted for everything
///     (unresolved_pessimism == 0 on every clique), max QoR pessimism is
///     within MergePolicy::pessimism_bound().
void check_policy_property(const timing::TimingGraph& graph,
                           const netlist::Design& design, const FuzzCase& c,
                           const FuzzOptions& options,
                           std::vector<Violation>& violations) {
  Rng rng(Rng::mix(c.case_seed, 0x707));
  const size_t groups = 3 + rng.below(3);
  const double windows[] = {0.1, 0.2, 0.3, 0.4};
  const double window = rng.pick(windows);

  gen::ModeFamilyParams mp;
  mp.num_modes = groups;
  mp.target_groups = groups;  // one functional mode per group
  const double periods[] = {4.0, 8.0, 10.0, 16.0};
  mp.base_period = rng.pick(periods);
  mp.group_mcps = 1 + rng.below(3);  // >= 1 so kFalsifyMcp has a target
  mp.mode_fps = 0;  // droppable FPs would add non-window pessimism
  mp.seed = rng.next();
  mp.near_miss_window = window;
  mp.near_miss_epsilon = window / 4.0;

  // The family text is generator output, never mutated: a parse failure
  // here is a generator bug and propagates as such.
  std::vector<sdc::Sdc> modes;
  std::vector<const sdc::Sdc*> ptrs;
  for (const gen::GeneratedMode& gm :
       gen::generate_mode_family(c.design, mp)) {
    modes.push_back(sdc::parse_sdc(gm.sdc_text, design));
  }
  for (const sdc::Sdc& m : modes) ptrs.push_back(&m);

  // Exact: every carrier gap is out of tolerance -> one clique per mode.
  merge::MergeOptions exact = baseline_options(options);
  exact.validate = false;
  const merge::MergedModeSet exact_out =
      merge::merge_mode_set(graph, ptrs, exact);
  if (exact_out.cliques.size() != groups) {
    violations.push_back(
        {"policy", "near-miss family: exact policy found " +
                       std::to_string(exact_out.cliques.size()) +
                       " cliques, expected " + std::to_string(groups)});
    return;
  }

  // Windowed at the family's window: even->odd gaps (W - eps) merge,
  // odd->even gaps (W + eps) don't, so the cover is exactly ceil(G/2).
  merge::MergeOptions win = baseline_options(options);
  win.validate = false;
  win.policy = merge::MergePolicy::uniform(window);
  const merge::MergedModeSet win_out = merge::merge_mode_set(graph, ptrs, win);
  const size_t expect_cliques = (groups + 1) / 2;
  if (win_out.cliques.size() != expect_cliques) {
    violations.push_back(
        {"policy", "near-miss family: window " + format_value(window) +
                       " found " + std::to_string(win_out.cliques.size()) +
                       " cliques, expected " +
                       std::to_string(expect_cliques)});
    return;
  }

  // Both sides of the boundary, with provenance, through the reference
  // Sdc-pair path.
  for (size_t i = 0; i + 1 < ptrs.size(); ++i) {
    const merge::PairVerdict v =
        merge::check_mergeable(*ptrs[i], *ptrs[i + 1], win);
    const bool expect_merge = (i % 2 == 0);
    const std::string pair =
        "pair (" + std::to_string(i) + "," + std::to_string(i + 1) + ")";
    if (v.mergeable != expect_merge) {
      violations.push_back(
          {"policy", pair + ": gap " +
                         format_value(window + (expect_merge ? -1.0 : 1.0) *
                                                   mp.near_miss_epsilon) +
                         " vs window " + format_value(window) + " decided " +
                         (v.mergeable ? "mergeable" : "conflict") + ": " +
                         v.reason});
      return;
    }
    if (v.policy != "windowed") {
      violations.push_back(
          {"policy", pair + ": verdict policy '" + v.policy +
                         "', expected 'windowed'"});
      return;
    }
    if (v.mergeable &&
        (v.window_field.empty() ||
         v.window_used > v.window_budget + 1e-12)) {
      violations.push_back(
          {"policy", pair + ": window acceptance lacks in-budget provenance"
                            " (field '" +
                         v.window_field + "', used " +
                         format_value(v.window_used) + " of " +
                         format_value(v.window_budget) + ")"});
      return;
    }
  }

  // The QoR oracle: never optimistic, unconditionally.
  const merge::QoRReport qor = merge::qor_report(graph, ptrs, win_out, win);
  if (!qor.never_optimistic()) {
    violations.push_back(
        {"policy",
         "windowed merge is optimistic: " +
             std::to_string(qor.optimism_violations) +
             " loosened endpoint(s) (max " + format_value(qor.max_optimism) +
             "), " + std::to_string(qor.missing_endpoints) +
             " missing endpoint(s)"});
    return;
  }

  // Bounded pessimism — only claimable when refinement accounted for every
  // pessimism key it introduced.
  bool accounted = true;
  for (const merge::ValidatedMergeResult& m : win_out.merged) {
    accounted = accounted && m.merge.stats.unresolved_pessimism == 0;
  }
  const double bound = win.policy.pessimism_bound();
  if (accounted && qor.max_pessimism > bound + qor.slack_eps) {
    violations.push_back(
        {"policy", "windowed pessimism " + format_value(qor.max_pessimism) +
                       " exceeds policy bound " + format_value(bound)});
  }
}

/// P8: the corner-aware session engine agrees with the flat merge corner
/// by corner. A case-seeded unmutated corner family (uniform
/// multiplicative derates preserve exact-policy verdicts corner by corner,
/// see gen/corner_gen.h) is merged corner-aware; the combined mergeability
/// graph must equal the corner-0 reference graph edge for edge and reason
/// for reason (skeleton sharing + delta fills change no verdict),
/// and every corner's merged decks must be byte-identical to an
/// independent flat merge of that corner's decks. In some cases one corner
/// also gets its own timing state (gen::TimingStateBreak), so corner
/// sharing must fall back there at least once. The C == 1 case needs no
/// oracle here: the flat MergeSession is the same engine at one corner,
/// and P5 checks it against the batch merge.
void check_mcmm_property(const timing::TimingGraph& graph,
                         const netlist::Design& design, const FuzzCase& c,
                         const FuzzOptions& options,
                         std::vector<Violation>& violations) {
  merge::MergeOptions base = baseline_options(options);
  base.validate = false;  // validation does not affect bytes or cover

  // The matrix runs on generator output, never mutated text: the
  // verdict-preservation argument needs values that are either identical
  // (in-group) or separated by a planted conflict step (cross-group), both
  // of which survive uniform scaling.
  Rng rng(Rng::mix(c.case_seed, 0x8cc));
  gen::ModeFamilyParams mp;
  mp.num_modes = 2 + rng.below(3);
  mp.target_groups = 1 + rng.below(mp.num_modes);
  const double periods[] = {4.0, 8.0, 10.0, 16.0};
  mp.base_period = rng.pick(periods);
  mp.group_mcps = rng.below(3);
  mp.mode_fps = rng.below(3);
  mp.seed = rng.next();

  gen::CornerFamilyParams cp;
  const size_t corner_cap = options.max_corners < 2 ? 2 : options.max_corners;
  cp.num_corners = 2 + rng.below(corner_cap - 1);
  cp.clock_derate_step = 0.05 * static_cast<double>(1 + rng.below(3));
  cp.drive_derate_step = 0.04 * static_cast<double>(1 + rng.below(3));
  cp.load_derate_step = 0.10;
  if (rng.chance(30)) {
    // Break one corner's skeleton: the full-extraction fallback must still
    // produce flat-identical verdicts and bytes.
    cp.structural_break_corner = 1 + rng.below(cp.num_corners - 1);
  }
  if (rng.chance(30)) {
    // Change one corner's timing state: that corner cannot take corner 0's
    // fix list and must fall back to a full merge, still flat-identical.
    cp.timing_state_break_corner = 1 + rng.below(cp.num_corners - 1);
    cp.timing_state_break = rng.chance(50)
                                ? gen::TimingStateBreak::kCaseAnalysis
                                : gen::TimingStateBreak::kDisableTiming;
  }
  const gen::CornerFamily fam = gen::generate_corner_family(c.design, mp, cp);
  const size_t num_modes = fam.modes.size();
  const size_t num_corners = fam.corners.size();

  // Corner-major parse of the matrix. Corner transformations only rewrite
  // numeric values of parseable generator output, so a parse failure here is
  // a corner_gen bug and propagates as such.
  std::vector<std::vector<sdc::Sdc>> matrix(num_corners);
  for (size_t cc = 0; cc < num_corners; ++cc) {
    for (size_t m = 0; m < num_modes; ++m) {
      matrix[cc].push_back(sdc::parse_sdc(fam.sdc_texts[m][cc], design));
    }
  }

  std::vector<std::string> corner_names;
  for (const gen::CornerSpec& spec : fam.corners) {
    corner_names.push_back(spec.name);
  }
  merge::McmmSession session(graph, merge::CornerSet(corner_names), base);
  for (size_t m = 0; m < num_modes; ++m) {
    std::vector<const sdc::Sdc*> decks;
    for (size_t cc = 0; cc < num_corners; ++cc) decks.push_back(&matrix[cc][m]);
    session.add_mode(fam.modes[m].name, decks);
  }
  const merge::McmmSession::CommitResult& r = session.commit();
  if (cp.timing_state_break_corner != 0 && r.corner_share_fallbacks == 0) {
    violations.push_back(
        {"mcmm", "corner " + fam.corners[cp.timing_state_break_corner].name +
                     " has its own timing state but no merge fell back from"
                     " corner sharing"});
    return;
  }

  // Verdict identity: every corner agrees with corner 0 by construction, so
  // the combined graph must equal the corner-0 reference graph (fresh
  // context, reference Sdc-pair path).
  std::vector<const sdc::Sdc*> c0_ptrs;
  for (const sdc::Sdc& m : matrix[0]) c0_ptrs.push_back(&m);
  merge::MergeContext ref_ctx(base);
  const merge::MergeabilityGraph ref(c0_ptrs, ref_ctx);
  for (size_t i = 0; i < num_modes; ++i) {
    for (size_t j = i + 1; j < num_modes; ++j) {
      if (session.graph().edge(i, j) != ref.edge(i, j) ||
          session.graph().reason(i, j) != ref.reason(i, j)) {
        violations.push_back(
            {"mcmm", "combined verdict for pair (" + std::to_string(i) + "," +
                         std::to_string(j) +
                         ") differs from the corner-0 reference: '" +
                         session.graph().reason(i, j) + "' vs '" +
                         ref.reason(i, j) + "'"});
        return;
      }
    }
  }

  // Per-corner byte parity to C independent flat merges.
  for (size_t cc = 0; cc < num_corners; ++cc) {
    std::vector<const sdc::Sdc*> corner_ptrs;
    for (const sdc::Sdc& m : matrix[cc]) corner_ptrs.push_back(&m);
    const merge::MergedModeSet flat =
        merge::merge_mode_set(graph, corner_ptrs, base);
    if (flat.cliques != r.cliques) {
      violations.push_back(
          {"mcmm", "corner " + fam.corners[cc].name +
                       ": flat clique cover differs from the shared MCMM"
                       " cover"});
      return;
    }
    for (size_t k = 0; k < r.cliques.size(); ++k) {
      if (sdc::write_sdc(*r.merged[cc][k]->merge.merged) !=
          sdc::write_sdc(*flat.merged[k].merge.merged)) {
        violations.push_back(
            {"mcmm", "corner " + fam.corners[cc].name +
                         ": merged SDC bytes differ from the flat merge for"
                         " clique " +
                         std::to_string(k)});
        return;
      }
    }
  }
}

}  // namespace

CheckResult check_case(const FuzzCase& c, const FuzzOptions& options) {
  MM_SPAN("fuzz/check_case");
  CheckResult result;

  const netlist::Library lib = netlist::Library::builtin();
  const netlist::Design design = gen::generate_design(lib, c.design);
  const timing::TimingGraph graph(design);

  std::vector<sdc::Sdc> modes;
  modes.reserve(c.mode_sdc.size());
  try {
    for (const std::string& text : c.mode_sdc) {
      modes.push_back(sdc::parse_sdc(text, design));
    }
  } catch (const Error& e) {
    result.parse_error = e.what();
    return result;  // rejected: the mutation stage broke the SDC
  }
  result.parsed = true;

  std::vector<const sdc::Sdc*> ptrs;
  for (const sdc::Sdc& m : modes) ptrs.push_back(&m);

  const merge::MergedModeSet out =
      merge::merge_mode_set(graph, ptrs, baseline_options(options));
  result.cliques = out.cliques.size();

  if (options.check_equiv) {
    check_equiv_property(graph, ptrs, out, result.violations);
  }
  if (options.check_cover)
    check_cover_property(ptrs, options, out, result.violations);
  if (options.check_parity)
    check_parity_property(graph, ptrs, options, out, result.violations);
  if (options.check_idempotence)
    check_idempotence_property(graph, options, out, result.violations);
  if (options.check_incremental)
    check_incremental_property(graph, ptrs, c, options, result.violations);
  if (options.check_policy)
    check_policy_property(graph, design, c, options, result.violations);
  if (options.check_mcmm)
    check_mcmm_property(graph, design, c, options, result.violations);
  return result;
}

// --- the loop ---------------------------------------------------------------

FuzzReport run_fuzz(const FuzzOptions& options) {
  MM_SPAN("fuzz/run");
  Stopwatch timer;
  FuzzReport report;

  for (uint64_t iter = 0; iter < options.iters; ++iter) {
    const uint64_t case_seed = case_seed_for(options.seed, iter);
    const FuzzCase c = generate_case(options, case_seed);
    report.modes_generated += c.mode_sdc.size();

    const CheckResult res = check_case(c, options);
    ++report.iterations;
    MM_COUNT("fuzz/iterations", 1);
    if (!res.parsed) {
      ++report.rejected;
      MM_COUNT("fuzz/rejected", 1);
      continue;
    }
    report.cliques_checked += res.cliques;
    MM_COUNT("fuzz/cliques_checked", res.cliques);
    if (res.violations.empty()) continue;

    MM_COUNT("fuzz/violations", res.violations.size());
    Finding finding;
    finding.violation = res.violations.front();
    finding.inject = options.inject;
    MM_WARN("fuzz: case_seed=%llu violates %s: %s",
            static_cast<unsigned long long>(case_seed),
            finding.violation.property.c_str(),
            finding.violation.detail.c_str());
    finding.repro = options.minimize
                        ? minimize_case(c, options, finding.violation.property,
                                        &finding.minimize_runs)
                        : c;
    MM_COUNT("fuzz/minimize_runs", finding.minimize_runs);
    if (!options.corpus_dir.empty()) {
      const std::string dir =
          corpus_case_dir(options.corpus_dir, report.findings.size());
      write_corpus_case(dir, finding);
      // Ship the repro with its decision trail: replay the minimized case
      // once with the mm.journal/1 journal aimed into the corpus dir, so
      // triage starts from `mmreport explain` instead of a cold re-run.
      // Skipped when the caller already has a process journal open
      // (--journal-out), which is capturing the whole run anyway.
      if (!obs::Journal::enabled() &&
          obs::Journal::open(dir + "/journal.jsonl")) {
        check_case(finding.repro, options);
        obs::Journal::close();
      }
      MM_WARN("fuzz: minimized repro written to %s", dir.c_str());
    }
    report.findings.push_back(std::move(finding));
    if (report.findings.size() >= options.max_violations) break;
  }
  report.seconds = timer.elapsed_seconds();
  return report;
}

}  // namespace mm::fuzz
