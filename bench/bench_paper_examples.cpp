// Regenerates the paper's worked-example tables on the Figure-1 circuit:
//   Table 1  — timing relationships under Constraint Set 1,
//   Tables 2-4 — the 3-pass comparison for Constraint Set 6 (the rendered
//                M/X/A verdict tables, pass counters, and the derived
//                CSTR1-CSTR3),
// plus the merged constraint sets for Constraint Sets 3 and 5.

#include <cstdio>

#include "gen/paper_circuit.h"
#include "merge/merger.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include <algorithm>

#include "timing/relationships.h"

namespace {

using namespace mm;
namespace cs = gen::constraint_sets;

void table1(const netlist::Design& design, const timing::TimingGraph& graph) {
  std::printf("=== Table 1: timing relationships (Constraint Set 1) ===\n");
  const sdc::Sdc sdc = sdc::parse_sdc(cs::kSet1, design);
  timing::ModeGraph mode(graph, sdc);
  timing::CompiledExceptions exceptions(graph, sdc);
  timing::Propagator prop(mode, exceptions);
  timing::PropagationOptions opts;
  opts.compute_arrivals = false;
  prop.run(opts);

  std::printf("%-10s %-10s %-8s %-8s %-10s\n", "Start", "End", "Launch",
              "Capture", "State");
  for (const char* ep : {"rX/D", "rY/D", "rZ/D"}) {
    for (const auto& [key, data] : prop.relations()) {
      if (design.pin_name(key.endpoint) != ep) continue;
      std::printf("%-10s %-10s %-8s %-8s %-10s\n", "*", ep,
                  sdc.clock(key.launch).name.c_str(),
                  sdc.clock(key.capture).name.c_str(),
                  data.states.str().c_str());
    }
  }
  std::printf("(paper: rX/D MCP(2), rY/D FP, rZ/D valid)\n\n");
}

/// Relationship map of one constraint set (optionally per startpoint).
timing::RelationTable relations_of(const timing::TimingGraph& graph,
                                 const sdc::Sdc& sdc, bool startpoints) {
  timing::ModeGraph mode(graph, sdc);
  timing::CompiledExceptions exceptions(graph, sdc);
  timing::Propagator prop(mode, exceptions);
  timing::PropagationOptions opts;
  opts.compute_arrivals = false;
  opts.track_startpoints = startpoints;
  prop.run(opts);
  return prop.relations();
}

/// Print a paper-style comparison row: individual state set (union of both
/// modes, as the paper's tables show), merged state set, M/X/A verdict.
void print_comparison(const netlist::Design& design,
                      const timing::RelationTable& rel_a,
                      const timing::RelationTable& rel_b,
                      const timing::RelationTable& rel_m, const sdc::Sdc& sdc) {
  std::printf("%-10s %-10s %-8s %-8s %-12s %-12s %s\n", "Start", "End",
              "Launch", "Capture", "Individual", "Merged", "Result");
  // Deterministic order over merged keys.
  std::vector<const timing::RelationKey*> keys;
  for (const auto& [key, data] : rel_m) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(), [&](const auto* x, const auto* y) {
    return design.pin_name(x->endpoint) < design.pin_name(y->endpoint);
  });
  for (const auto* key : keys) {
    timing::StateSet indiv;
    bool a_full_timed = false, b_full_timed = false;
    if (const timing::RelationData* a = rel_a.find(*key)) {
      indiv.merge(a->states);
      a_full_timed = a->states.any_timed() &&
                     !a->states.contains_kind(timing::StateKind::kFalsePath);
    }
    if (const timing::RelationData* b = rel_b.find(*key)) {
      indiv.merge(b->states);
      b_full_timed = b->states.any_timed() &&
                     !b->states.contains_kind(timing::StateKind::kFalsePath);
    }
    const timing::StateSet& merged = rel_m.at(*key).states;
    // Verdict in the paper's terms.
    const char* verdict;
    if (!indiv.any_timed() && merged.any_timed()) verdict = "X";
    else if (indiv == merged && merged.singleton()) verdict = "M";
    else if ((a_full_timed || b_full_timed) && merged.singleton() &&
             merged.any_timed()) verdict = "M";
    else verdict = "A";
    std::printf("%-10s %-10s %-8s %-8s %-12s %-12s %s\n",
                key->startpoint.valid()
                    ? std::string(design.pin_name(key->startpoint)).c_str()
                    : "*",
                std::string(design.pin_name(key->endpoint)).c_str(),
                sdc.clock(key->launch).name.c_str(),
                sdc.clock(key->capture).name.c_str(), indiv.str().c_str(),
                merged.str().c_str(), verdict);
  }
}

void tables234(const netlist::Design& design,
               const timing::TimingGraph& graph) {
  std::printf("=== Tables 2-4: 3-pass refinement (Constraint Set 6) ===\n");
  const sdc::Sdc a = sdc::parse_sdc(cs::kSet6ModeA, design);
  const sdc::Sdc b = sdc::parse_sdc(cs::kSet6ModeB, design);

  // Table 2: pass-1 (endpoint-level) comparison of the individual modes
  // against the PRELIMINARY merged mode (no exceptions survive the
  // intersection, so it is just the clock union).
  {
    const sdc::Sdc prelim =
        sdc::parse_sdc("create_clock -name clkA -period 10 [get_ports clk1]\n",
                       design);
    std::printf("\nTable 2 (pass 1, endpoint level):\n");
    print_comparison(design, relations_of(graph, a, false),
                     relations_of(graph, b, false),
                     relations_of(graph, prelim, false), prelim);
    std::printf("\nTable 3 (pass 2, per startpoint):\n");
    print_comparison(design, relations_of(graph, a, true),
                     relations_of(graph, b, true),
                     relations_of(graph, prelim, true), prelim);
    std::printf("\n");
  }
  const merge::ValidatedMergeResult out = merge::merge_modes(graph, {&a, &b});
  const merge::MergeStats& s = out.merge.stats;

  std::printf("pass 1: %zu keys, %zu mismatches fixed, %zu ambiguous endpoints\n",
              s.pass1_keys, s.pass1_mismatch_fixed, s.pass1_ambiguous);
  std::printf("pass 2: %zu keys, %zu mismatches fixed, %zu ambiguous pairs\n",
              s.pass2_keys, s.pass2_mismatch_fixed, s.pass2_ambiguous);
  std::printf("pass 3: %zu pairs, %zu paths enumerated, %zu false paths added\n",
              s.pass3_pairs, s.pass3_paths_enumerated, s.pass3_fps_added);
  std::printf("validation: %s\n",
              out.equivalence.equivalent() ? "EQUIVALENT" : "NOT EQUIVALENT");
  std::printf("derived merged mode (paper CSTR1-CSTR3):\n%s\n",
              sdc::write_sdc(*out.merge.merged).c_str());
}

void merged_mode(const char* title, const char* mode_a, const char* mode_b,
                 const netlist::Design& design,
                 const timing::TimingGraph& graph) {
  std::printf("=== %s ===\n", title);
  const sdc::Sdc a = sdc::parse_sdc(mode_a, design);
  const sdc::Sdc b = sdc::parse_sdc(mode_b, design);
  const merge::ValidatedMergeResult out = merge::merge_modes(graph, {&a, &b});
  std::printf("%s", sdc::write_sdc(*out.merge.merged).c_str());
  std::printf("validation: %s\n\n",
              out.equivalence.signoff_safe() ? "SIGNOFF-SAFE" : "UNSAFE");
}

}  // namespace

int main() {
  const netlist::Library lib = netlist::Library::builtin();
  const netlist::Design design = gen::paper_circuit(lib);
  const timing::TimingGraph graph(design);

  table1(design, graph);
  tables234(design, graph);
  merged_mode("Constraint Set 3 merged mode (clock refinement)", cs::kSet3ModeA,
              cs::kSet3ModeB, design, graph);
  merged_mode("Constraint Set 5 merged mode (data refinement)", cs::kSet5ModeA,
              cs::kSet5ModeB, design, graph);
  return 0;
}
