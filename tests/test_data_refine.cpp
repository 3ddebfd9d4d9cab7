// Data refinement (merge/data_refine.h) against test-only references:
//
//   - the clock-on-data-network step (pass 0) against the set-based
//     reachability it replaced, on the paper's 10-mode family, a generated
//     family, and a clique with more than 64 merged clocks (multi-word
//     clock rows);
//   - exact work counters for one validated clique merge: each member is
//     propagated once (pass 1), validation walks only the merged deck, and
//     data refinement builds one merged ModeGraph.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "gen/paper_circuit.h"
#include "merge/clock_refine.h"
#include "merge/data_refine.h"
#include "merge/equivalence.h"
#include "merge/merger.h"
#include "merge/preliminary.h"
#include "obs/obs.h"
#include "sdc/parser.h"
#include "sdc/writer.h"

namespace mm::merge {
namespace {

using timing::Arc;
using timing::ArcId;
using timing::ArcKind;
using timing::ModeGraph;
using timing::TimingGraph;

constexpr const char* kDataRefineComment =
    "data refinement: clock not in data network of any mode";

using PinClock = std::pair<uint32_t, uint32_t>;

// --- set-based reference for the clock-on-data-network step ----------------

/// Launch-clock reach through one view's data network, one std::set per
/// pin; `to_merged` renames the view's clocks (invalid = drop).
template <typename Rename>
std::vector<std::set<uint32_t>> reference_reach(const TimingGraph& graph,
                                                const ModeGraph& mg,
                                                Rename to_merged) {
  std::vector<std::set<uint32_t>> reach(graph.num_nodes());
  for (PinId sp : mg.active_startpoints()) {
    if (graph.design().pin(sp).is_port()) {
      for (const sdc::PortDelay& pd : mg.sdc().port_delays()) {
        if (pd.is_input && pd.port_pin == sp && pd.clock.valid()) {
          const ClockId c = to_merged(pd.clock);
          if (c.valid()) reach[sp.index()].insert(c.value());
        }
      }
    } else {
      for (const timing::ClockArrival& ca : mg.clocks_on(sp)) {
        const ClockId c = to_merged(ca.clock);
        if (c.valid()) reach[sp.index()].insert(c.value());
      }
    }
  }
  for (PinId pin : graph.topo_order()) {
    if (reach[pin.index()].empty()) continue;
    bool has_launch = false;
    for (ArcId aid : graph.fanout(pin)) {
      if (graph.arc(aid).kind == ArcKind::kLaunch) has_launch = true;
    }
    for (ArcId aid : graph.fanout(pin)) {
      if (!mg.arc_enabled(aid)) continue;
      const Arc& arc = graph.arc(aid);
      if (has_launch && arc.kind != ArcKind::kLaunch) continue;
      reach[arc.to.index()].insert(reach[pin.index()].begin(),
                                   reach[pin.index()].end());
    }
  }
  return reach;
}

/// The (pin, clock) pairs where a merged-deck clock first reaches a pin it
/// reaches in no member, in (pin, clock) order.
std::set<PinClock> reference_frontier(const TimingGraph& graph,
                                      const RefineContext& ctx,
                                      const ClockMap& map, const Sdc& merged) {
  std::vector<std::set<uint32_t>> allowed(graph.num_nodes());
  for (size_t m = 0; m < ctx.modes.size(); ++m) {
    const auto reach = reference_reach(
        graph, ctx.mode_graph(m),
        [&](ClockId c) { return map.merged_of(m, c); });
    for (size_t p = 0; p < reach.size(); ++p) {
      allowed[p].insert(reach[p].begin(), reach[p].end());
    }
  }

  const ModeGraph view(graph, merged);
  std::vector<std::set<uint32_t>> reach(graph.num_nodes());
  std::set<PinClock> frontier;
  auto try_insert = [&](PinId pin, uint32_t clock) {
    if (allowed[pin.index()].count(clock)) {
      reach[pin.index()].insert(clock);
    } else {
      frontier.emplace(pin.value(), clock);
    }
  };
  for (PinId sp : view.active_startpoints()) {
    if (graph.design().pin(sp).is_port()) {
      for (const sdc::PortDelay& pd : merged.port_delays()) {
        if (pd.is_input && pd.port_pin == sp && pd.clock.valid()) {
          try_insert(sp, pd.clock.value());
        }
      }
    } else {
      for (const timing::ClockArrival& ca : view.clocks_on(sp)) {
        try_insert(sp, ca.clock.value());
      }
    }
  }
  for (PinId pin : graph.topo_order()) {
    if (reach[pin.index()].empty()) continue;
    bool has_launch = false;
    for (ArcId aid : graph.fanout(pin)) {
      if (graph.arc(aid).kind == ArcKind::kLaunch) has_launch = true;
    }
    for (ArcId aid : graph.fanout(pin)) {
      if (!view.arc_enabled(aid)) continue;
      const Arc& arc = graph.arc(aid);
      if (has_launch && arc.kind != ArcKind::kLaunch) continue;
      for (uint32_t c : reach[pin.index()]) try_insert(arc.to, c);
    }
  }
  return frontier;
}

/// `-from <clock> -through <pin>` false paths (no other anchors).
bool is_clock_through_fp(const sdc::Exception& ex) {
  return ex.kind == sdc::ExceptionKind::kFalsePath &&
         ex.from.clocks.size() == 1 && ex.from.pins.empty() &&
         ex.throughs.size() == 1 && ex.throughs[0].pins.size() == 1 &&
         ex.throughs[0].clocks.empty() && ex.to.clocks.empty() &&
         ex.to.pins.empty();
}

/// Run preliminary merge + clock refinement + data refinement by hand and
/// check the emitted clock-through false paths, in order, against the
/// set-based reference. Returns the emitted (pin, clock) pairs.
std::vector<PinClock> expect_pass0_matches_reference(const TimingGraph& graph,
                                      const std::vector<const Sdc*>& members) {
  MergeOptions options;
  options.num_threads = 2;
  MergeContext session(options);
  MergeResult result = preliminary_merge(members, session);
  RefineContext ctx(graph, members, session);
  refine_clock_network(ctx, result, options);

  std::set<PinClock> existing;
  for (const sdc::Exception& ex : result.merged->exceptions()) {
    if (is_clock_through_fp(ex)) {
      existing.emplace(ex.throughs[0].pins[0].value(),
                       ex.from.clocks[0].value());
    }
  }
  std::vector<PinClock> expected;
  for (const PinClock& pc :
       reference_frontier(graph, ctx, result.clock_map, *result.merged)) {
    if (!existing.count(pc)) expected.push_back(pc);
  }

  const size_t before = result.merged->exceptions().size();
  refine_data_network(ctx, result, options);
  std::vector<PinClock> emitted;
  const auto& exs = result.merged->exceptions();
  for (size_t i = before; i < exs.size(); ++i) {
    if (exs[i].comment != kDataRefineComment) continue;
    EXPECT_TRUE(is_clock_through_fp(exs[i]));
    emitted.emplace_back(exs[i].throughs[0].pins[0].value(),
                         exs[i].from.clocks[0].value());
  }
  EXPECT_EQ(emitted, expected);
  EXPECT_EQ(result.stats.data_clock_fps_added, expected.size());
  return emitted;
}

class DataRefineTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();

  static std::vector<const Sdc*> ptrs(const std::vector<Sdc>& modes) {
    std::vector<const Sdc*> out;
    for (const Sdc& m : modes) out.push_back(&m);
    return out;
  }

  static std::vector<Sdc> paper_modes(const netlist::Design& design) {
    namespace cs = gen::constraint_sets;
    std::vector<Sdc> modes;
    for (const char* text :
         {cs::kSet2ModeA, cs::kSet2ModeB, cs::kSet3ModeA, cs::kSet3ModeB,
          cs::kSet4ModeA, cs::kSet4ModeB, cs::kSet5ModeA, cs::kSet5ModeB,
          cs::kSet6ModeA, cs::kSet6ModeB}) {
      modes.push_back(sdc::parse_sdc(text, design));
    }
    return modes;
  }

  static gen::DesignParams small_design() {
    gen::DesignParams dp;
    dp.num_regs = 60;
    dp.num_domains = 3;
    dp.seed = 5;
    return dp;
  }

  static std::vector<Sdc> generated_modes(const netlist::Design& design,
                                          const gen::DesignParams& dp,
                                          size_t num_modes,
                                          const std::string& extra = "") {
    gen::ModeFamilyParams fp;
    fp.num_modes = num_modes;
    fp.target_groups = 1;
    fp.seed = 3;
    std::vector<Sdc> modes;
    for (const gen::GeneratedMode& gm : gen::generate_mode_family(dp, fp)) {
      const std::string text = gm.sdc_text + (modes.empty() ? extra : "");
      modes.push_back(sdc::parse_sdc(text, design));
    }
    return modes;
  }
};

TEST_F(DataRefineTest, Pass0MatchesSetReferenceOnPaperFamily) {
  const netlist::Design design = gen::paper_circuit(lib);
  const TimingGraph graph(design);
  const std::vector<Sdc> modes = paper_modes(design);
  // Constraint Set 5's CSTR6 alone guarantees at least one emission.
  EXPECT_FALSE(expect_pass0_matches_reference(graph, ptrs(modes)).empty());
}

TEST_F(DataRefineTest, Pass0MatchesSetReferenceOnGeneratedFamily) {
  const gen::DesignParams dp = small_design();
  const netlist::Design design = gen::generate_design(lib, dp);
  const TimingGraph graph(design);
  // The generated family alone yields no such false path (every clock's
  // data network is covered by some member), so one mode gains a clock of
  // its own on clk1 (a domain that mode leaves powered) and pins every
  // register output: that clock reaches those outputs in no member, but
  // the merged deck drops the case values.
  std::string extra =
      "create_clock -name XCLK -period 7 -add [get_ports clk1]\n";
  for (size_t r = 0; r < dp.num_regs; ++r) {
    extra += "set_case_analysis 0 r" + std::to_string(r) + "/Q\n";
  }
  const std::vector<Sdc> modes = generated_modes(design, dp, 6, extra);
  EXPECT_FALSE(expect_pass0_matches_reference(graph, ptrs(modes)).empty());
}

TEST_F(DataRefineTest, Pass0MatchesSetReferenceAcrossWordBoundary) {
  // Constraint Set 5 widened: two modes of 33 distinct clocks each on
  // clk1; the second pins rB/Q to 0, so its clocks (merged ids 33..65)
  // reach rB/Q in no member. The merged deck has 66 clocks, so clock rows
  // span two words and the emitted clocks straddle the word boundary.
  const netlist::Design design = gen::paper_circuit(lib);
  const TimingGraph graph(design);
  std::vector<Sdc> modes;
  for (size_t m = 0; m < 2; ++m) {
    std::ostringstream os;
    for (size_t c = 0; c < 33; ++c) {
      std::string name = "C";
      name += std::to_string(m);
      name += '_';
      name += std::to_string(c);
      os << "create_clock -name " << name << " -period "
         << 1.0 + 0.25 * static_cast<double>(m * 33 + c)
         << " -add [get_ports clk1]\n"
         << "set_input_delay 0.1 -clock " << name
         << " -add_delay [get_ports in1]\n";
    }
    if (m == 1) os << "set_case_analysis 0 rB/Q\n";
    modes.push_back(sdc::parse_sdc(os.str(), design));
  }
  const std::vector<PinClock> emitted =
      expect_pass0_matches_reference(graph, ptrs(modes));
  const auto low_word = [](const PinClock& pc) { return pc.second < 64; };
  EXPECT_TRUE(std::any_of(emitted.begin(), emitted.end(), low_word));
  EXPECT_FALSE(std::all_of(emitted.begin(), emitted.end(), low_word));
}

// --- exact work counters -----------------------------------------------------

uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Number of completed spans of a phase (its latency histogram count).
uint64_t span_count(const std::string& phase) {
  for (const obs::HistogramSnapshot& h :
       obs::MetricsRegistry::global().snapshot().histograms) {
    if (h.name == "phase/" + phase) return h.count;
  }
  return 0;
}

struct Work {
  uint64_t propagations = 0;
  /// ModeGraphs built from scratch (constant propagation included).
  uint64_t mode_graphs = 0;
  /// ModeGraph stages re-run over a kept view: arc enables, and clock
  /// propagation (run once by every build, full or kept).
  uint64_t arc_stages = 0;
  uint64_t clock_stages = 0;

  static Work now() {
    return {counter("timing/propagations"),
            span_count("timing/case_analysis"),
            span_count("timing/arc_enables"),
            span_count("timing/clock_propagation")};
  }
  Work since(const Work& before) const {
    return {propagations - before.propagations,
            mode_graphs - before.mode_graphs,
            arc_stages - before.arc_stages,
            clock_stages - before.clock_stages};
  }
};

TEST_F(DataRefineTest, CliqueMergePropagatesEachMemberOnce) {
  const gen::DesignParams dp = small_design();
  const netlist::Design design = gen::generate_design(lib, dp);
  const TimingGraph graph(design);
  const std::vector<Sdc> modes = generated_modes(design, dp, 5);
  const std::vector<const Sdc*> members = ptrs(modes);
  const uint64_t m = members.size();

  MergeOptions options;
  options.num_threads = 2;
  MergeContext session(options);
  MergeResult result = preliminary_merge(members, session);
  RefineContext ctx(graph, members, session);
  refine_clock_network(ctx, result, options);

  // Data refinement: M + 1 endpoint-level walks in pass 1 (each member
  // once, the merged deck beside them), M + 1 cone-filtered walks in pass 2
  // when it descends, and one merged ModeGraph for all four passes: clock
  // refinement's own view when it added no clock stop, else that view with
  // its clock stage re-run.
  const Work before_refine = Work::now();
  refine_data_network(ctx, result, options);
  const Work refine = Work::now().since(before_refine);
  const uint64_t pass2_walks = result.stats.pass1_ambiguous > 0 ? m + 1 : 0;
  EXPECT_EQ(refine.propagations, m + 1 + pass2_walks);
  EXPECT_EQ(refine.mode_graphs, 0u);
  EXPECT_EQ(refine.arc_stages, 0u);
  EXPECT_EQ(refine.clock_stages,
            result.stats.clock_stops_added > 0 ? 1u : 0u);

  // Validation reads the members from pass 1's memo and walks only the
  // merged deck: one propagation, over data refinement's merged view
  // (refinement since added only exceptions, which a ModeGraph never
  // reads).
  const Work before_validate = Work::now();
  const EquivalenceReport report =
      check_equivalence(ctx, *result.merged, result.clock_map);
  const Work validate = Work::now().since(before_validate);
  EXPECT_EQ(validate.propagations, 1u);
  EXPECT_EQ(validate.mode_graphs, 0u);
  EXPECT_EQ(validate.clock_stages, 0u);
  EXPECT_TRUE(report.signoff_safe());
}

TEST_F(DataRefineTest, ValidatedMergeModesAddsOnePropagation) {
  const gen::DesignParams dp = small_design();
  const netlist::Design design = gen::generate_design(lib, dp);
  const TimingGraph graph(design);
  const std::vector<Sdc> modes = generated_modes(design, dp, 4);
  const std::vector<const Sdc*> members = ptrs(modes);

  MergeOptions options;
  options.num_threads = 2;
  const Work before = Work::now();
  const ValidatedMergeResult out = merge_modes(graph, members, options);
  const Work work = Work::now().since(before);
  // Pass 1 walks the members and the merged deck (pass 2 again when it
  // descends); validation adds exactly one walk, of the merged deck.
  const uint64_t walks = members.size() + 1;
  EXPECT_EQ(work.propagations,
            (out.merge.stats.pass1_ambiguous > 0 ? 2 * walks : walks) + 1);
  // Member views once and the merged view once, from scratch. Disable
  // inference keeps the merged constants and re-runs the arc-enable and
  // clock stages; added clock stops re-run the clock stage only. Data
  // refinement and validation share the last view.
  const MergeStats& s = out.merge.stats;
  EXPECT_EQ(work.mode_graphs, members.size() + 1);
  EXPECT_EQ(work.arc_stages, s.inferred_disables > 0 ? 1u : 0u);
  EXPECT_EQ(work.clock_stages, members.size() + 1 +
                                   (s.inferred_disables > 0 ? 1 : 0) +
                                   (s.clock_stops_added > 0 ? 1 : 0));
  EXPECT_TRUE(out.equivalence.signoff_safe());
}

TEST_F(DataRefineTest, FreshContextAndStartpointLevelComputeOwnMaps) {
  // A context without a memo, and the startpoint-level check (never
  // memoized), walk every member themselves; results match the counters
  // of the memoized path. Every check also walks the merged deck once.
  const netlist::Design design = gen::paper_circuit(lib);
  const TimingGraph graph(design);
  const std::vector<Sdc> modes = paper_modes(design);
  const std::vector<const Sdc*> members = ptrs(modes);
  const MergeResult base = preliminary_merge(members, {});

  RefineContext ctx(graph, members);
  const Work before = Work::now();
  const EquivalenceReport first =
      check_equivalence(ctx, *base.merged, base.clock_map);
  EXPECT_EQ(Work::now().since(before).propagations, members.size() + 1);
  const Work again = Work::now();
  const EquivalenceReport second =
      check_equivalence(ctx, *base.merged, base.clock_map);
  EXPECT_EQ(Work::now().since(again).propagations, 1u);
  EXPECT_EQ(first.keys_compared, second.keys_compared);
  EXPECT_EQ(first.optimism_violations, second.optimism_violations);
  EXPECT_EQ(first.pessimism_keys, second.pessimism_keys);

  const Work sp_before = Work::now();
  check_equivalence(ctx, *base.merged, base.clock_map,
                    /*startpoint_level=*/true);
  check_equivalence(ctx, *base.merged, base.clock_map,
                    /*startpoint_level=*/true);
  EXPECT_EQ(Work::now().since(sp_before).propagations,
            2 * (members.size() + 1));
}

/// Every counter of a merge's stats (the wall-clock seconds left out).
std::vector<size_t> counters(const MergeStats& s) {
  return {s.clocks_union,
          s.clocks_deduped,
          s.clocks_renamed,
          s.clock_constraints_merged,
          s.clock_constraints_dropped,
          s.port_delays_union,
          s.case_kept,
          s.case_dropped,
          s.disables_kept,
          s.disables_dropped,
          s.drive_load_kept,
          s.drive_load_dropped,
          s.exclusivity_constraints,
          s.exceptions_common,
          s.exceptions_uniquified,
          s.exceptions_dropped,
          s.exceptions_kept_pessimistic,
          s.inferred_disables,
          s.clock_stops_added,
          s.data_clock_fps_added,
          s.pass0_pair_fixed,
          s.pass1_keys,
          s.pass1_mismatch_fixed,
          s.pass1_ambiguous,
          s.pass2_keys,
          s.pass2_mismatch_fixed,
          s.pass2_ambiguous,
          s.pass3_pairs,
          s.pass3_paths_enumerated,
          s.pass3_fps_added,
          s.unresolved_pessimism};
}

/// Merge `members` at 1 and at 4 threads; both must give the same bytes,
/// counters, decision log and equivalence report.
void expect_thread_count_independent(const TimingGraph& graph,
                                     const std::vector<const Sdc*>& members) {
  std::vector<ValidatedMergeResult> runs;
  for (size_t threads : {1u, 4u}) {
    MergeOptions options;
    options.num_threads = threads;
    runs.push_back(merge_modes(graph, members, options));
  }
  const ValidatedMergeResult& one = runs[0];
  const ValidatedMergeResult& four = runs[1];
  EXPECT_EQ(sdc::write_sdc(*one.merge.merged), sdc::write_sdc(*four.merge.merged));
  EXPECT_EQ(counters(one.merge.stats), counters(four.merge.stats));
  EXPECT_EQ(one.merge.notes, four.merge.notes);
  const EquivalenceReport& a = one.equivalence;
  const EquivalenceReport& b = four.equivalence;
  EXPECT_GT(a.keys_compared, 0u);
  EXPECT_EQ(a.keys_compared, b.keys_compared);
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.optimism_violations, b.optimism_violations);
  EXPECT_EQ(a.pessimism_keys, b.pessimism_keys);
  EXPECT_EQ(a.state_mismatches, b.state_mismatches);
  EXPECT_EQ(a.examples, b.examples);
}

TEST_F(DataRefineTest, MergedOutputIndependentOfThreadCount) {
  {
    SCOPED_TRACE("paper family");
    const netlist::Design design = gen::paper_circuit(lib);
    const TimingGraph graph(design);
    const std::vector<Sdc> modes = paper_modes(design);
    expect_thread_count_independent(graph, ptrs(modes));
  }
  {
    SCOPED_TRACE("generated 5-mode family");
    const gen::DesignParams dp = small_design();
    const netlist::Design design = gen::generate_design(lib, dp);
    const TimingGraph graph(design);
    const std::vector<Sdc> modes = generated_modes(design, dp, 5);
    expect_thread_count_independent(graph, ptrs(modes));
  }
}

}  // namespace
}  // namespace mm::merge
