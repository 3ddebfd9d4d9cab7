// Reproduction of the paper's 3-pass refinement walkthrough (Constraint
// Set 6, Tables 2-4): mode A false-paths {to rX/D, to rY/D, through
// inv3/Z}, mode B false-paths {from rA/CP, to rZ/D}; no exception is common
// so the preliminary merged mode has none, and refinement must derive
//   CSTR1: set_false_path -to rX/D                      (pass 1)
//   CSTR2: set_false_path -from rA/CP -to rY/D          (pass 2)
//   CSTR3: set_false_path -from rC/CP -through inv3/A.. (pass 3)
// and end up equivalent to the union of the individual modes.

#include <gtest/gtest.h>

#include "gen/paper_circuit.h"
#include "merge/merger.h"
#include "merge/preliminary.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include "timing/relationships.h"
#include "timing/sta.h"

namespace mm::merge {
namespace {

namespace cs = gen::constraint_sets;
using timing::PathState;
using timing::RelationKey;
using timing::StateKind;

class ThreePassTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);
  timing::TimingGraph graph{design};
  sdc::Sdc a{sdc::parse_sdc(cs::kSet6ModeA, design)};
  sdc::Sdc b{sdc::parse_sdc(cs::kSet6ModeB, design)};

  sdc::PinId pin(const char* name) { return design.find_pin(name); }

  /// Endpoint-level state set in one mode (the "Individual mode state"
  /// columns of Table 2).
  timing::StateSet endpoint_states(const sdc::Sdc& mode, const char* endpoint) {
    timing::ModeGraph mg(graph, mode);
    timing::CompiledExceptions ce(graph, mode);
    timing::Propagator prop(mg, ce);
    timing::PropagationOptions opts;
    opts.compute_arrivals = false;
    prop.run(opts);
    timing::StateSet out;
    for (const auto& [key, data] : prop.relations()) {
      if (key.endpoint == pin(endpoint)) out.merge(data.states);
    }
    return out;
  }
};

TEST_F(ThreePassTest, Table2IndividualStates) {
  // Mode A: everything at rX/D and rY/D is FP; rZ/D mixes FP (through
  // inv3/Z) with valid (through and2/A).
  timing::StateSet rx_a = endpoint_states(a, "rX/D");
  ASSERT_TRUE(rx_a.singleton());
  EXPECT_EQ(rx_a[0], PathState::false_path());

  timing::StateSet rz_a = endpoint_states(a, "rZ/D");
  EXPECT_EQ(rz_a.size(), 2u);
  EXPECT_TRUE(rz_a.contains(PathState::false_path()));
  EXPECT_TRUE(rz_a.contains(PathState::valid()));

  // Mode B: rY/D mixes FP (paths from rA) with valid (paths from rB);
  // rZ/D is all FP.
  timing::StateSet ry_b = endpoint_states(b, "rY/D");
  EXPECT_EQ(ry_b.size(), 2u);
  timing::StateSet rz_b = endpoint_states(b, "rZ/D");
  ASSERT_TRUE(rz_b.singleton());
  EXPECT_EQ(rz_b[0], PathState::false_path());
}

TEST_F(ThreePassTest, RefinementDerivesPaperConstraints) {
  ValidatedMergeResult out = merge_modes(graph, {&a, &b});
  const sdc::Sdc& merged = *out.merge.merged;
  const std::string text = sdc::write_sdc(merged);

  // No exceptions were common, so the preliminary mode had none.
  EXPECT_EQ(out.merge.stats.exceptions_common, 0u);
  EXPECT_EQ(out.merge.stats.exceptions_uniquified, 0u);

  // Pass 1 fixed rX/D with an endpoint-level false path (CSTR1).
  bool cstr1 = false;
  // Pass 2 fixed (rA/CP -> rY/D) (CSTR2).
  bool cstr2 = false;
  // Pass 3 fixed the rC->inv3->rZ path with a through constraint (CSTR3).
  bool cstr3 = false;
  for (const sdc::Exception& ex : merged.exceptions()) {
    if (ex.kind != sdc::ExceptionKind::kFalsePath) continue;
    const bool to_rx =
        ex.to.pins.size() == 1 && design.pin_name(ex.to.pins[0]) == "rX/D";
    const bool to_ry =
        ex.to.pins.size() == 1 && design.pin_name(ex.to.pins[0]) == "rY/D";
    const bool to_rz =
        ex.to.pins.size() == 1 && design.pin_name(ex.to.pins[0]) == "rZ/D";
    const bool from_ra =
        ex.from.pins.size() == 1 && design.pin_name(ex.from.pins[0]) == "rA/CP";
    const bool from_rc =
        ex.from.pins.size() == 1 && design.pin_name(ex.from.pins[0]) == "rC/CP";
    bool through_inv3 = false;
    for (const sdc::ExceptionPoint& th : ex.throughs) {
      for (sdc::PinId p : th.pins) {
        const auto name = design.pin_name(p);
        if (name == "inv3/A" || name == "inv3/Z") through_inv3 = true;
      }
    }
    if (to_rx && ex.from.empty() && ex.throughs.empty()) cstr1 = true;
    if (to_ry && from_ra) cstr2 = true;
    if (to_rz && from_rc && through_inv3) cstr3 = true;
  }
  EXPECT_TRUE(cstr1) << text;
  EXPECT_TRUE(cstr2) << text;
  EXPECT_TRUE(cstr3) << text;

  EXPECT_GE(out.merge.stats.pass1_mismatch_fixed, 1u);
  EXPECT_GE(out.merge.stats.pass1_ambiguous, 1u);
  EXPECT_GE(out.merge.stats.pass2_mismatch_fixed, 1u);
  EXPECT_GE(out.merge.stats.pass3_fps_added, 1u);

  // The built-in validation: equivalent, not merely sign-off safe.
  EXPECT_TRUE(out.equivalence.signoff_safe()) << report_merge(out.merge, out.equivalence);
  EXPECT_EQ(out.equivalence.pessimism_keys, 0u)
      << report_merge(out.merge, out.equivalence);
  EXPECT_EQ(out.equivalence.optimism_violations, 0u);
}

TEST_F(ThreePassTest, StartpointLevelEquivalenceHolds) {
  ValidatedMergeResult out = merge_modes(graph, {&a, &b});
  RefineContext ctx(graph, {&a, &b});
  const EquivalenceReport deep = check_equivalence(
      ctx, *out.merge.merged, out.merge.clock_map, /*startpoint_level=*/true);
  EXPECT_EQ(deep.optimism_violations, 0u);
  EXPECT_EQ(deep.pessimism_keys, 0u);
}

TEST_F(ThreePassTest, WithoutRefinementMergedIsPessimistic) {
  MergeOptions options;
  options.run_refinement = false;
  MergeResult pre = preliminary_merge({&a, &b}, options);
  RefineContext ctx(graph, {&a, &b});
  const EquivalenceReport report =
      check_equivalence(ctx, *pre.merged, pre.clock_map);
  // Still sign-off safe (superset construction) but pessimistic.
  EXPECT_EQ(report.optimism_violations, 0u);
  EXPECT_GT(report.pessimism_keys, 0u);
}

TEST_F(ThreePassTest, MergedSlacksMatchWorstIndividual) {
  ValidatedMergeResult out = merge_modes(graph, {&a, &b});
  const timing::StaResult indiv = timing::run_sta_multi(graph, {&a, &b});
  const timing::StaResult merged_sta = timing::run_sta(graph, *out.merge.merged);
  EXPECT_DOUBLE_EQ(
      timing::conformity(indiv, merged_sta, graph, *out.merge.merged), 100.0);
}

}  // namespace
}  // namespace mm::merge
