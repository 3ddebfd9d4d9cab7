// Preliminary merge unit tests (§3.1): each sub-step in isolation.

#include <gtest/gtest.h>

#include "gen/paper_circuit.h"
#include "merge/preliminary.h"
#include "sdc/parser.h"

namespace mm::merge {
namespace {

class PrelimTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);

  sdc::Sdc parse(const std::string& text) {
    return sdc::parse_sdc(text, design);
  }

  MergeOptions options;
};

TEST_F(PrelimTest, SingleModePassesThrough) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_case_analysis 0 sel1\n"
      "set_false_path -to [get_pins rX/D]\n");
  MergeResult r = preliminary_merge({&a}, options);
  EXPECT_EQ(r.merged->num_clocks(), 1u);
  EXPECT_EQ(r.merged->case_analysis().size(), 1u);
  EXPECT_EQ(r.merged->exceptions().size(), 1u);
  EXPECT_EQ(r.stats.exceptions_common, 1u);
}

TEST_F(PrelimTest, PortDelayUnionDedupsIdentical) {
  const std::string text =
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_input_delay 1.5 -clock c [get_ports in1]\n";
  sdc::Sdc a = parse(text), b = parse(text);
  MergeResult r = preliminary_merge({&a, &b}, options);
  ASSERT_EQ(r.merged->port_delays().size(), 1u);
  EXPECT_FALSE(r.merged->port_delays()[0].add_delay);
}

TEST_F(PrelimTest, PortDelayUnionAddsDelayFlag) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_input_delay 1.5 -clock c [get_ports in1]\n");
  sdc::Sdc b = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_input_delay 2.5 -clock c [get_ports in1]\n");
  MergeResult r = preliminary_merge({&a, &b}, options);
  ASSERT_EQ(r.merged->port_delays().size(), 2u);
  EXPECT_FALSE(r.merged->port_delays()[0].add_delay);
  EXPECT_TRUE(r.merged->port_delays()[1].add_delay);
}

TEST_F(PrelimTest, CaseIntersection) {
  sdc::Sdc a = parse(
      "set_case_analysis 0 sel1\n"
      "set_case_analysis 1 sel2\n");
  sdc::Sdc b = parse(
      "set_case_analysis 0 sel1\n"
      "set_case_analysis 0 sel2\n");
  MergeResult r = preliminary_merge({&a, &b}, options);
  ASSERT_EQ(r.merged->case_analysis().size(), 1u);
  EXPECT_EQ(design.pin_name(r.merged->case_analysis()[0].pin), "sel1");
  EXPECT_GE(r.stats.case_dropped, 1u);
}

TEST_F(PrelimTest, DisableIntersection) {
  sdc::Sdc a = parse(
      "set_disable_timing [get_pins and1/A]\n"
      "set_disable_timing [get_pins inv1/A]\n");
  sdc::Sdc b = parse("set_disable_timing [get_pins and1/A]\n");
  MergeResult r = preliminary_merge({&a, &b}, options);
  ASSERT_EQ(r.merged->disables().size(), 1u);
  EXPECT_EQ(design.pin_name(r.merged->disables()[0].pin), "and1/A");
}

TEST_F(PrelimTest, DriveLoadMergeTakesWorst) {
  sdc::Sdc a = parse(
      "set_input_transition 0.30 [get_ports in1]\n"
      "set_load 2.0 [get_ports out1]\n");
  sdc::Sdc b = parse(
      "set_input_transition 0.32 [get_ports in1]\n"
      "set_load 2.1 [get_ports out1]\n");
  MergeOptions loose;
  loose.value_tolerance = 0.1;
  MergeResult r = preliminary_merge({&a, &b}, loose);
  ASSERT_EQ(r.merged->drives().size(), 1u);
  EXPECT_DOUBLE_EQ(r.merged->drives()[0].value, 0.32);
  ASSERT_EQ(r.merged->loads().size(), 1u);
  EXPECT_DOUBLE_EQ(r.merged->loads()[0].value, 2.1);
}

TEST_F(PrelimTest, ExclusivityDerivedForNonCoexistingClocks) {
  // Same port, different waveforms, never together in one mode.
  sdc::Sdc a = parse("create_clock -name f -period 2 [get_ports clk1]\n");
  sdc::Sdc b = parse("create_clock -name s -period 8 [get_ports clk1]\n");
  MergeResult r = preliminary_merge({&a, &b}, options);
  EXPECT_TRUE(r.merged->clocks_exclusive(r.merged->find_clock("f"),
                                         r.merged->find_clock("s")));
}

TEST_F(PrelimTest, CoexistingClocksNotExclusive) {
  const std::string text =
      "create_clock -name f -period 2 [get_ports clk1]\n"
      "create_clock -name s -period 8 [get_ports clk2]\n";
  sdc::Sdc a = parse(text), b = parse(text);
  MergeResult r = preliminary_merge({&a, &b}, options);
  EXPECT_FALSE(r.merged->clocks_exclusive(r.merged->find_clock("f"),
                                          r.merged->find_clock("s")));
}

TEST_F(PrelimTest, AsyncRelationPreserved) {
  const std::string text =
      "create_clock -name f -period 2 [get_ports clk1]\n"
      "create_clock -name s -period 8 [get_ports clk2]\n"
      "set_clock_groups -asynchronous -group [get_clocks f] "
      "-group [get_clocks s]\n";
  sdc::Sdc a = parse(text), b = parse(text);
  MergeResult r = preliminary_merge({&a, &b}, options);
  EXPECT_TRUE(r.merged->clocks_async(r.merged->find_clock("f"),
                                     r.merged->find_clock("s")));
}

TEST_F(PrelimTest, AsyncDroppedIfNotUniversal) {
  sdc::Sdc a = parse(
      "create_clock -name f -period 2 [get_ports clk1]\n"
      "create_clock -name s -period 8 [get_ports clk2]\n"
      "set_clock_groups -asynchronous -group [get_clocks f] "
      "-group [get_clocks s]\n");
  sdc::Sdc b = parse(
      "create_clock -name f -period 2 [get_ports clk1]\n"
      "create_clock -name s -period 8 [get_ports clk2]\n");
  MergeResult r = preliminary_merge({&a, &b}, options);
  // Mode B times f->s paths, so the merged mode must too.
  EXPECT_FALSE(r.merged->clocks_async(r.merged->find_clock("f"),
                                      r.merged->find_clock("s")));
}

TEST_F(PrelimTest, CommonExceptionAddedOnce) {
  const std::string text =
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -to [get_pins rX/D]\n";
  sdc::Sdc a = parse(text), b = parse(text);
  MergeResult r = preliminary_merge({&a, &b}, options);
  EXPECT_EQ(r.merged->exceptions().size(), 1u);
  EXPECT_EQ(r.stats.exceptions_common, 1u);
}

TEST_F(PrelimTest, UnsharedFalsePathDropped) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -to [get_pins rX/D]\n");
  sdc::Sdc b = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  MergeResult r = preliminary_merge({&a, &b}, options);
  EXPECT_TRUE(r.merged->exceptions().empty());
  EXPECT_EQ(r.stats.exceptions_dropped, 1u);
}

TEST_F(PrelimTest, UniquifyByToClocks) {
  // Exception carries -to clock only; the holder's clock is absent in the
  // other mode, so -to restriction works.
  sdc::Sdc a = parse(
      "create_clock -name ca -period 10 [get_ports clk1]\n"
      "set_max_delay 3 -to [get_clocks ca]\n");
  sdc::Sdc b = parse("create_clock -name cb -period 4 [get_ports clk2]\n");
  MergeResult r = preliminary_merge({&a, &b}, options);
  ASSERT_EQ(r.merged->exceptions().size(), 1u);
  EXPECT_EQ(r.stats.exceptions_uniquified, 1u);
  EXPECT_EQ(r.merged->exceptions()[0].to.clocks.size(), 1u);
}

TEST_F(PrelimTest, NonUniquifiableMinMaxKeptPessimistically) {
  // Both modes share the clock, so restriction is impossible; max_delay is
  // kept (tightening other modes is pessimistic-safe).
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_max_delay 3 -to [get_pins rX/D]\n");
  sdc::Sdc b = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  MergeResult r = preliminary_merge({&a, &b}, options);
  ASSERT_EQ(r.merged->exceptions().size(), 1u);
  EXPECT_EQ(r.stats.exceptions_kept_pessimistic, 1u);
}

TEST_F(PrelimTest, NonUniquifiableMcpDropped) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_multicycle_path 2 -to [get_pins rX/D]\n");
  sdc::Sdc b = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  MergeResult r = preliminary_merge({&a, &b}, options);
  EXPECT_TRUE(r.merged->exceptions().empty());
  EXPECT_EQ(r.stats.exceptions_dropped, 1u);
}

TEST_F(PrelimTest, DesignRulesTakeTightest) {
  sdc::Sdc a = parse(
      "set_max_transition 0.5\n"
      "set_max_capacitance 2.0 [get_ports out1]\n");
  sdc::Sdc b = parse("set_max_transition 0.3\n");
  MergeResult r = preliminary_merge({&a, &b}, options);
  ASSERT_EQ(r.merged->design_rules().size(), 2u);
  for (const sdc::DesignRule& rule : r.merged->design_rules()) {
    if (rule.kind == sdc::DesignRule::Kind::kMaxTransition) {
      EXPECT_DOUBLE_EQ(rule.value, 0.3);  // min of 0.5 / 0.3
    } else {
      EXPECT_DOUBLE_EQ(rule.value, 2.0);  // union from mode A
    }
  }
}

TEST_F(PrelimTest, PropagatedFlagSurvivesUnion) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_propagated_clock [get_clocks c]\n");
  sdc::Sdc b = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  MergeResult r = preliminary_merge({&a, &b}, options);
  EXPECT_TRUE(r.merged->clock(r.merged->find_clock("c")).propagated);
}

TEST_F(PrelimTest, GeneratedClockMasterRemapped) {
  const std::string text =
      "create_clock -name m -period 10 [get_ports clk1]\n"
      "create_generated_clock -name g -source [get_ports clk1] -divide_by 2 "
      "[get_pins mux1/Z]\n";
  sdc::Sdc a = parse(text), b = parse(text);
  MergeResult r = preliminary_merge({&a, &b}, options);
  ASSERT_EQ(r.merged->num_clocks(), 2u);
  const sdc::Clock& g = r.merged->clock(r.merged->find_clock("g"));
  EXPECT_EQ(g.master_clock, "m");
}

TEST_F(PrelimTest, ClockConstraintChannelsUseEffectiveValues) {
  // Each constraint is written twice in mode A; only the last entry is in
  // effect. A superseded value leaking into the merge would show up as a
  // 0.9 latency, a 0.8 setup uncertainty or a 0.6 transition.
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_latency 0.9 [get_clocks c]\n"
      "set_clock_latency 0.4 [get_clocks c]\n"
      "set_clock_latency -source 0.7 [get_clocks c]\n"
      "set_clock_uncertainty -setup 0.8 [get_clocks c]\n"
      "set_clock_uncertainty -setup 0.2 [get_clocks c]\n"
      "set_clock_uncertainty -hold 0.05 [get_clocks c]\n"
      "set_clock_transition 0.6 [get_clocks c]\n"
      "set_clock_transition 0.1 [get_clocks c]\n");
  sdc::Sdc b = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_latency 0.5 [get_clocks c]\n"
      "set_clock_uncertainty -setup 0.15 [get_clocks c]\n"
      "set_clock_transition -max 0.12 [get_clocks c]\n");
  MergeOptions loose;
  loose.value_tolerance = 0.5;
  MergeResult r = preliminary_merge({&a, &b}, loose);

  // Network latency, in both modes: min of mins / max of maxes over the
  // effective values. Source latency is only in A: dropped on both sides.
  ASSERT_EQ(r.merged->clock_latencies().size(), 2u);
  for (const sdc::ClockLatency& lat : r.merged->clock_latencies()) {
    EXPECT_FALSE(lat.source);
    EXPECT_DOUBLE_EQ(lat.value, lat.minmax.max ? 0.5 : 0.4);
  }

  // Uncertainty: the max over modes, and a hold value only A sets is kept.
  ASSERT_EQ(r.merged->clock_uncertainties().size(), 2u);
  for (const sdc::ClockUncertainty& unc : r.merged->clock_uncertainties()) {
    EXPECT_DOUBLE_EQ(unc.value, unc.setup_hold.setup ? 0.2 : 0.05);
  }

  // Transition: the max side is in both modes; the min side only in A.
  ASSERT_EQ(r.merged->clock_transitions().size(), 1u);
  EXPECT_TRUE(r.merged->clock_transitions()[0].minmax.max);
  EXPECT_FALSE(r.merged->clock_transitions()[0].minmax.min);
  EXPECT_DOUBLE_EQ(r.merged->clock_transitions()[0].value, 0.12);
  EXPECT_EQ(r.stats.clock_constraints_dropped, 3u);
}

}  // namespace
}  // namespace mm::merge
