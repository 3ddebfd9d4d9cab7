// STA driver tests: per-endpoint slacks, multi-mode worst slack, WNS/TNS,
// conformity metric, and degenerate graphs (empty design, buffer chain).

#include <gtest/gtest.h>

#include "gen/design_gen.h"
#include "gen/paper_circuit.h"
#include "netlist/builder.h"
#include "sdc/parser.h"
#include "timing/sta.h"

namespace mm::timing {
namespace {

class StaTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);
  TimingGraph graph{design};

  sdc::Sdc parse(const std::string& text) {
    return sdc::parse_sdc(text, design);
  }
};

TEST_F(StaTest, CleanModeHasPositiveSlack) {
  // Without input delays only the reg-to-reg endpoints (rX, rY, rZ) carry
  // timed paths; rA/rB/rC are fed by the unconstrained in1 port.
  const sdc::Sdc sdc = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  const StaResult result = run_sta(graph, sdc);
  EXPECT_EQ(result.num_endpoints, 3u);
  EXPECT_DOUBLE_EQ(result.wns, 0.0);
  EXPECT_DOUBLE_EQ(result.tns, 0.0);

  // Adding an input delay brings the port-fed endpoints into the analysis.
  const sdc::Sdc with_io =
      parse("create_clock -name c -period 10 [get_ports clk1]\n"
            "set_input_delay 1 -clock c [get_ports in1]\n");
  EXPECT_EQ(run_sta(graph, with_io).num_endpoints, 6u);
}

TEST_F(StaTest, TightModeViolates) {
  const sdc::Sdc sdc = parse("create_clock -name c -period 0.3 [get_ports clk1]\n");
  const StaResult result = run_sta(graph, sdc);
  EXPECT_LT(result.wns, 0.0);
  EXPECT_LT(result.tns, result.wns);  // multiple violating endpoints
}

TEST_F(StaTest, UncertaintyTightensSlack) {
  const StaResult base =
      run_sta(graph, parse("create_clock -name c -period 10 [get_ports clk1]\n"));
  const StaResult unc = run_sta(
      graph, parse("create_clock -name c -period 10 [get_ports clk1]\n"
                   "set_clock_uncertainty -setup 1.0 [get_clocks c]\n"));
  const uint32_t ep = design.find_pin("rY/D").value();
  EXPECT_NEAR(base.endpoint_slack.at(ep) - unc.endpoint_slack.at(ep), 1.0, 1e-4);
}

TEST_F(StaTest, ClockLatencyShiftsCapture) {
  // Ideal capture-clock network latency gives the capture side more time.
  const StaResult base =
      run_sta(graph, parse("create_clock -name c -period 10 [get_ports clk1]\n"));
  const StaResult lat = run_sta(
      graph, parse("create_clock -name c -period 10 [get_ports clk1]\n"
                   "set_clock_latency 0.8 [get_clocks c]\n"));
  // Launch latency also moves arrivals; launch + capture shift cancel for
  // same-clock paths, so slacks stay equal.
  const uint32_t ep = design.find_pin("rY/D").value();
  EXPECT_NEAR(base.endpoint_slack.at(ep), lat.endpoint_slack.at(ep), 1e-4);
}

TEST_F(StaTest, MultiModeKeepsWorst) {
  const sdc::Sdc slow = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  const sdc::Sdc fast = parse("create_clock -name c -period 2 [get_ports clk1]\n");
  const StaResult multi = run_sta_multi(graph, {&slow, &fast});
  const StaResult fast_only = run_sta(graph, fast);
  for (const auto& [ep, slack] : multi.endpoint_slack) {
    EXPECT_FLOAT_EQ(slack, fast_only.endpoint_slack.at(ep));
  }
}

TEST_F(StaTest, ConformityIdenticalIs100) {
  const sdc::Sdc sdc = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  const StaResult a = run_sta(graph, sdc);
  EXPECT_DOUBLE_EQ(conformity(a, a, graph, sdc), 100.0);
}

TEST_F(StaTest, ConformityDetectsDeviation) {
  const sdc::Sdc indiv = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  // Merged stand-in with large extra uncertainty: every slack deviates by
  // 2.0 > 1% of period.
  const sdc::Sdc skewed =
      parse("create_clock -name c -period 10 [get_ports clk1]\n"
            "set_clock_uncertainty -setup 2.0 [get_clocks c]\n");
  const StaResult a = run_sta(graph, indiv);
  const StaResult b = run_sta(graph, skewed);
  EXPECT_DOUBLE_EQ(conformity(a, b, graph, skewed), 0.0);
  // With a 25% tolerance everything conforms again.
  EXPECT_DOUBLE_EQ(conformity(a, b, graph, skewed, 0.25), 100.0);
}

TEST_F(StaTest, LostEndpointBreaksConformity) {
  const sdc::Sdc indiv = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  const sdc::Sdc fp =
      parse("create_clock -name c -period 10 [get_ports clk1]\n"
            "set_false_path -to [get_pins rX/D]\n");
  const StaResult a = run_sta(graph, indiv);
  const StaResult b = run_sta(graph, fp);
  EXPECT_LT(conformity(a, b, graph, fp), 100.0);
}

TEST_F(StaTest, GeneratedDesignRuns) {
  gen::DesignParams params;
  params.num_regs = 200;
  params.num_domains = 3;
  netlist::Design d = generate_design(lib, params);
  TimingGraph g(d);
  const sdc::Sdc sdc = sdc::parse_sdc(
      "create_clock -name C0 -period 10 [get_ports clk0]\n"
      "create_clock -name C1 -period 12 [get_ports clk1]\n"
      "create_clock -name C2 -period 14 [get_ports clk2]\n"
      "set_case_analysis 0 test_mode\n"
      "set_case_analysis 0 scan_en\n"
      "set_case_analysis 1 en0\nset_case_analysis 1 en1\n"
      "set_case_analysis 1 en2\n"
      "set_input_delay 1 -clock C0 [get_ports di_*]\n"
      "set_output_delay 1 -clock C0 [get_ports do_*]\n",
      d);
  const StaResult result = run_sta(g, sdc);
  EXPECT_GT(result.num_endpoints, 100u);
}

TEST_F(StaTest, EmptyGraphEdgeCase) {
  // A design with no pins has an empty topological order; both the engine
  // and the STA driver must run and report nothing.
  netlist::Design empty("empty", &lib);
  TimingGraph g(empty);
  EXPECT_TRUE(g.topo_order().empty());

  const sdc::Sdc sdc = sdc::parse_sdc("", empty);
  const ModeGraph mode(g, sdc);
  const CompiledExceptions exceptions(g, sdc);
  Propagator prop(mode, exceptions);
  PropagationOptions opts;
  opts.analyze_hold = true;
  prop.run(opts);
  EXPECT_TRUE(prop.relations().empty());

  const StaResult result = run_sta(g, sdc, /*analyze_hold=*/true);
  EXPECT_EQ(result.num_endpoints, 0u);
  EXPECT_TRUE(result.endpoint_hold_slack.empty());
  EXPECT_DOUBLE_EQ(result.wns, 0.0);
}

TEST_F(StaTest, SingleNodeLevelChain) {
  // A pure buffer chain: one pin per topological level. The one
  // port-to-port path must be timed on both sides, with a setup slack
  // below period - input delay - output delay.
  netlist::Design chain("chain", &lib);
  netlist::Builder b(&chain);
  b.input("in");
  b.inst(netlist::cells::kBuf, "b1", {{"A", "in"}, {"Z", "n1"}});
  b.inst(netlist::cells::kBuf, "b2", {{"A", "n1"}, {"Z", "n2"}});
  b.inst(netlist::cells::kBuf, "b3", {{"A", "n2"}, {"Z", "out"}});
  b.output("out");
  TimingGraph g(chain);
  EXPECT_EQ(g.topo_order().size(), chain.num_pins());

  const sdc::Sdc sdc = sdc::parse_sdc(
      "create_clock -name c -period 10\n"
      "set_input_delay 1 -clock c [get_ports in]\n"
      "set_output_delay 2 -clock c [get_ports out]\n",
      chain);
  const ModeGraph mode(g, sdc);
  const CompiledExceptions exceptions(g, sdc);
  Propagator prop(mode, exceptions);
  PropagationOptions opts;
  opts.analyze_hold = true;
  prop.run(opts);
  ASSERT_EQ(prop.relations().size(), 1u);
  const RelationData& rel = prop.relations().begin()->data;
  EXPECT_TRUE(rel.states.any_timed());
  EXPECT_TRUE(rel.hold_states.any_timed());

  const uint32_t out = chain.find_pin("out").value();
  const StaResult result = run_sta(g, sdc, /*analyze_hold=*/true);
  ASSERT_EQ(result.num_endpoints, 1u);
  EXPECT_GT(result.endpoint_slack.at(out), 0.0f);
  EXPECT_LT(result.endpoint_slack.at(out), 7.0f);
  EXPECT_EQ(result.endpoint_hold_slack.count(out), 1u);
}

}  // namespace
}  // namespace mm::timing
