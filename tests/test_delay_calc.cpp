// Delay-calculation tests: slew boundary conditions, load dependence,
// determinism, and effect on STA slacks.

#include <gtest/gtest.h>

#include "gen/paper_circuit.h"
#include "sdc/parser.h"
#include "timing/delay_calc.h"
#include "timing/sta.h"

namespace mm::timing {
namespace {

class DelayCalcTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);
  TimingGraph graph{design};

  sdc::Sdc parse(const std::string& text) {
    return sdc::parse_sdc(text, design);
  }
};

TEST_F(DelayCalcTest, Deterministic) {
  const sdc::Sdc sdc = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  const DelayCalcResult a = compute_delays(graph, sdc, 4);
  const DelayCalcResult b = compute_delays(graph, sdc, 4);
  EXPECT_EQ(a.arc_delay, b.arc_delay);
  EXPECT_EQ(a.pin_slew, b.pin_slew);
  // More iterations refine to the same feed-forward fixed point.
  const DelayCalcResult c = compute_delays(graph, sdc, 8);
  for (size_t i = 0; i < a.arc_delay.size(); ++i) {
    EXPECT_NEAR(a.arc_delay[i], c.arc_delay[i], 1e-9);
  }
}

TEST_F(DelayCalcTest, AllDelaysPositive) {
  const sdc::Sdc sdc = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  const DelayCalcResult r = compute_delays(graph, sdc);
  for (size_t a = 0; a < graph.num_arcs(); ++a) {
    EXPECT_GT(r.arc_delay[a], 0.0) << a;
  }
}

TEST_F(DelayCalcTest, InputTransitionSlowsDownstreamArcs) {
  const sdc::Sdc fast = parse("set_input_transition 0.05 [get_ports in1]\n");
  const sdc::Sdc slow = parse("set_input_transition 2.0 [get_ports in1]\n");
  const DelayCalcResult rf = compute_delays(graph, fast);
  const DelayCalcResult rs = compute_delays(graph, slow);

  // Slews at in1's loads rise with the boundary transition...
  const PinId d = design.find_pin("rA/D");
  EXPECT_GT(rs.pin_slew[d.index()], rf.pin_slew[d.index()]);
  // ...and downstream cell-arc delays grow with input slew. rA/Q launch arc
  // is unaffected (clock side); check a comb arc in in1's cone instead:
  // in1's slew does not reach inv1 (register boundary), so compare a cell
  // arc fed by the port net: none exist (ports feed D pins). Check instead
  // that total slews never decrease anywhere.
  for (size_t i = 0; i < rf.pin_slew.size(); ++i) {
    EXPECT_GE(rs.pin_slew[i] + 1e-12, rf.pin_slew[i]) << i;
  }
}

TEST_F(DelayCalcTest, PortLoadSlowsDriverArc) {
  const sdc::Sdc light = parse("set_load 0.1 [get_ports out1]\n");
  const sdc::Sdc heavy = parse("set_load 20 [get_ports out1]\n");
  const DelayCalcResult rl = compute_delays(graph, light);
  const DelayCalcResult rh = compute_delays(graph, heavy);
  // rZ/Q drives out1: its launch arc (CP->Q) slows with the port load.
  const PinId cp = design.find_pin("rZ/CP");
  double dl = 0, dh = 0;
  for (ArcId aid : graph.fanout(cp)) {
    if (graph.arc(aid).kind == ArcKind::kLaunch) {
      dl = rl.arc_delay[aid.index()];
      dh = rh.arc_delay[aid.index()];
    }
  }
  EXPECT_GT(dh, dl);
}

TEST_F(DelayCalcTest, EarlyLateSplit) {
  const sdc::Sdc sdc = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  const DelayCalcResult r = compute_delays(graph, sdc, 4, 0.85);
  ASSERT_EQ(r.arc_delay_min.size(), r.arc_delay.size());
  for (size_t i = 0; i < r.arc_delay.size(); ++i) {
    EXPECT_NEAR(r.arc_delay_min[i], 0.85 * r.arc_delay[i], 1e-12);
  }
}

TEST_F(DelayCalcTest, HoldUsesEarlyDelays) {
  // With the early/late split, the hold-side min arrival is strictly below
  // the setup-side max arrival; a min_delay bound between the two flags a
  // hold violation that a split-less analysis would miss.
  const sdc::Sdc sdc = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  ModeGraph mode(graph, sdc);
  CompiledExceptions exceptions(graph, sdc);
  const DelayCalcResult delays = compute_delays(graph, sdc, 2, 0.5);
  Propagator prop(mode, exceptions);
  PropagationOptions opts;
  opts.compute_arrivals = true;
  opts.analyze_hold = true;
  opts.arc_delays = &delays.arc_delay;
  opts.arc_delays_min = &delays.arc_delay_min;
  prop.run(opts);
  bool found = false;
  for (const Tag& tag : prop.tags(design.find_pin("rY/D"))) {
    EXPECT_LT(tag.amin, tag.amax);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(DelayCalcTest, HeavierLoadTightensStaSlack) {
  const sdc::Sdc light =
      parse("create_clock -name c -period 10 [get_ports clk1]\n"
            "set_output_delay 1 -clock c [get_ports out1]\n"
            "set_load 0.1 [get_ports out1]\n");
  const sdc::Sdc heavy =
      parse("create_clock -name c -period 10 [get_ports clk1]\n"
            "set_output_delay 1 -clock c [get_ports out1]\n"
            "set_load 20 [get_ports out1]\n");
  const StaResult rl = run_sta(graph, light);
  const StaResult rh = run_sta(graph, heavy);
  const uint32_t out = design.find_pin("out1").value();
  EXPECT_LT(rh.endpoint_slack.at(out), rl.endpoint_slack.at(out));
}

}  // namespace
}  // namespace mm::timing
