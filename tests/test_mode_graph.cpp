// Unit tests for the per-mode view: case-analysis constant propagation,
// disables, blocked-arc sensitivity, clock-network propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "gen/paper_circuit.h"
#include "sdc/parser.h"
#include "timing/mode_graph.h"

namespace mm::timing {
namespace {

using netlist::Logic;

class ModeGraphTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);
  TimingGraph graph{design};

  ModeGraph make(const std::string& sdc_text) {
    sdc_ = std::make_unique<sdc::Sdc>(sdc::parse_sdc(sdc_text, design));
    return ModeGraph(graph, *sdc_);
  }

  PinId pin(const char* name) { return design.find_pin(name); }

  std::unique_ptr<sdc::Sdc> sdc_;
};

TEST_F(ModeGraphTest, ConstantPropagationThroughOr) {
  ModeGraph mg = make(
      "set_case_analysis 0 sel1\n"
      "set_case_analysis 1 sel2\n");
  EXPECT_EQ(mg.constant(pin("sel1")), Logic::kZero);
  EXPECT_EQ(mg.constant(pin("or1/Z")), Logic::kOne);   // 0 | 1
  EXPECT_EQ(mg.constant(pin("mux1/S")), Logic::kOne);  // via net
  EXPECT_FALSE(mg.is_constant(pin("mux1/Z")));  // clock value unknown
}

TEST_F(ModeGraphTest, ConstantsDoNotCrossRegisters) {
  ModeGraph mg = make("set_case_analysis 0 in1\n");
  EXPECT_EQ(mg.constant(pin("rA/D")), Logic::kZero);
  EXPECT_FALSE(mg.is_constant(pin("rA/Q")));
}

TEST_F(ModeGraphTest, CaseOnOutputPinOverridesEvaluation) {
  ModeGraph mg = make("set_case_analysis 0 rB/Q\n");
  EXPECT_EQ(mg.constant(pin("rB/Q")), Logic::kZero);
  // AND with one input 0 -> 0 downstream.
  EXPECT_EQ(mg.constant(pin("and1/Z")), Logic::kZero);
  EXPECT_EQ(mg.constant(pin("inv2/Z")), Logic::kOne);
  EXPECT_EQ(mg.constant(pin("rY/D")), Logic::kOne);
}

TEST_F(ModeGraphTest, MuxSelectBlocksUnselectedArc) {
  ModeGraph mg = make(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "create_clock -name b -period 20 [get_ports clk2]\n"
      "set_case_analysis 0 sel1\n"
      "set_case_analysis 1 sel2\n");  // select = 1: B input selected
  // Arc mux1/A -> mux1/Z must be blocked, B -> Z alive.
  bool a_blocked = true, b_alive = false;
  for (ArcId aid : graph.fanout(pin("mux1/A"))) {
    if (graph.arc(aid).to == pin("mux1/Z") && mg.arc_enabled(aid))
      a_blocked = false;
  }
  for (ArcId aid : graph.fanout(pin("mux1/B"))) {
    if (graph.arc(aid).to == pin("mux1/Z") && mg.arc_enabled(aid))
      b_alive = true;
  }
  EXPECT_TRUE(a_blocked);
  EXPECT_TRUE(b_alive);
  // Hence only clkB reaches the gated registers.
  EXPECT_FALSE(mg.clock_on(pin("rX/CP"), sdc_->find_clock("a")));
  EXPECT_TRUE(mg.clock_on(pin("rX/CP"), sdc_->find_clock("b")));
}

TEST_F(ModeGraphTest, ClockPropagationUnconstrained) {
  ModeGraph mg = make("create_clock -name a -period 10 [get_ports clk1]\n");
  // Without case analysis the mux select is unknown: clkA reaches both the
  // direct registers and (through mux A input) the gated ones.
  EXPECT_TRUE(mg.clock_on(pin("rA/CP"), sdc_->find_clock("a")));
  EXPECT_TRUE(mg.clock_on(pin("rX/CP"), sdc_->find_clock("a")));
  EXPECT_TRUE(mg.in_clock_network(pin("mux1/Z")));
  // The clock does not leak through launch arcs into the data network.
  EXPECT_FALSE(mg.in_clock_network(pin("rA/Q")));
}

TEST_F(ModeGraphTest, ClockSenseStopRemovesClock) {
  ModeGraph mg = make(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "set_clock_sense -stop_propagation -clock [get_clocks a] "
      "[get_pins mux1/Z]\n");
  EXPECT_FALSE(mg.clock_on(pin("mux1/Z"), sdc_->find_clock("a")));
  EXPECT_FALSE(mg.clock_on(pin("rX/CP"), sdc_->find_clock("a")));
  EXPECT_TRUE(mg.clock_on(pin("rA/CP"), sdc_->find_clock("a")));
}

TEST_F(ModeGraphTest, DisableTimingPinKillsArcs) {
  ModeGraph mg = make(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "set_disable_timing [get_pins and1/A]\n");
  for (ArcId aid : graph.fanin(pin("and1/A"))) {
    EXPECT_FALSE(mg.arc_enabled(aid));
  }
  for (ArcId aid : graph.fanout(pin("and1/A"))) {
    EXPECT_FALSE(mg.arc_enabled(aid));
  }
}

TEST_F(ModeGraphTest, DisableTimingCellArcForm) {
  ModeGraph mg = make("set_disable_timing [get_cells mux1] -from A -to Z\n");
  bool a_z_disabled = false, b_z_enabled = false;
  for (ArcId aid : graph.fanout(pin("mux1/A"))) {
    if (graph.arc(aid).to == pin("mux1/Z"))
      a_z_disabled = !mg.arc_enabled(aid);
  }
  for (ArcId aid : graph.fanout(pin("mux1/B"))) {
    if (graph.arc(aid).to == pin("mux1/Z")) b_z_enabled = mg.arc_enabled(aid);
  }
  EXPECT_TRUE(a_z_disabled);
  EXPECT_TRUE(b_z_enabled);
}

TEST_F(ModeGraphTest, ActivePoints) {
  ModeGraph mg = make(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "set_input_delay 1 -clock a [get_ports in1]\n"
      "set_output_delay 1 -clock a [get_ports out1]\n");
  // Startpoints: 6 CP pins (all clocked) + in1.
  EXPECT_EQ(mg.active_startpoints().size(), 7u);
  // Endpoints: 6 D pins + out1.
  EXPECT_EQ(mg.active_endpoints().size(), 7u);
}

TEST_F(ModeGraphTest, UnclockedRegistersAreInactive) {
  ModeGraph mg = make(
      "create_clock -name b -period 10 [get_ports clk2]\n"
      "set_case_analysis 0 sel1\n"
      "set_case_analysis 0 sel2\n");  // select=0: A input (clk1, no clock)
  // clkB enters mux B input but select=0 blocks it; nothing is clocked.
  EXPECT_TRUE(mg.active_startpoints().empty());
  EXPECT_TRUE(mg.active_endpoints().empty());
}

TEST_F(ModeGraphTest, CaptureClocks) {
  ModeGraph mg = make(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "create_clock -name b -period 20 [get_ports clk2]\n");
  const auto caps = mg.capture_clocks_at(pin("rX/D"));
  // Unknown mux select: both clocks capture at rX.
  EXPECT_EQ(caps.size(), 2u);
  const auto direct = mg.capture_clocks_at(pin("rA/D"));
  ASSERT_EQ(direct.size(), 1u);
  EXPECT_EQ(direct[0].clock, sdc_->find_clock("a"));
}

TEST_F(ModeGraphTest, GeneratedClockSeedsFromMaster) {
  ModeGraph mg = make(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "create_generated_clock -name g -source [get_pins mux1/Z] -divide_by 2 "
      "[get_pins mux1/Z]\n");
  EXPECT_TRUE(mg.clock_on(pin("rX/CP"), sdc_->find_clock("g")));
  EXPECT_TRUE(mg.clock_on(pin("rX/CP"), sdc_->find_clock("a")));
}

TEST_F(ModeGraphTest, ChainedGeneratedClocks) {
  // g2 is generated from g1 which is generated from the root clock; the
  // chain needs multi-round seeding. g2 is also declared BEFORE g1 resolves
  // its waveform, exercising the parser's deferred derivation.
  ModeGraph mg = make(
      "create_clock -name root -period 8 [get_ports clk1]\n"
      "create_generated_clock -name g1 -source [get_ports clk1] "
      "-master_clock root -divide_by 2 [get_pins mux1/A]\n"
      "create_generated_clock -name g2 -source [get_pins mux1/A] "
      "-master_clock g1 -divide_by 2 [get_pins mux1/Z]\n");
  const sdc::Clock& g2 = sdc_->clock(sdc_->find_clock("g2"));
  EXPECT_DOUBLE_EQ(g2.period, 32.0);  // 8 * 2 * 2
  EXPECT_TRUE(mg.clock_on(pin("rX/CP"), sdc_->find_clock("g2")));
  EXPECT_TRUE(mg.clock_on(pin("rX/CP"), sdc_->find_clock("g1")));
}

TEST_F(ModeGraphTest, LatencyAndUncertaintyAccessors) {
  ModeGraph mg = make(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "set_clock_latency -source 0.5 [get_clocks a]\n"
      "set_clock_latency 0.3 [get_clocks a]\n"
      "set_clock_uncertainty -setup 0.15 [get_clocks a]\n");
  const sdc::ClockId a = sdc_->find_clock("a");
  EXPECT_DOUBLE_EQ(mg.source_latency(a), 0.5);
  EXPECT_DOUBLE_EQ(mg.ideal_network_latency(a), 0.3);
  EXPECT_DOUBLE_EQ(mg.uncertainty(a), 0.15);
}

// --- CSR layouts against per-pin oracles ------------------------------------

/// Clock arrivals per pin as ModeGraph computed them before its CSR layout:
/// one vector per pin, filled by a forward push in topological order over
/// the view's own constants and enabled arcs, then sorted by clock id.
std::vector<std::vector<ClockArrival>> per_pin_clocks(const ModeGraph& mg) {
  const TimingGraph& g = mg.graph();
  const sdc::Sdc& sdc = mg.sdc();
  std::vector<std::vector<ClockArrival>> on(g.num_nodes());
  auto insert = [&](PinId pin, ClockId clock, double latency) {
    for (const sdc::ClockSenseStop& s : sdc.clock_sense_stops()) {
      if (s.pin == pin && (!s.clock.valid() || s.clock == clock)) return;
    }
    for (ClockArrival& ca : on[pin.index()]) {
      if (ca.clock == clock) {
        ca.latency = std::max(ca.latency, latency);
        return;
      }
    }
    on[pin.index()].push_back({clock, latency});
  };
  auto pass = [&] {
    for (PinId pin : g.topo_order()) {
      for (const ClockArrival& ca : on[pin.index()]) {
        if (mg.is_constant(pin)) continue;
        for (ArcId aid : g.fanout(pin)) {
          if (!mg.arc_enabled(aid)) continue;
          const Arc& arc = g.arc(aid);
          if (arc.kind == ArcKind::kLaunch) continue;
          const double delay =
              arc.kind == ArcKind::kNet
                  ? arc.intrinsic
                  : arc.intrinsic + arc.resistance * g.load_on(arc.to);
          insert(arc.to, ca.clock, ca.latency + delay);
        }
      }
    }
  };
  size_t num_generated = 0;
  for (size_t ci = 0; ci < sdc.num_clocks(); ++ci) {
    const sdc::Clock& clock = sdc.clock(ClockId(ci));
    if (clock.is_generated) {
      ++num_generated;
      continue;
    }
    for (PinId src : clock.sources) insert(src, ClockId(ci), 0.0);
  }
  pass();
  for (size_t round = 0; round < num_generated; ++round) {
    for (size_t ci = 0; ci < sdc.num_clocks(); ++ci) {
      const sdc::Clock& clock = sdc.clock(ClockId(ci));
      if (!clock.is_generated) continue;
      double base = 0.0;
      const ClockId master = sdc.find_clock(clock.master_clock);
      if (master.valid() && clock.master_source.valid()) {
        for (const ClockArrival& ca : on[clock.master_source.index()]) {
          if (ca.clock == master) base = ca.latency;
        }
      }
      for (PinId src : clock.sources) insert(src, ClockId(ci), base);
    }
    pass();
  }
  for (auto& v : on) {
    std::sort(v.begin(), v.end(), [](const ClockArrival& a,
                                     const ClockArrival& b) {
      return a.clock < b.clock;
    });
  }
  return on;
}

/// Capture clocks per pin from per-pin clock sets, the old way.
std::vector<std::vector<ClockArrival>> per_pin_captures(
    const ModeGraph& mg, const std::vector<std::vector<ClockArrival>>& on) {
  const TimingGraph& g = mg.graph();
  std::vector<std::vector<ClockArrival>> out(g.num_nodes());
  for (size_t p = 0; p < g.num_nodes(); ++p) {
    auto add_once = [&](const ClockArrival& ca) {
      for (const ClockArrival& have : out[p]) {
        if (have.clock == ca.clock) return;
      }
      out[p].push_back(ca);
    };
    if (g.design().pin(PinId(p)).is_port()) {
      for (const sdc::PortDelay& pd : mg.sdc().port_delays()) {
        if (pd.is_input || pd.port_pin != PinId(p) || !pd.clock.valid()) {
          continue;
        }
        add_once({pd.clock, 0.0});
      }
      continue;
    }
    for (uint32_t ci : g.checks_at(PinId(p))) {
      for (const ClockArrival& ca : on[g.checks()[ci].clock.index()]) {
        add_once(ca);
      }
    }
  }
  return out;
}

void expect_layouts_match_oracle(const ModeGraph& mg) {
  const auto on = per_pin_clocks(mg);
  const auto captures = per_pin_captures(mg, on);
  size_t arrivals = 0;
  for (size_t p = 0; p < on.size(); ++p) {
    const PinId pin(p);
    const std::span<const ClockArrival> got = mg.clocks_on(pin);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), on[p].begin(), on[p].end()))
        << "clocks_on at pin " << p;
    EXPECT_EQ(mg.in_clock_network(pin), !on[p].empty());
    const std::span<const ClockArrival> caps = mg.capture_clocks_at(pin);
    ASSERT_TRUE(std::equal(caps.begin(), caps.end(), captures[p].begin(),
                           captures[p].end()))
        << "capture_clocks_at pin " << p;
    arrivals += on[p].size();
  }
  EXPECT_GT(arrivals, 0u);
}

TEST_F(ModeGraphTest, CsrLayoutsMatchPerPinOracleOnPaperCircuit) {
  for (const char* text : {
           "create_clock -name a -period 10 [get_ports clk1]\n"
           "create_clock -name b -period 20 [get_ports clk2]\n",
           "create_clock -name a -period 10 [get_ports clk1]\n"
           "create_clock -name b -period 20 [get_ports clk2]\n"
           "set_case_analysis 0 sel1\n"
           "set_case_analysis 1 sel2\n"
           "set_clock_sense -stop_propagation -clock [get_clocks a] "
           "[get_pins mux1/Z]\n"
           "set_output_delay 1 -clock [get_clocks b] [get_ports out1]\n",
           "create_clock -name root -period 8 [get_ports clk1]\n"
           "create_generated_clock -name g1 -source [get_ports clk1] "
           "-master_clock root -divide_by 2 [get_pins mux1/A]\n"
           "create_generated_clock -name g2 -source [get_pins mux1/A] "
           "-master_clock g1 -divide_by 2 [get_pins mux1/Z]\n"
           "set_disable_timing [get_pins inv1/Z]\n",
       }) {
    SCOPED_TRACE(text);
    expect_layouts_match_oracle(make(text));
  }
}

// --- views rebuilt from a kept stage ---------------------------------------

void expect_same_view(const ModeGraph& got, const ModeGraph& want) {
  const TimingGraph& g = want.graph();
  for (size_t p = 0; p < g.num_nodes(); ++p) {
    const PinId pin(p);
    ASSERT_EQ(got.constant(pin), want.constant(pin)) << "pin " << p;
    const auto a = got.clocks_on(pin);
    const auto b = want.clocks_on(pin);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "clocks_on at pin " << p;
    const auto ca = got.capture_clocks_at(pin);
    const auto cb = want.capture_clocks_at(pin);
    ASSERT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()))
        << "capture_clocks_at pin " << p;
  }
  for (size_t a = 0; a < g.num_arcs(); ++a) {
    ASSERT_EQ(got.arc_enabled(ArcId(a)), want.arc_enabled(ArcId(a)))
        << "arc " << a;
  }
  EXPECT_EQ(got.active_startpoints(), want.active_startpoints());
  EXPECT_EQ(got.active_endpoints(), want.active_endpoints());
}

// Clock refinement appends disables, then clock stops, to the merged deck;
// its view keeps the constants (and then the arc enables) and re-runs only
// the later stages. Each kept-stage view equals a from-scratch build.
TEST_F(ModeGraphTest, KeptStageViewsMatchFullBuilds) {
  const ModeGraph base = make(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "create_clock -name b -period 20 [get_ports clk2]\n"
      "set_case_analysis 0 sel1\n"
      "set_output_delay 1 -clock [get_clocks b] [get_ports out1]\n");
  ASSERT_TRUE(base.clock_on(pin("rX/CP"), sdc_->find_clock("a")));

  sdc::DisableTiming dt;
  dt.pin = pin("and1/A");
  sdc_->disables().push_back(dt);
  const ModeGraph arcs(base, *sdc_, ModeGraph::Stage::kArcs);
  expect_same_view(arcs, ModeGraph(graph, *sdc_));
  for (ArcId aid : graph.fanout(pin("and1/A"))) {
    EXPECT_FALSE(arcs.arc_enabled(aid));
  }

  sdc::ClockSenseStop stop;
  stop.pin = pin("mux1/Z");
  stop.clock = sdc_->find_clock("a");
  sdc_->clock_sense_stops().push_back(stop);
  const ModeGraph clocks(arcs, *sdc_, ModeGraph::Stage::kClocks);
  expect_same_view(clocks, ModeGraph(graph, *sdc_));
  EXPECT_FALSE(clocks.clock_on(pin("rX/CP"), sdc_->find_clock("a")));
}

TEST(ModeGraphCsrTest, CsrLayoutsMatchPerPinOracleOnGeneratedDesign) {
  const netlist::Library lib = netlist::Library::builtin();
  gen::DesignParams dp;
  dp.seed = 5;
  dp.num_regs = 120;
  const netlist::Design design = gen::generate_design(lib, dp);
  const TimingGraph graph(design);
  gen::ModeFamilyParams mp;
  mp.seed = 5;
  mp.num_modes = 6;
  mp.target_groups = 2;
  mp.gen_clocks = 2;
  mp.disabled_arcs = 2;
  for (const gen::GeneratedMode& gm : gen::generate_mode_family(dp, mp)) {
    SCOPED_TRACE(gm.name);
    const sdc::Sdc sdc = sdc::parse_sdc(gm.sdc_text, design);
    expect_layouts_match_oracle(ModeGraph(graph, sdc));
  }
}

}  // namespace
}  // namespace mm::timing
