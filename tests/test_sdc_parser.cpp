// Unit tests for the SDC parser and object queries, against the paper's
// Figure-1 circuit.

#include <gtest/gtest.h>

#include "gen/paper_circuit.h"
#include "sdc/parser.h"
#include "util/error.h"

namespace mm::sdc {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);

  Sdc parse(const std::string& text) { return parse_sdc(text, design); }
};

TEST_F(ParserTest, CreateClock) {
  Sdc sdc = parse("create_clock -name clkA -period 10 [get_ports clk1]\n");
  ASSERT_EQ(sdc.num_clocks(), 1u);
  const Clock& c = sdc.clock(ClockId(0u));
  EXPECT_EQ(c.name, "clkA");
  EXPECT_DOUBLE_EQ(c.period, 10.0);
  ASSERT_EQ(c.waveform.size(), 2u);
  EXPECT_DOUBLE_EQ(c.waveform[1], 5.0);
  ASSERT_EQ(c.sources.size(), 1u);
  EXPECT_EQ(design.pin_name(c.sources[0]), "clk1");
  EXPECT_FALSE(c.add);
}

TEST_F(ParserTest, CreateClockWaveformAndAdd) {
  Sdc sdc = parse(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "create_clock -name b -period 10 -waveform {2 7} -add [get_ports clk1]\n");
  const Clock& b = sdc.clock(sdc.find_clock("b"));
  EXPECT_TRUE(b.add);
  EXPECT_DOUBLE_EQ(b.waveform[0], 2.0);
  EXPECT_DOUBLE_EQ(b.waveform[1], 7.0);
}

TEST_F(ParserTest, VirtualClock) {
  Sdc sdc = parse("create_clock -name vclk -period 8\n");
  EXPECT_TRUE(sdc.clock(sdc.find_clock("vclk")).is_virtual());
}

TEST_F(ParserTest, ClockNamedAfterPort) {
  Sdc sdc = parse("create_clock -period 5 [get_ports clk1]\n");
  EXPECT_TRUE(sdc.find_clock("clk1").valid());
}

TEST_F(ParserTest, DuplicateClockNameThrows) {
  EXPECT_THROW(parse("create_clock -name c -period 1 [get_ports clk1]\n"
                     "create_clock -name c -period 2 [get_ports clk2]\n"),
               Error);
}

TEST_F(ParserTest, GeneratedClock) {
  Sdc sdc = parse(
      "create_clock -name clkA -period 10 [get_ports clk1]\n"
      "create_generated_clock -name gen1 -source [get_ports clk1] "
      "-divide_by 2 [get_pins mux1/Z]\n");
  const Clock& g = sdc.clock(sdc.find_clock("gen1"));
  EXPECT_TRUE(g.is_generated);
  EXPECT_EQ(g.divide_by, 2);
  EXPECT_EQ(g.master_clock, "clkA");
  EXPECT_DOUBLE_EQ(g.period, 20.0);
}

TEST_F(ParserTest, ClockLatencyUncertaintyTransition) {
  Sdc sdc = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_latency 0.5 [get_clocks c]\n"
      "set_clock_latency -source -max 0.7 [get_clocks c]\n"
      "set_clock_uncertainty -setup 0.2 [get_clocks c]\n"
      "set_clock_transition -min 0.1 [get_clocks c]\n");
  ASSERT_EQ(sdc.clock_latencies().size(), 2u);
  EXPECT_FALSE(sdc.clock_latencies()[0].source);
  EXPECT_TRUE(sdc.clock_latencies()[0].minmax.min);
  EXPECT_TRUE(sdc.clock_latencies()[0].minmax.max);
  EXPECT_TRUE(sdc.clock_latencies()[1].source);
  EXPECT_FALSE(sdc.clock_latencies()[1].minmax.min);
  ASSERT_EQ(sdc.clock_uncertainties().size(), 1u);
  EXPECT_TRUE(sdc.clock_uncertainties()[0].setup_hold.setup);
  EXPECT_FALSE(sdc.clock_uncertainties()[0].setup_hold.hold);
  ASSERT_EQ(sdc.clock_transitions().size(), 1u);
}

TEST_F(ParserTest, PropagatedClock) {
  Sdc sdc = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_propagated_clock [get_clocks c]\n");
  EXPECT_TRUE(sdc.clock(ClockId(0u)).propagated);
}

TEST_F(ParserTest, IoDelays) {
  Sdc sdc = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_input_delay 2.0 -clock c [get_ports in1]\n"
      "set_output_delay 1.5 -clock c -add_delay -max [get_ports out1]\n");
  ASSERT_EQ(sdc.port_delays().size(), 2u);
  const PortDelay& in = sdc.port_delays()[0];
  EXPECT_TRUE(in.is_input);
  EXPECT_DOUBLE_EQ(in.value, 2.0);
  EXPECT_TRUE(in.clock.valid());
  const PortDelay& out = sdc.port_delays()[1];
  EXPECT_FALSE(out.is_input);
  EXPECT_TRUE(out.add_delay);
  EXPECT_FALSE(out.minmax.min);
}

TEST_F(ParserTest, IoDelayOnNonPortThrows) {
  EXPECT_THROW(parse("create_clock -name c -period 10 [get_ports clk1]\n"
                     "set_input_delay 1 -clock c [get_pins rA/D]\n"),
               Error);
}

TEST_F(ParserTest, CaseAnalysis) {
  Sdc sdc = parse(
      "set_case_analysis 0 sel1\n"
      "set_case_analysis 1 [get_pins mux1/S]\n");
  ASSERT_EQ(sdc.case_analysis().size(), 2u);
  EXPECT_EQ(sdc.case_value(design.find_pin("sel1")), netlist::Logic::kZero);
  EXPECT_EQ(sdc.case_value(design.find_pin("mux1/S")), netlist::Logic::kOne);
  EXPECT_EQ(sdc.case_value(design.find_pin("sel2")), netlist::Logic::kUnknown);
}

TEST_F(ParserTest, BadCaseValueThrows) {
  EXPECT_THROW(parse("set_case_analysis 2 sel1\n"), Error);
}

TEST_F(ParserTest, DisableTiming) {
  Sdc sdc = parse(
      "set_disable_timing [get_pins and1/A]\n"
      "set_disable_timing [get_cells mux1] -from A -to Z\n");
  ASSERT_EQ(sdc.disables().size(), 2u);
  EXPECT_TRUE(sdc.disables()[0].pin.valid());
  EXPECT_TRUE(sdc.disables()[1].inst.valid());
  EXPECT_NE(sdc.disables()[1].from_lib_pin, UINT32_MAX);
}

TEST_F(ParserTest, Exceptions) {
  Sdc sdc = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -from [get_pins rA/CP] -to [get_pins rY/D]\n"
      "set_multicycle_path 2 -setup -through [get_pins inv1/Z]\n"
      "set_max_delay 5.5 -from [get_clocks c] -to [get_pins rZ/D]\n"
      "set_min_delay 0.5 -to [get_pins rX/D]\n");
  ASSERT_EQ(sdc.exceptions().size(), 4u);
  const Exception& fp = sdc.exceptions()[0];
  EXPECT_EQ(fp.kind, ExceptionKind::kFalsePath);
  ASSERT_EQ(fp.from.pins.size(), 1u);
  ASSERT_EQ(fp.to.pins.size(), 1u);
  const Exception& mcp = sdc.exceptions()[1];
  EXPECT_EQ(mcp.kind, ExceptionKind::kMulticyclePath);
  EXPECT_DOUBLE_EQ(mcp.value, 2.0);
  EXPECT_TRUE(mcp.setup_hold.setup);
  EXPECT_FALSE(mcp.setup_hold.hold);
  ASSERT_EQ(mcp.throughs.size(), 1u);
  const Exception& md = sdc.exceptions()[2];
  ASSERT_EQ(md.from.clocks.size(), 1u);
  EXPECT_EQ(md.from.pins.size(), 0u);
}

TEST_F(ParserTest, MultipleThroughsAreOrdered) {
  Sdc sdc = parse(
      "set_false_path -through [get_pins inv1/Z] -through [get_pins and1/Z]\n");
  const Exception& ex = sdc.exceptions()[0];
  ASSERT_EQ(ex.throughs.size(), 2u);
  EXPECT_EQ(design.pin_name(ex.throughs[0].pins[0]), "inv1/Z");
  EXPECT_EQ(design.pin_name(ex.throughs[1].pins[0]), "and1/Z");
}

TEST_F(ParserTest, PaperShorthandBareBracket) {
  // The paper writes "[and1/Z]" — not a real query command.
  Sdc sdc = parse("set_false_path -through [and1/Z]\n");
  ASSERT_EQ(sdc.exceptions()[0].throughs.size(), 1u);
  EXPECT_EQ(design.pin_name(sdc.exceptions()[0].throughs[0].pins[0]), "and1/Z");
}

TEST_F(ParserTest, ExceptionWithoutAnchorsThrows) {
  EXPECT_THROW(parse("set_false_path\n"), Error);
  EXPECT_THROW(parse("set_multicycle_path 0 -to [get_pins rX/D]\n"), Error);
}

TEST_F(ParserTest, ClockGroups) {
  Sdc sdc = parse(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "create_clock -name b -period 20 [get_ports clk2]\n"
      "set_clock_groups -physically_exclusive -name g1 -group [get_clocks a] "
      "-group [get_clocks b]\n");
  ASSERT_EQ(sdc.clock_groups().size(), 1u);
  EXPECT_TRUE(sdc.clocks_exclusive(ClockId(0u), ClockId(1u)));
  EXPECT_FALSE(sdc.clocks_async(ClockId(0u), ClockId(1u)));
}

TEST_F(ParserTest, ClockGroupsSingleGroupComplement) {
  Sdc sdc = parse(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "create_clock -name b -period 20 [get_ports clk2]\n"
      "set_clock_groups -asynchronous -group [get_clocks a]\n");
  EXPECT_TRUE(sdc.clocks_async(ClockId(0u), ClockId(1u)));
}

TEST_F(ParserTest, ClockSenseStop) {
  Sdc sdc = parse(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "set_clock_sense -stop_propagation -clock [get_clocks a] "
      "[get_pins mux1/Z]\n");
  ASSERT_EQ(sdc.clock_sense_stops().size(), 1u);
  EXPECT_EQ(design.pin_name(sdc.clock_sense_stops()[0].pin), "mux1/Z");
}

TEST_F(ParserTest, DriveAndLoad) {
  Sdc sdc = parse(
      "set_input_transition 0.3 [get_ports in1]\n"
      "set_drive 1.2 [get_ports sel1]\n"
      "set_driving_cell -lib_cell BUF [get_ports sel2]\n"
      "set_load 4.0 [get_ports out1]\n");
  ASSERT_EQ(sdc.drives().size(), 3u);
  EXPECT_TRUE(sdc.drives()[0].is_transition);
  EXPECT_FALSE(sdc.drives()[1].is_transition);
  ASSERT_EQ(sdc.loads().size(), 1u);
  EXPECT_DOUBLE_EQ(sdc.loads()[0].value, 4.0);
}

TEST_F(ParserTest, DesignRules) {
  Sdc sdc = parse(
      "set_max_transition 0.5\n"
      "set_max_transition 0.3 [get_ports in1]\n"
      "set_max_capacitance 2.0 [get_ports out1]\n");
  ASSERT_EQ(sdc.design_rules().size(), 3u);
  EXPECT_FALSE(sdc.design_rules()[0].port_pin.valid());  // design-wide
  EXPECT_DOUBLE_EQ(sdc.design_rules()[0].value, 0.5);
  EXPECT_TRUE(sdc.design_rules()[1].port_pin.valid());
  EXPECT_EQ(sdc.design_rules()[2].kind, DesignRule::Kind::kMaxCapacitance);
}

TEST_F(ParserTest, EnvironmentCommandsAccepted) {
  // Sign-off decks routinely carry these; they must parse as no-ops.
  Sdc sdc = parse(
      "set_units -time ns -capacitance pF\n"
      "set_operating_conditions -max slow_corner\n"
      "set_wire_load_model -name big_wlm\n"
      "set_wire_load_mode enclosed\n"
      "current_design top\n"
      "set_ideal_network [get_ports sel1]\n"
      "set_max_fanout 32 [get_ports in1]\n"
      "create_clock -name c -period 10 [get_ports clk1]\n");
  EXPECT_EQ(sdc.num_clocks(), 1u);  // the real constraint still landed
}

TEST_F(ParserTest, Globbing) {
  Sdc sdc = parse("set_case_analysis 0 [get_ports sel*]\n");
  EXPECT_EQ(sdc.case_analysis().size(), 2u);
}

TEST_F(ParserTest, NoMatchThrows) {
  EXPECT_THROW(parse("set_case_analysis 0 [get_ports nosuch*]\n"), Error);
  EXPECT_THROW(parse("set_case_analysis 0 [get_pins missing/Z]\n"), Error);
}

TEST_F(ParserTest, UnknownCommandThrows) {
  EXPECT_THROW(parse("set_magic_constraint 1\n"), Error);
}

TEST_F(ParserTest, UnknownOptionThrows) {
  EXPECT_THROW(parse("create_clock -name c -period 10 -frobnicate x\n"), Error);
}

TEST_F(ParserTest, ErrorsCarryLineNumbers) {
  try {
    parse("create_clock -name c -period 10 [get_ports clk1]\n"
          "set_case_analysis 5 sel1\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("sdc:2"), std::string::npos)
        << e.what();
  }
}

TEST_F(ParserTest, NonFiniteNumbersThrowWithLine) {
  for (const char* value : {"nan", "NaN", "inf", "-inf", "infinity", "1e400",
                            "-1e400"}) {
    try {
      parse("create_clock -name c -period 10 [get_ports clk1]\n"
            "set_input_delay " + std::string(value) +
            " -clock c [get_ports in1]\n");
      FAIL() << "expected Error for " << value;
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind("sdc:2:", 0), 0u) << msg;
      EXPECT_NE(msg.find(value), std::string::npos) << msg;
    }
  }
  EXPECT_THROW(parse("create_clock -name c -period 10 -waveform {0 nan} "
                     "[get_ports clk1]\n"),
               Error);
}

TEST_F(ParserTest, NonPositiveOrNonFinitePeriodThrows) {
  for (const char* period : {"nan", "0", "-5", "1e400", "-0"}) {
    try {
      parse("create_clock -name c -period " + std::string(period) +
            " [get_ports clk1]\n");
      FAIL() << "expected Error for -period " << period;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("sdc:1:", 0), 0u) << e.what();
    }
  }
  EXPECT_THROW(parse("create_clock -p 0 -name c [get_ports clk1]\n"), Error);
  // Tiny but positive periods stay legal.
  EXPECT_NO_THROW(
      parse("create_clock -name c -period 1e-3 [get_ports clk1]\n"));
}

TEST_F(ParserTest, NegativeValuesAreNotOptions) {
  Sdc sdc = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_input_delay -0.5 -clock c [get_ports in1]\n");
  EXPECT_DOUBLE_EQ(sdc.port_delays()[0].value, -0.5);
}

TEST_F(ParserTest, AllQueries) {
  Sdc sdc = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_input_delay 1 -clock c [all_inputs]\n"
      "set_output_delay 1 -clock c [all_outputs]\n"
      "set_false_path -from [all_registers -clock_pins] -to [get_pins rZ/D]\n");
  // 5 input ports get delays, 1 output port.
  size_t inputs = 0, outputs = 0;
  for (const PortDelay& pd : sdc.port_delays()) {
    (pd.is_input ? inputs : outputs)++;
  }
  EXPECT_EQ(inputs, 5u);
  EXPECT_EQ(outputs, 1u);
  EXPECT_EQ(sdc.exceptions()[0].from.pins.size(), 6u);  // 6 registers
}

}  // namespace
}  // namespace mm::sdc
