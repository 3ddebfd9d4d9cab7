// SDC writer round-trip tests: write_sdc output re-parses to an equivalent
// constraint set.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "gen/paper_circuit.h"
#include "sdc/parser.h"
#include "sdc/writer.h"

namespace mm::sdc {
namespace {

class WriterTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);

  /// Parse, write, re-parse; returns the round-tripped Sdc.
  Sdc round_trip(const std::string& text, std::string* emitted = nullptr) {
    const Sdc first = parse_sdc(text, design);
    const std::string out = write_sdc(first);
    if (emitted) *emitted = out;
    return parse_sdc(out, design);
  }
};

TEST_F(WriterTest, Clocks) {
  const Sdc sdc = round_trip(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "create_clock -name b -period 20 -waveform {5 15} -add "
      "[get_ports clk1]\n"
      "create_clock -name v -period 4\n");
  ASSERT_EQ(sdc.num_clocks(), 3u);
  EXPECT_DOUBLE_EQ(sdc.clock(sdc.find_clock("b")).waveform[0], 5.0);
  EXPECT_TRUE(sdc.clock(sdc.find_clock("b")).add);
  EXPECT_TRUE(sdc.clock(sdc.find_clock("v")).is_virtual());
}

// Values past the sixth significant digit survive write + parse bit for
// bit: the writer prints the shortest text that parses back to the same
// double.
TEST_F(WriterTest, ValuesRoundTripBitwise) {
  std::string emitted;
  const Sdc sdc = round_trip(
      "create_clock -name a -period 3.3333333 [get_ports clk1]\n"
      "set_clock_latency -min 0.1234561 [get_clocks a]\n"
      "set_clock_latency -max 0.1234564 [get_clocks a]\n",
      &emitted);
  EXPECT_NE(emitted.find("-period 3.3333333 "), std::string::npos) << emitted;
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  EXPECT_EQ(bits(sdc.clock(sdc.find_clock("a")).period), bits(3.3333333));
  ASSERT_EQ(sdc.clock_latencies().size(), 2u);
  EXPECT_EQ(bits(sdc.clock_latencies()[0].value), bits(0.1234561));
  EXPECT_EQ(bits(sdc.clock_latencies()[1].value), bits(0.1234564));

  // A value that six significant digits already print exactly keeps the
  // %g text it always had.
  round_trip(
      "create_clock -name b -period 100000 [get_ports clk1]\n"
      "set_clock_uncertainty 0.0005 [get_clocks b]\n",
      &emitted);
  EXPECT_NE(emitted.find("-period 100000 "), std::string::npos) << emitted;
  EXPECT_NE(emitted.find(" 0.0005 "), std::string::npos) << emitted;
}

TEST_F(WriterTest, GeneratedClockAndPropagated) {
  const Sdc sdc = round_trip(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "set_propagated_clock [get_clocks a]\n"
      "create_generated_clock -name g -source [get_ports clk1] -divide_by 2 "
      "[get_pins mux1/Z]\n");
  EXPECT_TRUE(sdc.clock(sdc.find_clock("a")).propagated);
  const Clock& g = sdc.clock(sdc.find_clock("g"));
  EXPECT_TRUE(g.is_generated);
  EXPECT_EQ(g.divide_by, 2);
}

TEST_F(WriterTest, ClockAttributes) {
  const Sdc sdc = round_trip(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "set_clock_latency -min 0.4 [get_clocks a]\n"
      "set_clock_latency -source -max 0.9 [get_clocks a]\n"
      "set_clock_uncertainty -hold 0.1 [get_clocks a]\n"
      "set_clock_transition -max 0.2 [get_clocks a]\n");
  ASSERT_EQ(sdc.clock_latencies().size(), 2u);
  EXPECT_DOUBLE_EQ(sdc.clock_latencies()[0].value, 0.4);
  EXPECT_TRUE(sdc.clock_latencies()[1].source);
  ASSERT_EQ(sdc.clock_uncertainties().size(), 1u);
  EXPECT_FALSE(sdc.clock_uncertainties()[0].setup_hold.setup);
  ASSERT_EQ(sdc.clock_transitions().size(), 1u);
}

TEST_F(WriterTest, IoDelaysCaseDisables) {
  const Sdc sdc = round_trip(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "set_input_delay 2 -clock a [get_ports in1]\n"
      "set_output_delay 1 -clock a -add_delay -min [get_ports out1]\n"
      "set_case_analysis 1 sel1\n"
      "set_disable_timing [get_pins and1/A]\n"
      "set_disable_timing [get_cells mux1] -from S -to Z\n");
  ASSERT_EQ(sdc.port_delays().size(), 2u);
  EXPECT_TRUE(sdc.port_delays()[1].add_delay);
  EXPECT_FALSE(sdc.port_delays()[1].minmax.max);
  ASSERT_EQ(sdc.case_analysis().size(), 1u);
  ASSERT_EQ(sdc.disables().size(), 2u);
  EXPECT_NE(sdc.disables()[1].from_lib_pin, UINT32_MAX);
}

TEST_F(WriterTest, Exceptions) {
  std::string emitted;
  const Sdc sdc = round_trip(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "set_false_path -from [get_pins rA/CP] -through [get_pins inv1/Z] "
      "-to [get_pins rX/D]\n"
      "set_multicycle_path 3 -setup -from [get_clocks a] -to [get_pins rY/D]\n"
      "set_max_delay 7 -to [get_pins rZ/D]\n",
      &emitted);
  ASSERT_EQ(sdc.exceptions().size(), 3u);
  EXPECT_EQ(sdc.exceptions()[0].kind, ExceptionKind::kFalsePath);
  EXPECT_EQ(sdc.exceptions()[0].throughs.size(), 1u);
  EXPECT_EQ(sdc.exceptions()[1].kind, ExceptionKind::kMulticyclePath);
  EXPECT_DOUBLE_EQ(sdc.exceptions()[1].value, 3.0);
  EXPECT_EQ(sdc.exceptions()[1].from.clocks.size(), 1u);
  EXPECT_NE(emitted.find("set_multicycle_path 3 -setup"), std::string::npos)
      << emitted;
}

TEST_F(WriterTest, ClockGroupsAndSense) {
  const Sdc sdc = round_trip(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "create_clock -name b -period 20 [get_ports clk2]\n"
      "set_clock_groups -physically_exclusive -name x -group [get_clocks a] "
      "-group [get_clocks b]\n"
      "set_clock_sense -stop_propagation -clock [get_clocks a] "
      "[get_pins mux1/Z]\n");
  EXPECT_TRUE(sdc.clocks_exclusive(ClockId(0u), ClockId(1u)));
  ASSERT_EQ(sdc.clock_sense_stops().size(), 1u);
}

TEST_F(WriterTest, DriveLoad) {
  const Sdc sdc = round_trip(
      "set_input_transition -max 0.25 [get_ports in1]\n"
      "set_drive 2 [get_ports sel1]\n"
      "set_load 3.5 [get_ports out1]\n");
  ASSERT_EQ(sdc.drives().size(), 2u);
  EXPECT_FALSE(sdc.drives()[0].minmax.min);
  ASSERT_EQ(sdc.loads().size(), 1u);
}

TEST_F(WriterTest, DesignRules) {
  const Sdc sdc = round_trip(
      "set_max_transition 0.4\n"
      "set_max_capacitance 1.5 [get_ports out1]\n");
  ASSERT_EQ(sdc.design_rules().size(), 2u);
  EXPECT_DOUBLE_EQ(sdc.design_rules()[0].value, 0.4);
  EXPECT_FALSE(sdc.design_rules()[0].port_pin.valid());
  EXPECT_TRUE(sdc.design_rules()[1].port_pin.valid());
}

TEST_F(WriterTest, MultiPinAnchorUsesListForm) {
  std::string emitted;
  const Sdc sdc = round_trip(
      "set_false_path -through [get_pins {inv1/Z and1/Z}]\n", &emitted);
  ASSERT_EQ(sdc.exceptions().size(), 1u);
  EXPECT_EQ(sdc.exceptions()[0].throughs[0].pins.size(), 2u);
  EXPECT_NE(emitted.find("[list "), std::string::npos) << emitted;
}

}  // namespace
}  // namespace mm::sdc
