// Unit tests for exception compilation and matching: anchor
// canonicalization, through progress, precedence, setup/hold sides.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "gen/paper_circuit.h"
#include "sdc/parser.h"
#include "timing/exceptions.h"

namespace mm::timing {
namespace {

class ExceptionsTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);
  TimingGraph graph{design};

  CompiledExceptions compile(const std::string& text) {
    sdc_ = std::make_unique<sdc::Sdc>(sdc::parse_sdc(text, design));
    return CompiledExceptions(graph, *sdc_);
  }

  PinId pin(const char* name) { return design.find_pin(name); }

  /// Walk a path given as pin names and resolve the state.
  PathState walk(const CompiledExceptions& ce,
                 std::initializer_list<const char*> path,
                 sdc::ClockId launch = sdc::ClockId(),
                 sdc::ClockId capture = sdc::ClockId()) {
    auto it = path.begin();
    std::vector<uint8_t> progress = ce.initial_progress(pin(*it), launch);
    PinId last = pin(*it);
    for (++it; it != path.end(); ++it) {
      last = pin(*it);
      if (!progress.empty()) ce.advance(progress, last);
    }
    return ce.resolve(progress, launch, last, capture, /*setup_side=*/true);
  }

  std::unique_ptr<sdc::Sdc> sdc_;
};

TEST_F(ExceptionsTest, PureToIsUntracked) {
  CompiledExceptions ce = compile("set_false_path -to [get_pins rX/D]\n");
  EXPECT_EQ(ce.num_tracked(), 0u);
  EXPECT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"}).kind,
            StateKind::kFalsePath);
  EXPECT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "and1/A", "and1/Z",
                      "inv2/A", "inv2/Z", "rY/D"})
                .kind,
            StateKind::kValid);
}

TEST_F(ExceptionsTest, FromPinIsTracked) {
  CompiledExceptions ce = compile("set_false_path -from [get_pins rA/CP]\n");
  EXPECT_EQ(ce.num_tracked(), 1u);
  EXPECT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"}).kind,
            StateKind::kFalsePath);
  EXPECT_EQ(walk(ce, {"rB/CP", "rB/Q", "and1/B", "and1/Z", "inv2/A", "inv2/Z",
                      "rY/D"})
                .kind,
            StateKind::kValid);
}

TEST_F(ExceptionsTest, FromQPinCanonicalizesToClockPin) {
  // -from rA/Q means "paths starting at register rA".
  CompiledExceptions ce = compile("set_false_path -from [get_pins rA/Q]\n");
  EXPECT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"}).kind,
            StateKind::kFalsePath);
}

TEST_F(ExceptionsTest, ToCpPinCanonicalizesToDataPins) {
  CompiledExceptions ce = compile("set_false_path -to [get_pins rX/CP]\n");
  EXPECT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"}).kind,
            StateKind::kFalsePath);
}

TEST_F(ExceptionsTest, ThroughProgressInOrder) {
  CompiledExceptions ce = compile(
      "set_false_path -through [get_pins inv1/Z] -through [get_pins and1/Z]\n");
  // Path through both, in order: matches.
  EXPECT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "and1/A", "and1/Z",
                      "inv2/A", "inv2/Z", "rY/D"})
                .kind,
            StateKind::kFalsePath);
  // Path through only the first: no match.
  EXPECT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"}).kind,
            StateKind::kValid);
  // Path through only the second: no match.
  EXPECT_EQ(walk(ce, {"rB/CP", "rB/Q", "and1/B", "and1/Z", "inv2/A", "inv2/Z",
                      "rY/D"})
                .kind,
            StateKind::kValid);
}

TEST_F(ExceptionsTest, FalsePathOverridesMulticycle) {
  // The paper's Constraint Set 1 precedence example.
  CompiledExceptions ce = compile(
      "set_multicycle_path 2 -through [get_pins inv1/Z]\n"
      "set_false_path -through [get_pins and1/Z]\n");
  // Path (ii) matches both: FP wins.
  EXPECT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "and1/A", "and1/Z",
                      "inv2/A", "inv2/Z", "rY/D"})
                .kind,
            StateKind::kFalsePath);
  // Path (i) matches only the MCP.
  const PathState s = walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"});
  EXPECT_EQ(s.kind, StateKind::kMcp);
  EXPECT_FLOAT_EQ(s.value, 2.0f);
}

TEST_F(ExceptionsTest, MaxDelayOverridesMcp) {
  CompiledExceptions ce = compile(
      "set_multicycle_path 2 -to [get_pins rX/D]\n"
      "set_max_delay 3.5 -to [get_pins rX/D]\n");
  const PathState s = walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"});
  EXPECT_EQ(s.kind, StateKind::kMaxDelay);
  EXPECT_FLOAT_EQ(s.value, 3.5f);
}

TEST_F(ExceptionsTest, SpecificityBreaksTies) {
  CompiledExceptions ce = compile(
      "set_multicycle_path 2 -to [get_pins rX/D]\n"
      "set_multicycle_path 4 -from [get_pins rA/CP] -to [get_pins rX/D]\n");
  const PathState s = walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"});
  EXPECT_FLOAT_EQ(s.value, 4.0f);  // -from -to beats -to
}

TEST_F(ExceptionsTest, LaterDefinitionWinsOnEqualSpecificity) {
  CompiledExceptions ce = compile(
      "set_multicycle_path 2 -to [get_pins rX/D]\n"
      "set_multicycle_path 3 -to [get_pins rX/D]\n");
  EXPECT_FLOAT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"}).value,
                  3.0f);
}

TEST_F(ExceptionsTest, FromClockMatching) {
  CompiledExceptions ce = compile(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "create_clock -name b -period 20 [get_ports clk2]\n"
      "set_false_path -from [get_clocks a] -to [get_pins rY/D]\n");
  const sdc::ClockId a = sdc_->find_clock("a");
  const sdc::ClockId b = sdc_->find_clock("b");
  EXPECT_EQ(ce.num_tracked(), 0u);  // clock-only from: endpoint-resolvable
  EXPECT_EQ(walk(ce,
                 {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "and1/A", "and1/Z",
                  "inv2/A", "inv2/Z", "rY/D"},
                 a, a)
                .kind,
            StateKind::kFalsePath);
  EXPECT_EQ(walk(ce,
                 {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "and1/A", "and1/Z",
                  "inv2/A", "inv2/Z", "rY/D"},
                 b, b)
                .kind,
            StateKind::kValid);
}

TEST_F(ExceptionsTest, ToClockMatchesCapture) {
  CompiledExceptions ce = compile(
      "create_clock -name a -period 10 [get_ports clk1]\n"
      "create_clock -name b -period 20 [get_ports clk2]\n"
      "set_false_path -to [get_clocks b]\n");
  const sdc::ClockId a = sdc_->find_clock("a");
  const sdc::ClockId b = sdc_->find_clock("b");
  EXPECT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"}, a, b).kind,
            StateKind::kFalsePath);
  EXPECT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"}, a, a).kind,
            StateKind::kValid);
}

TEST_F(ExceptionsTest, SetupHoldSides) {
  CompiledExceptions ce = compile(
      "set_false_path -setup -to [get_pins rX/D]\n"
      "set_min_delay 1 -to [get_pins rY/D]\n"
      "set_max_delay 9 -to [get_pins rZ/D]\n");
  // -setup FP invisible on hold side.
  std::vector<uint8_t> none;
  EXPECT_EQ(
      ce.resolve(none, sdc::ClockId(), pin("rX/D"), sdc::ClockId(), true).kind,
      StateKind::kFalsePath);
  EXPECT_EQ(
      ce.resolve(none, sdc::ClockId(), pin("rX/D"), sdc::ClockId(), false).kind,
      StateKind::kValid);
  // min_delay applies to hold side only.
  EXPECT_EQ(
      ce.resolve(none, sdc::ClockId(), pin("rY/D"), sdc::ClockId(), true).kind,
      StateKind::kValid);
  EXPECT_EQ(
      ce.resolve(none, sdc::ClockId(), pin("rY/D"), sdc::ClockId(), false).kind,
      StateKind::kMinDelay);
  // max_delay applies to setup side only.
  EXPECT_EQ(
      ce.resolve(none, sdc::ClockId(), pin("rZ/D"), sdc::ClockId(), true).kind,
      StateKind::kMaxDelay);
  EXPECT_EQ(
      ce.resolve(none, sdc::ClockId(), pin("rZ/D"), sdc::ClockId(), false).kind,
      StateKind::kValid);
}

TEST_F(ExceptionsTest, StartpointSatisfiesFirstThrough) {
  CompiledExceptions ce =
      compile("set_false_path -through [get_pins rA/CP] -to [get_pins rX/D]\n");
  EXPECT_EQ(walk(ce, {"rA/CP", "rA/Q", "inv1/A", "inv1/Z", "rX/D"}).kind,
            StateKind::kFalsePath);
  EXPECT_EQ(walk(ce, {"rB/CP", "rB/Q", "and1/B", "and1/Z", "inv2/A", "inv2/Z",
                      "rY/D"})
                .kind,
            StateKind::kValid);
}

// --- the CSR through index against a per-pin oracle --------------------------

/// Each pin's (exception, through set) pairs as the index was built before
/// its CSR layout: one vector per pin, pushed in exception order.
void expect_throughs_match_oracle(const TimingGraph& graph,
                                  const CompiledExceptions& ce,
                                  size_t min_entries) {
  std::vector<std::vector<std::pair<uint32_t, uint8_t>>> oracle(
      graph.num_nodes());
  for (uint32_t e = 0; e < ce.size(); ++e) {
    const CompiledException& ex = ce.at(e);
    for (uint8_t k = 0; k < ex.throughs.size(); ++k) {
      for (uint32_t pin : ex.throughs[k]) oracle[pin].push_back({e, k});
    }
  }
  size_t entries = 0;
  for (size_t p = 0; p < oracle.size(); ++p) {
    const auto got = ce.throughs_at(PinId(p));
    ASSERT_TRUE(
        std::equal(got.begin(), got.end(), oracle[p].begin(), oracle[p].end()))
        << "throughs_at pin " << p;
    entries += got.size();
  }
  EXPECT_GE(entries, min_entries);
}

TEST_F(ExceptionsTest, ThroughIndexMatchesPerPinOracleOnPaperCircuit) {
  // No -through at all: every pin's run is empty.
  expect_throughs_match_oracle(
      graph, compile("set_false_path -from [get_pins rA/CP]\n"), 0);
  // Several exceptions share through pins, one has two through sets.
  expect_throughs_match_oracle(
      graph,
      compile("set_false_path -through [get_pins inv1/Z]\n"
              "set_multicycle_path 2 -through [get_pins {inv1/Z and1/Z}] "
              "-through [get_pins inv2/Z]\n"
              "set_max_delay 3 -through [get_pins and1/Z] -to rY/D\n"),
      5);
}

TEST(ExceptionsCsrTest, ThroughIndexMatchesPerPinOracleOnGeneratedDesign) {
  const netlist::Library lib = netlist::Library::builtin();
  gen::DesignParams dp;
  dp.seed = 9;
  dp.num_regs = 120;
  const netlist::Design design = gen::generate_design(lib, dp);
  const TimingGraph graph(design);
  gen::ModeFamilyParams mp;
  mp.seed = 9;
  mp.num_modes = 6;
  mp.target_groups = 2;
  mp.group_mcps = 4;
  mp.mode_fps = 6;
  size_t with_throughs = 0;
  for (const gen::GeneratedMode& gm : gen::generate_mode_family(dp, mp)) {
    SCOPED_TRACE(gm.name);
    const sdc::Sdc sdc = sdc::parse_sdc(gm.sdc_text, design);
    const CompiledExceptions ce(graph, sdc);
    expect_throughs_match_oracle(graph, ce, 0);
    for (PinId p(0u); p.index() < graph.num_nodes(); p = PinId(p.value() + 1)) {
      if (!ce.throughs_at(p).empty()) {
        ++with_throughs;
        break;
      }
    }
  }
  EXPECT_GT(with_throughs, 0u);  // the family does exercise -through
}

}  // namespace
}  // namespace mm::timing
