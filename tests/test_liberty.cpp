// Liberty reader + boolean function tests: function parsing/evaluation/
// sensitivity, cell interpretation (pins, functions, arcs, ff groups),
// robustness against unknown groups, and an end-to-end STA on a
// Liberty-loaded library.

#include <gtest/gtest.h>

#include "netlist/builder.h"
#include "netlist/function.h"
#include "netlist/liberty.h"
#include "sdc/parser.h"
#include "timing/sta.h"
#include "util/error.h"

namespace mm::netlist {
namespace {

// --- FuncExpr ----------------------------------------------------------------

class FuncTest : public ::testing::Test {
 protected:
  // Pin namespace: A=0, B=1, C=2, S=3.
  FuncExpr parse(const std::string& text) {
    return FuncExpr::parse(text, [](std::string_view name) -> uint32_t {
      if (name == "A") return 0;
      if (name == "B") return 1;
      if (name == "C") return 2;
      if (name == "S") return 3;
      return UINT32_MAX;
    });
  }

  Logic eval(const FuncExpr& f, Logic a, Logic b, Logic c = Logic::kUnknown,
             Logic s = Logic::kUnknown) {
    std::vector<Logic> v{a, b, c, s};
    return f.evaluate(v);
  }
};

TEST_F(FuncTest, Operators) {
  using L = Logic;
  const FuncExpr and2 = parse("A * B");
  EXPECT_EQ(eval(and2, L::kOne, L::kOne), L::kOne);
  EXPECT_EQ(eval(and2, L::kZero, L::kUnknown), L::kZero);
  EXPECT_EQ(eval(and2, L::kOne, L::kUnknown), L::kUnknown);

  const FuncExpr or2 = parse("A + B");
  EXPECT_EQ(eval(or2, L::kZero, L::kZero), L::kZero);
  EXPECT_EQ(eval(or2, L::kUnknown, L::kOne), L::kOne);

  const FuncExpr xor2 = parse("A ^ B");
  EXPECT_EQ(eval(xor2, L::kOne, L::kZero), L::kOne);
  EXPECT_EQ(eval(xor2, L::kOne, L::kUnknown), L::kUnknown);

  const FuncExpr not_pre = parse("!A");
  const FuncExpr not_post = parse("A'");
  EXPECT_EQ(eval(not_pre, L::kOne, L::kUnknown), L::kZero);
  EXPECT_EQ(eval(not_post, L::kOne, L::kUnknown), L::kZero);
}

TEST_F(FuncTest, PrecedenceAndParens) {
  using L = Logic;
  // AND binds tighter than OR: A + B*C.
  const FuncExpr f = parse("A + B * C");
  EXPECT_EQ(eval(f, L::kZero, L::kOne, L::kZero), L::kZero);
  EXPECT_EQ(eval(f, L::kZero, L::kOne, L::kOne), L::kOne);
  const FuncExpr g = parse("(A + B) * C");
  EXPECT_EQ(eval(g, L::kOne, L::kZero, L::kZero), L::kZero);
}

TEST_F(FuncTest, JuxtapositionIsAnd) {
  using L = Logic;
  const FuncExpr f = parse("A B");
  EXPECT_EQ(eval(f, L::kOne, L::kZero), L::kZero);
  EXPECT_EQ(eval(f, L::kOne, L::kOne), L::kOne);
}

TEST_F(FuncTest, MuxExpression) {
  using L = Logic;
  const FuncExpr mux = parse("(A * !S) + (B * S)");
  EXPECT_EQ(eval(mux, L::kOne, L::kZero, L::kUnknown, L::kZero), L::kOne);
  EXPECT_EQ(eval(mux, L::kOne, L::kZero, L::kUnknown, L::kOne), L::kZero);
  // Unknown select, equal inputs: plain ternary evaluation cannot prove
  // the output (that is exactly why depends_on() exists).
  EXPECT_EQ(eval(mux, L::kOne, L::kOne, L::kUnknown, L::kUnknown), L::kUnknown);
}

TEST_F(FuncTest, DependsOnIsExact) {
  using L = Logic;
  const FuncExpr mux = parse("(A * !S) + (B * S)");
  // S=1: A cannot affect the output even though B is unknown.
  std::vector<L> v{L::kUnknown, L::kUnknown, L::kUnknown, L::kOne};
  EXPECT_FALSE(mux.depends_on(0, v));
  EXPECT_TRUE(mux.depends_on(1, v));
  // Unknown select: both data inputs can matter.
  v[3] = L::kUnknown;
  EXPECT_TRUE(mux.depends_on(0, v));
  // S never appears blocked unless A==B constants.
  v[0] = L::kOne;
  v[1] = L::kOne;
  EXPECT_FALSE(mux.depends_on(3, v));
  v[1] = L::kZero;
  EXPECT_TRUE(mux.depends_on(3, v));
}

TEST_F(FuncTest, SupportAndUnknownPin) {
  const FuncExpr f = parse("A * C");
  EXPECT_EQ(f.support(), (std::vector<uint32_t>{0, 2}));
  EXPECT_THROW(parse("A * NOPE"), Error);
  EXPECT_THROW(parse("A *"), Error);
  EXPECT_THROW(parse("(A"), Error);
}

// --- Liberty reader -------------------------------------------------------------

const char* kLib = R"lib(
/* test library */
library (testlib) {
  time_unit : "1ns";
  cell (ND2) {
    area : 1.0;
    pin (A) { direction : input; capacitance : 1.1; }
    pin (B) { direction : input; capacitance : 1.2; }
    pin (Y) {
      direction : output;
      function : "!(A * B)";
      timing () {
        related_pin : "A";
        timing_sense : negative_unate;
        cell_rise (tmpl) { values ("0.10, 0.20", "0.30, 0.40"); }
        cell_fall (tmpl) { values ("0.20, 0.30", "0.40, 0.50"); }
      }
      timing () {
        related_pin : "B";
        timing_sense : negative_unate;
        cell_rise (tmpl) { values ("0.12"); }
      }
    }
  }
  cell (MX2) {
    pin (A) { direction : input; }
    pin (B) { direction : input; }
    pin (S) { direction : input; }
    pin (Y) { direction : output; function : "(A !S) + (B S)"; }
  }
  cell (DFFX) {
    ff (IQ, IQN) { clocked_on : "CK"; next_state : "D"; }
    pin (CK) { direction : input; clock : true; }
    pin (D) {
      direction : input;
      timing () {
        related_pin : "CK";
        timing_type : setup_rising;
        rise_constraint (tmpl) { values ("0.08"); }
      }
      timing () {
        related_pin : "CK";
        timing_type : hold_rising;
        rise_constraint (tmpl) { values ("0.02"); }
      }
    }
    pin (Q) {
      direction : output;
      function : "IQ";
      timing () {
        related_pin : "CK";
        timing_type : rising_edge;
        cell_rise (tmpl) { values ("0.50"); }
      }
    }
  }
  cell (WEIRD) {
    unknown_group (x) { some_attr : 3; nested () { a : b; } }
    pin (A) { direction : input; }
    pin (Y) { direction : output; function : "!A"; }
  }
}
)lib";

TEST(LibertyTest, ParsesCells) {
  const Library lib = read_liberty(kLib);
  EXPECT_EQ(lib.num_cells(), 4u);
  EXPECT_TRUE(lib.find_cell("ND2").valid());
  EXPECT_TRUE(lib.find_cell("DFFX").valid());
}

TEST(LibertyTest, CombinationalCell) {
  const Library lib = read_liberty(kLib);
  const LibCell& nd2 = lib.cell(lib.find_cell("ND2"));
  EXPECT_FALSE(nd2.is_sequential());
  EXPECT_EQ(nd2.pins().size(), 3u);
  EXPECT_DOUBLE_EQ(nd2.pins()[nd2.pin_index("A")].cap, 1.1);

  // Function: NAND. 0 on A is controlling.
  std::vector<Logic> v{Logic::kZero, Logic::kUnknown, Logic::kUnknown};
  EXPECT_EQ(nd2.evaluate(v), Logic::kOne);
  EXPECT_FALSE(nd2.input_affects_output(nd2.pin_index("B"), v));

  // Arcs: two combinational, delay = mean of table values.
  ASSERT_EQ(nd2.arcs().size(), 2u);
  EXPECT_EQ(nd2.arcs()[0].kind, ArcKind::kCombinational);
  EXPECT_EQ(nd2.arcs()[0].sense, TimingSense::kNegative);
  EXPECT_NEAR(nd2.arcs()[0].intrinsic, 0.3, 1e-9);  // mean of 8 values
  EXPECT_NEAR(nd2.arcs()[1].intrinsic, 0.12, 1e-9);
}

TEST(LibertyTest, MuxFunctionSensitivity) {
  const Library lib = read_liberty(kLib);
  const LibCell& mx2 = lib.cell(lib.find_cell("MX2"));
  // No timing blocks: arcs synthesized from the function support.
  EXPECT_EQ(mx2.arcs().size(), 3u);
  std::vector<Logic> v{Logic::kUnknown, Logic::kUnknown, Logic::kUnknown,
                       Logic::kUnknown};
  v[mx2.pin_index("S")] = Logic::kOne;
  EXPECT_FALSE(mx2.input_affects_output(mx2.pin_index("A"), v));
  EXPECT_TRUE(mx2.input_affects_output(mx2.pin_index("B"), v));
}

TEST(LibertyTest, SequentialCell) {
  const Library lib = read_liberty(kLib);
  const LibCell& dff = lib.cell(lib.find_cell("DFFX"));
  EXPECT_TRUE(dff.is_sequential());
  EXPECT_TRUE(dff.pins()[dff.pin_index("CK")].is_clock);
  size_t launch = 0, checks = 0;
  for (const LibArc& arc : dff.arcs()) {
    if (arc.kind == ArcKind::kLaunch) {
      ++launch;
      EXPECT_NEAR(arc.intrinsic, 0.5, 1e-9);
    }
    if (arc.kind == ArcKind::kSetupHold) {
      ++checks;
      EXPECT_NEAR(arc.intrinsic, 0.08, 1e-9);
    }
  }
  EXPECT_EQ(launch, 1u);
  EXPECT_EQ(checks, 1u);
  // Q is a sequential boundary despite carrying a function attr.
  std::vector<Logic> v(dff.pins().size(), Logic::kZero);
  EXPECT_EQ(dff.evaluate(v), Logic::kUnknown);
}

TEST(LibertyTest, UnknownGroupsSkipped) {
  const Library lib = read_liberty(kLib);
  EXPECT_TRUE(lib.find_cell("WEIRD").valid());
}

TEST(LibertyTest, SyntaxErrors) {
  EXPECT_THROW(read_liberty("not_a_library () {}"), Error);
  EXPECT_THROW(read_liberty("library (x) { cell (c) { pin (p) { } }"), Error);
  EXPECT_THROW(read_liberty("library (x) { }"), Error);  // no cells
  // Argument loops that meet a delimiter must fail, not spin.
  EXPECT_THROW(read_liberty("library (x) { cell (a) { values ( }"), Error);
  EXPECT_THROW(read_liberty("library (x) { cell (a { }"), Error);
  EXPECT_THROW(read_liberty("library (x { }"), Error);
}

TEST(LibertyTest, EndToEndStaOnLibertyLibrary) {
  const Library lib = read_liberty(kLib);
  Design design("t", &lib);
  Builder b(&design);
  b.input("ck");
  b.input("d");
  b.output("q");
  b.inst("DFFX", "r0", {{"D", "d"}, {"CK", "ck"}, {"Q", "q0"}});
  b.inst("ND2", "g0", {{"A", "q0"}, {"B", "q0"}, {"Y", "n0"}});
  b.inst("DFFX", "r1", {{"D", "n0"}, {"CK", "ck"}, {"Q", "q"}});

  timing::TimingGraph graph(design);
  EXPECT_TRUE(graph.is_startpoint(design.find_pin("r0/CK")));
  EXPECT_TRUE(graph.is_endpoint(design.find_pin("r1/D")));

  const sdc::Sdc sdc =
      sdc::parse_sdc("create_clock -name c -period 5 [get_ports ck]\n", design);
  const timing::StaResult result = timing::run_sta(graph, sdc, true);
  ASSERT_EQ(result.endpoint_slack.count(design.find_pin("r1/D").value()), 1u);
  EXPECT_GT(result.endpoint_slack.at(design.find_pin("r1/D").value()), 0.0f);
  EXPECT_DOUBLE_EQ(result.wns, 0.0);
}

}  // namespace
}  // namespace mm::netlist
