// Unit tests for relationship (tag) propagation: per-endpoint state sets,
// startpoint tracking, cones, clock exclusivity, arrivals.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/paper_circuit.h"
#include "sdc/parser.h"
#include "timing/relationships.h"

namespace mm::timing {
namespace {

class RelTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);
  TimingGraph graph{design};

  void load(const std::string& text) {
    sdc_ = std::make_unique<sdc::Sdc>(sdc::parse_sdc(text, design));
    mode_ = std::make_unique<ModeGraph>(graph, *sdc_);
    exceptions_ = std::make_unique<CompiledExceptions>(graph, *sdc_);
  }

  RelationTable run(PropagationOptions opts = {}) {
    Propagator prop(*mode_, *exceptions_);
    prop.run(opts);
    return prop.relations();
  }

  PinId pin(const char* name) { return design.find_pin(name); }

  /// State set at (endpoint, launch, capture) with invalid startpoint.
  const StateSet* states(const RelationTable& rel, const char* endpoint,
                         const char* launch, const char* capture,
                         const char* startpoint = nullptr) {
    RelationKey key;
    key.endpoint = pin(endpoint);
    key.startpoint = startpoint ? pin(startpoint) : PinId();
    key.launch = sdc_->find_clock(launch);
    key.capture = sdc_->find_clock(capture);
    const RelationData* data = rel.find(key);
    return data ? &data->states : nullptr;
  }

  std::unique_ptr<sdc::Sdc> sdc_;
  std::unique_ptr<ModeGraph> mode_;
  std::unique_ptr<CompiledExceptions> exceptions_;
};

TEST_F(RelTest, Table1Relationships) {
  // Paper Table 1 from Constraint Set 1.
  load(gen::constraint_sets::kSet1);
  const RelationTable rel = run();

  const StateSet* rx = states(rel, "rX/D", "clkA", "clkA");
  ASSERT_NE(rx, nullptr);
  ASSERT_EQ(rx->size(), 1u);
  EXPECT_EQ((*rx)[0], PathState::mcp(2));

  const StateSet* ry = states(rel, "rY/D", "clkA", "clkA");
  ASSERT_NE(ry, nullptr);
  ASSERT_EQ(ry->size(), 1u);
  EXPECT_EQ((*ry)[0], PathState::false_path());  // FP overrides MCP

  const StateSet* rz = states(rel, "rZ/D", "clkA", "clkA");
  ASSERT_NE(rz, nullptr);
  ASSERT_EQ(rz->size(), 1u);
  EXPECT_EQ((*rz)[0], PathState::valid());
}

TEST_F(RelTest, MixedStatesAtEndpoint) {
  // FP only on the rA-side paths: rY/D collects both FP and V.
  load(
      "create_clock -name clkA -period 10 [get_ports clk1]\n"
      "set_false_path -from [get_pins rA/CP]\n");
  const RelationTable rel = run();
  const StateSet* ry = states(rel, "rY/D", "clkA", "clkA");
  ASSERT_NE(ry, nullptr);
  EXPECT_EQ(ry->size(), 2u);
  EXPECT_TRUE(ry->contains(PathState::false_path()));
  EXPECT_TRUE(ry->contains(PathState::valid()));
}

TEST_F(RelTest, StartpointTracking) {
  load(
      "create_clock -name clkA -period 10 [get_ports clk1]\n"
      "set_false_path -from [get_pins rA/CP]\n");
  PropagationOptions opts;
  opts.track_startpoints = true;
  const RelationTable rel = run(opts);

  const StateSet* from_a = states(rel, "rY/D", "clkA", "clkA", "rA/CP");
  ASSERT_NE(from_a, nullptr);
  ASSERT_TRUE(from_a->singleton());
  EXPECT_EQ((*from_a)[0], PathState::false_path());

  const StateSet* from_b = states(rel, "rY/D", "clkA", "clkA", "rB/CP");
  ASSERT_NE(from_b, nullptr);
  ASSERT_TRUE(from_b->singleton());
  EXPECT_EQ((*from_b)[0], PathState::valid());
}

TEST_F(RelTest, ExclusiveClockPairsAreFalse) {
  load(
      "create_clock -name a -period 2 [get_ports clk1]\n"
      "create_clock -name b -period 1 -add [get_ports clk1]\n"
      "set_clock_groups -physically_exclusive -group [get_clocks a] "
      "-group [get_clocks b]\n");
  const RelationTable rel = run();
  const StateSet* cross = states(rel, "rA/D", "a", "b");
  // rA is clocked by both a and b; in1 has no delay so rA/D sees no tags —
  // use a register-to-register endpoint instead.
  (void)cross;
  const StateSet* xab = states(rel, "rX/D", "a", "b");
  ASSERT_NE(xab, nullptr);
  EXPECT_EQ((*xab)[0], PathState::false_path());
  const StateSet* xaa = states(rel, "rX/D", "a", "a");
  ASSERT_NE(xaa, nullptr);
  EXPECT_EQ((*xaa)[0], PathState::valid());
}

TEST_F(RelTest, AsyncGroupsNotTimed) {
  load(
      "create_clock -name a -period 2 [get_ports clk1]\n"
      "create_clock -name b -period 1 -add [get_ports clk1]\n"
      "set_clock_groups -asynchronous -group [get_clocks a] "
      "-group [get_clocks b]\n");
  const RelationTable rel = run();
  const StateSet* xab = states(rel, "rX/D", "a", "b");
  ASSERT_NE(xab, nullptr);
  EXPECT_EQ((*xab)[0], PathState::false_path());
}

TEST_F(RelTest, InputDelayCreatesPortTags) {
  load(
      "create_clock -name clkA -period 10 [get_ports clk1]\n"
      "set_input_delay 2.5 -clock clkA [get_ports in1]\n");
  const RelationTable rel = run();
  const StateSet* ra = states(rel, "rA/D", "clkA", "clkA");
  ASSERT_NE(ra, nullptr);
  EXPECT_EQ((*ra)[0], PathState::valid());
}

TEST_F(RelTest, OutputPortEndpoint) {
  load(
      "create_clock -name clkA -period 10 [get_ports clk1]\n"
      "set_output_delay 1.0 -clock clkA [get_ports out1]\n");
  const RelationTable rel = run();
  const StateSet* out = states(rel, "out1", "clkA", "clkA");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ((*out)[0], PathState::valid());
}

TEST_F(RelTest, ArrivalsAndSlacks) {
  load(
      "create_clock -name clkA -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.5 [get_clocks clkA]\n");
  Propagator prop(*mode_, *exceptions_);
  PropagationOptions opts;
  prop.run(opts);
  const auto slacks = prop.worst_slack_by_endpoint();
  // rX/D: launch at CP->Q (0.6 + load slope) + inv1 + net hops; well under
  // period 10 minus uncertainty minus setup.
  auto it = slacks.find(pin("rX/D").value());
  ASSERT_NE(it, slacks.end());
  EXPECT_GT(it->second, 5.0);
  EXPECT_LT(it->second, 10.0);
}

TEST_F(RelTest, TightClockViolates) {
  load("create_clock -name fast -period 0.5 [get_ports clk1]\n");
  Propagator prop(*mode_, *exceptions_);
  prop.run({});
  const auto slacks = prop.worst_slack_by_endpoint();
  auto it = slacks.find(pin("rY/D").value());
  ASSERT_NE(it, slacks.end());
  EXPECT_LT(it->second, 0.0);  // three gate levels cannot make 0.5
}

TEST_F(RelTest, McpRelaxesRequiredTime) {
  load("create_clock -name c -period 3 [get_ports clk1]\n");
  Propagator base(*mode_, *exceptions_);
  base.run({});
  const float slack_base =
      base.worst_slack_by_endpoint().at(pin("rY/D").value());

  load(
      "create_clock -name c -period 3 [get_ports clk1]\n"
      "set_multicycle_path 2 -to [get_pins rY/D]\n");
  Propagator mcp(*mode_, *exceptions_);
  mcp.run({});
  const float slack_mcp = mcp.worst_slack_by_endpoint().at(pin("rY/D").value());
  EXPECT_NEAR(slack_mcp - slack_base, 3.0, 1e-4);  // one extra period
}

TEST_F(RelTest, FalsePathRemovesEndpointSlack) {
  load(
      "create_clock -name c -period 0.5 [get_ports clk1]\n"
      "set_false_path -to [get_pins rY/D]\n");
  Propagator prop(*mode_, *exceptions_);
  prop.run({});
  const auto slacks = prop.worst_slack_by_endpoint();
  EXPECT_EQ(slacks.count(pin("rY/D").value()), 0u);
  EXPECT_EQ(slacks.count(pin("rX/D").value()), 1u);
}

TEST_F(RelTest, ConeRestrictsPropagation) {
  load("create_clock -name c -period 10 [get_ports clk1]\n");
  const std::vector<uint8_t> cone =
      Propagator::fanin_cone(*mode_, {pin("rX/D")});
  EXPECT_TRUE(cone[pin("rA/CP").index()]);
  EXPECT_TRUE(cone[pin("inv1/Z").index()]);
  EXPECT_FALSE(cone[pin("rZ/D").index()]);
  EXPECT_FALSE(cone[pin("inv2/Z").index()]);

  PropagationOptions opts;
  opts.pin_filter = &cone;
  const RelationTable rel = run(opts);
  EXPECT_NE(states(rel, "rX/D", "c", "c"), nullptr);
  EXPECT_EQ(states(rel, "rY/D", "c", "c"), nullptr);
}

TEST_F(RelTest, MaxDelayStateAndSlack) {
  load(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_max_delay 0.5 -to [get_pins rX/D]\n");
  Propagator prop(*mode_, *exceptions_);
  prop.run({});
  RelationKey key;
  key.endpoint = pin("rX/D");
  key.launch = key.capture = sdc_->find_clock("c");
  const RelationData& data = prop.relations().at(key);
  ASSERT_TRUE(data.states.singleton());
  EXPECT_EQ(data.states[0].kind, StateKind::kMaxDelay);
  // Path delay > 1.0 (launch 0.6+, inv 0.2+, nets) => negative slack.
  EXPECT_LT(data.worst_slack, 0.0f);
}

class RelationTableTest : public RelTest {};

TEST_F(RelationTableTest, WalkRowsAreSortedAndUnique) {
  load(
      "create_clock -name a -period 2 [get_ports clk1]\n"
      "create_clock -name b -period 1 -add [get_ports clk1]\n"
      "set_input_delay 0.5 -clock a [get_ports in1]\n"
      "set_false_path -from [get_clocks a] -through [get_pins inv3/Z]\n");
  for (bool track : {false, true}) {
    PropagationOptions opts;
    opts.track_startpoints = track;
    opts.analyze_hold = true;
    const RelationTable rel = run(opts);
    ASSERT_GT(rel.size(), 4u) << "track=" << track;
    for (size_t i = 1; i < rel.size(); ++i) {
      EXPECT_TRUE(rel[i - 1].key < rel[i].key)
          << "rows " << i - 1 << " and " << i << " out of order or equal"
          << " (track=" << track << ")";
    }
    // Every row is found where it is.
    for (const auto& [key, data] : rel) {
      EXPECT_EQ(rel.find(key), &data);
    }
  }
}

TEST_F(RelationTableTest, RenamedClocksFoldIntoOneRowWithUnionStates) {
  // Clock b is false-pathed, a is timed: at rX/D the four (launch,
  // capture) keys over {a, b} carry both V and FP.
  load(
      "create_clock -name a -period 2 [get_ports clk1]\n"
      "create_clock -name b -period 2 -add [get_ports clk1]\n"
      "set_false_path -from [get_clocks b]\n");
  RelationTable rel = run();
  const ClockId a = sdc_->find_clock("a");
  const ClockId b = sdc_->find_clock("b");
  StateSet expected;
  size_t rows_at_rx = 0;
  for (const auto& [key, data] : rel) {
    if (key.endpoint != pin("rX/D")) continue;
    expected.merge(data.states);
    ++rows_at_rx;
  }
  ASSERT_EQ(rows_at_rx, 4u);
  ASSERT_EQ(expected.size(), 2u);

  // Map both clocks onto a, as two member clocks mapped onto one merged
  // clock do.
  rel.rename_clocks([&](ClockId c) { return c == b ? a : c; });
  size_t folded_at_rx = 0;
  for (const auto& [key, data] : rel) {
    if (key.endpoint != pin("rX/D")) continue;
    ++folded_at_rx;
    EXPECT_EQ(key.launch, a);
    EXPECT_EQ(key.capture, a);
    EXPECT_EQ(data.states, expected) << data.states.str();
  }
  EXPECT_EQ(folded_at_rx, 1u);
  for (size_t i = 1; i < rel.size(); ++i) {
    EXPECT_TRUE(rel[i - 1].key < rel[i].key);
  }
}

TEST_F(RelationTableTest, FindOnAbsentKeyReturnsNothing) {
  load("create_clock -name c -period 10 [get_ports clk1]\n");
  const RelationTable rel = run();
  RelationKey present;
  present.endpoint = pin("rX/D");
  present.launch = present.capture = sdc_->find_clock("c");
  ASSERT_NE(rel.find(present), nullptr);

  RelationKey absent = present;
  absent.endpoint = pin("inv1/Z");  // not an endpoint
  EXPECT_EQ(rel.find(absent), nullptr);
  EXPECT_THROW(rel.at(absent), std::out_of_range);
  absent = present;
  absent.startpoint = pin("rA/CP");  // endpoint-level walk: no startpoints
  EXPECT_EQ(rel.find(absent), nullptr);
  EXPECT_EQ(RelationTable().find(present), nullptr);
}

TEST_F(RelationTableTest, StateSetSpillsPastTwoStatesAndStaysSorted) {
  StateSet set;
  set.insert(PathState::mcp(3));
  set.insert(PathState::false_path());
  set.insert(PathState::valid());
  set.insert(PathState::mcp(2));
  set.insert(PathState::valid());
  ASSERT_EQ(set.size(), 4u);
  EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
  EXPECT_TRUE(set.contains(PathState::mcp(2)));
  StateSet copy = set;
  EXPECT_EQ(copy, set);
  StateSet two;
  two.insert(PathState::false_path());
  two.insert(PathState::valid());
  EXPECT_FALSE(two == set);
  EXPECT_EQ(two.str(), "{V, FP}");
}

/// Row-for-row equality of two tables, slacks and arrivals compared bitwise.
void expect_same_table(const RelationTable& got, const RelationTable& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "row " << i;
    EXPECT_EQ(got[i].data.states, want[i].data.states) << "row " << i;
    EXPECT_EQ(got[i].data.hold_states, want[i].data.hold_states);
    EXPECT_EQ(got[i].data.worst_slack, want[i].data.worst_slack);
    EXPECT_EQ(got[i].data.worst_hold_slack, want[i].data.worst_hold_slack);
    EXPECT_EQ(got[i].data.worst_arrival, want[i].data.worst_arrival);
  }
}

TEST_F(RelationTableTest, PackedTableUnpacksToTheSameRows) {
  // Rows with one state per side (packed narrow), rows with two states
  // after a rename (kept whole), and rows with arrivals (kept whole).
  load(
      "create_clock -name a -period 2 [get_ports clk1]\n"
      "create_clock -name b -period 1 -add [get_ports clk1]\n"
      "set_input_delay 0.5 -clock a [get_ports in1]\n"
      "set_false_path -from [get_clocks b] -to [get_pins rX/D]\n"
      "set_multicycle_path 2 -through [get_pins inv3/Z]\n");
  for (bool hold : {false, true}) {
    for (bool arrivals : {false, true}) {
      SCOPED_TRACE(std::string("hold=") + (hold ? "1" : "0") +
                   " arrivals=" + (arrivals ? "1" : "0"));
      PropagationOptions opts;
      opts.analyze_hold = hold;
      opts.compute_arrivals = arrivals;
      RelationTable rel = run(opts);
      ASSERT_GT(rel.size(), 4u);
      expect_same_table(PackedRelationTable(rel).unpack(), rel);

      const ClockId a = sdc_->find_clock("a");
      const ClockId b = sdc_->find_clock("b");
      rel.rename_clocks([&](ClockId c) { return c == b ? a : c; });
      bool multi = false;
      for (const auto& [key, data] : rel) multi = multi || data.states.size() > 1;
      EXPECT_TRUE(multi);
      const PackedRelationTable packed(rel);
      EXPECT_EQ(packed.size(), rel.size());
      expect_same_table(packed.unpack(), rel);
    }
  }
  expect_same_table(PackedRelationTable(RelationTable()).unpack(),
                    RelationTable());
}

TEST_F(RelTest, ProgressTableInternsDeterministically) {
  ProgressTable table(3);
  std::vector<uint8_t> a{0, kExcInactive, 2};
  const uint32_t id1 = table.intern(a);
  const uint32_t id2 = table.intern(a);
  EXPECT_EQ(id1, id2);
  a[0] = 1;
  EXPECT_NE(table.intern(a), id1);
  EXPECT_EQ(table.get(0).size(), 3u);  // id 0 = all-inactive
  EXPECT_EQ(table.get(0)[0], kExcInactive);
}

}  // namespace
}  // namespace mm::timing
