// Relationship-set tests: RelationshipBuilder counting, content
// fingerprints, and byte-identical determinism of the production
// (extracted + parallel) mergeability path against the serial Sdc-level
// oracle (paper worked example and a 32-mode generated family).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "gen/paper_circuit.h"
#include "merge/context.h"
#include "merge/corner.h"
#include "merge/merger.h"
#include "merge/mergeability.h"
#include "merge/mode_relationships.h"
#include "sdc/parser.h"
#include "timing/graph.h"

namespace mm::merge {
namespace {

class ModeRelationshipsTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);

  sdc::Sdc parse(const std::string& text) {
    return sdc::parse_sdc(text, design);
  }

  MergeOptions options;
};

// The builder keeps no sets: every get() and get_corner() builds a fresh
// one and counts it, also for a deck it has seen before.
TEST_F(ModeRelationshipsTest, HitAndMissCounting) {
  RelationshipBuilder builder;
  sdc::Sdc a = parse("create_clock -name c -period 10 [get_ports clk1]\n");

  auto first = builder.get(a);
  auto second = builder.get(a);
  EXPECT_EQ(builder.stats().misses, 2u);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(first->clocks[0].key, second->clocks[0].key);

  // A corner deck with the skeleton's structure is delta-filled; one with
  // an extra clock falls back to full extraction. Both are built.
  sdc::Sdc slow = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_latency -max 0.7 [get_clocks c]\n");
  sdc::Sdc reshaped = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "create_clock -name c2 -period 20 [get_ports clk2]\n");
  auto filled = builder.get_corner(slow, *first);
  builder.get_corner(slow, *first);
  builder.get_corner(reshaped, *first);
  const RelationshipBuilder::Stats s = builder.stats();
  EXPECT_EQ(s.misses, 5u);
  EXPECT_EQ(s.delta_fills, 2u);
  EXPECT_EQ(s.skeleton_mismatches, 1u);
  EXPECT_EQ(filled->clocks[0].latency[0][1], 0.7);
}

TEST_F(ModeRelationshipsTest, SdcTextChangeInvalidates) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n");
  // The same text parsed into a fresh Sdc is the same content.
  sdc::Sdc a2 = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n");
  EXPECT_EQ(content_fingerprint(a), content_fingerprint(a2));

  // A different constraint value is different content.
  sdc::Sdc b = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.9 [get_clocks c]\n");
  EXPECT_NE(content_fingerprint(a), content_fingerprint(b));

  // Mutating a deck's constraints changes its fingerprint too.
  const uint64_t before = content_fingerprint(a);
  a.exceptions().push_back(sdc::Exception{});
  EXPECT_NE(content_fingerprint(a), before);
  EXPECT_NE(content_fingerprint(a), content_fingerprint(b));
}

TEST_F(ModeRelationshipsTest, KeyIncludesNetlistIdentity) {
  gen::DesignParams dp;
  dp.num_regs = 60;
  dp.name = "block_a";
  netlist::Design da = gen::generate_design(lib, dp);
  dp.name = "block_b";
  netlist::Design db = gen::generate_design(lib, dp);

  const std::string text =
      "create_clock -name c -period 10 [get_ports clk0]\n";
  sdc::Sdc on_a = sdc::parse_sdc(text, da);
  sdc::Sdc on_b = sdc::parse_sdc(text, db);
  EXPECT_NE(content_fingerprint(on_a), content_fingerprint(on_b));
}

// Regression for the weak-identity hazard: two distinct designs that agree
// on name AND every shape count must still get distinct content
// fingerprints, because port names differ. Before the hash folded port
// names, the two decks read as the same content.
TEST_F(ModeRelationshipsTest, EqualNameAndCountsDesignsDoNotCollide) {
  netlist::Design da("twin", &lib);
  da.add_port("clkA", netlist::PinDir::kInput);
  netlist::Design db("twin", &lib);
  db.add_port("clkB", netlist::PinDir::kInput);
  ASSERT_EQ(da.num_ports(), db.num_ports());
  ASSERT_EQ(da.num_pins(), db.num_pins());

  sdc::Sdc on_a = sdc::parse_sdc("", da);
  sdc::Sdc on_b = sdc::parse_sdc("", db);
  EXPECT_NE(content_fingerprint(on_a), content_fingerprint(on_b));
}

// Two decks whose latencies differ past the sixth significant digit are
// different content: they get distinct fingerprints (the hash reads the
// written SDC text, which must carry every digit), and the production merge
// splits them exactly as the Sdc-level oracle does.
TEST_F(ModeRelationshipsTest, SeventhDigitLatencyEditIsNewContent) {
  auto deck = [&](const std::string& latency) {
    return parse("create_clock -name c -period 10 [get_ports clk1]\n"
                 "set_clock_latency -max " +
                 latency + " [get_clocks c]\n");
  };
  const sdc::Sdc a = deck("0.1234561");
  const sdc::Sdc b = deck("0.1234564");
  EXPECT_NE(content_fingerprint(a), content_fingerprint(b));

  MergeOptions exact;
  exact.value_tolerance = 0.0;
  EXPECT_FALSE(check_mergeable(a, b, exact).mergeable);
  timing::TimingGraph graph(design);
  const MergedModeSet set = merge_mode_set(graph, {&a, &b}, exact);
  EXPECT_EQ(set.cliques.size(), 2u);
}

// The production overload (extracted relationship sets) must
// return the Sdc-level oracle's verdict bit for bit (mergeable flag, reason
// text, category and subject) on every kind of conflict.
TEST_F(ModeRelationshipsTest, CachedVerdictsMatchSeedPath) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"create_clock -name c -period 10 [get_ports clk1]\n",
       "create_clock -name c -period 10 [get_ports clk1]\n"},
      {"create_clock -name c1 -period 10 [get_ports clk1]\n",
       "create_clock -name c2 -period 20 [get_ports clk2]\n"},
      {"create_clock -name c -period 10 [get_ports clk1]\n"
       "set_clock_uncertainty -setup 0.3 [get_clocks c]\n",
       "create_clock -name c -period 10 [get_ports clk1]\n"
       "set_clock_uncertainty -setup 0.9 [get_clocks c]\n"},
      {"create_clock -name c -period 10 [get_ports clk1]\n"
       "set_clock_latency -max 0.5 [get_clocks c]\n",
       "create_clock -name c -period 10 [get_ports clk1]\n"
       "set_clock_latency -max 2.5 [get_clocks c]\n"},
      {"create_clock -name c -period 10 [get_ports clk1]\n"
       "set_clock_transition -max 0.1 [get_clocks c]\n",
       "create_clock -name c -period 10 [get_ports clk1]\n"
       "set_clock_transition -max 0.8 [get_clocks c]\n"},
      {"set_input_transition 0.1 [get_ports in1]\n",
       "set_input_transition 0.9 [get_ports in1]\n"},
      {"set_load 1.0 [get_ports out1]\n", "set_load 5.0 [get_ports out1]\n"},
      {"create_clock -name c -period 10 [get_ports clk1]\n"
       "set_multicycle_path 2 -through [get_pins inv1/Z]\n",
       "create_clock -name c -period 10 [get_ports clk1]\n"
       "set_multicycle_path 3 -through [get_pins inv1/Z]\n"},
      {"create_clock -name c -period 10 [get_ports clk1]\n"
       "set_multicycle_path 2 -through [get_pins inv1/Z]\n",
       "create_clock -name c -period 10 [get_ports clk1]\n"},
      {gen::constraint_sets::kSet4ModeA, gen::constraint_sets::kSet4ModeB},
      {gen::constraint_sets::kSet6ModeA, gen::constraint_sets::kSet6ModeB},
      {"create_clock -name c -period 10 [get_ports clk1]\n"
       "set_false_path -to [get_pins rX/D]\n",
       "create_clock -name c -period 10 [get_ports clk1]\n"},
  };

  for (double tol : {0.0, 3.0}) {
    MergeOptions opts;
    opts.value_tolerance = tol;
    for (const auto& [ta, tb] : cases) {
      sdc::Sdc a = parse(ta), b = parse(tb);
      const PairVerdict seed = check_mergeable(a, b, opts);
      const ModeRelationships ra = extract_relationships(a);
      const ModeRelationships rb = extract_relationships(b);
      const PairVerdict extracted = check_mergeable(ra, rb, opts);
      EXPECT_EQ(seed.mergeable, extracted.mergeable)
          << "tol=" << tol << "\nA:\n" << ta << "B:\n" << tb;
      EXPECT_EQ(seed.reason, extracted.reason)
          << "tol=" << tol << "\nA:\n" << ta << "B:\n" << tb;
      EXPECT_EQ(seed.category, extracted.category)
          << "tol=" << tol << "\nA:\n" << ta << "B:\n" << tb;
      EXPECT_EQ(seed.subject, extracted.subject)
          << "tol=" << tol << "\nA:\n" << ta << "B:\n" << tb;
    }
  }
}

// Graph-level determinism helper: adjacency, reasons, and clique cover of
// two builds must be identical.
void expect_identical_graphs(const MergeabilityGraph& x,
                             const MergeabilityGraph& y) {
  ASSERT_EQ(x.num_modes(), y.num_modes());
  for (size_t i = 0; i < x.num_modes(); ++i) {
    for (size_t j = 0; j < x.num_modes(); ++j) {
      EXPECT_EQ(x.edge(i, j), y.edge(i, j)) << i << "," << j;
      EXPECT_EQ(x.reason(i, j), y.reason(i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(x.clique_cover(), y.clique_cover());
}

/// The reference graph: a serial i < j loop over the Sdc-level
/// check_mergeable oracle.
MergeabilityGraph oracle_graph(const std::vector<const Sdc*>& modes,
                               const MergeOptions& options) {
  const size_t n = modes.size();
  std::vector<uint8_t> adj(n * n, 0);
  std::vector<std::string> reasons(n * n);
  for (size_t i = 0; i < n; ++i) adj[i * n + i] = 1;
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const PairVerdict v = check_mergeable(*modes[i], *modes[j], options);
      adj[i * n + j] = adj[j * n + i] = v.mergeable ? 1 : 0;
      if (!v.mergeable) reasons[i * n + j] = reasons[j * n + i] = v.reason;
    }
  }
  return MergeabilityGraph(n, std::move(adj), std::move(reasons));
}

TEST_F(ModeRelationshipsTest, ParallelPathDeterministicOnPaperExample) {
  std::vector<sdc::Sdc> modes;
  for (const char* text :
       {gen::constraint_sets::kSet2ModeA, gen::constraint_sets::kSet2ModeB,
        gen::constraint_sets::kSet4ModeA, gen::constraint_sets::kSet4ModeB,
        gen::constraint_sets::kSet6ModeA, gen::constraint_sets::kSet6ModeB}) {
    modes.push_back(parse(text));
  }
  std::vector<const Sdc*> ptrs;
  for (const auto& m : modes) ptrs.push_back(&m);

  MergeOptions options;
  options.num_threads = 4;
  MergeContext ctx(options);

  const MergeabilityGraph reference = oracle_graph(ptrs, options);
  const MergeabilityGraph parallel(ptrs, ctx);
  expect_identical_graphs(reference, parallel);
  // A rebuild on the same context is identical too.
  const MergeabilityGraph rebuilt(ptrs, ctx);
  expect_identical_graphs(reference, rebuilt);
}

TEST_F(ModeRelationshipsTest, ParallelPathDeterministicOn32GeneratedModes) {
  gen::DesignParams dp;
  dp.num_regs = 120;
  netlist::Design d = gen::generate_design(lib, dp);

  gen::ModeFamilyParams mp;
  mp.num_modes = 32;
  mp.target_groups = 5;
  std::vector<std::unique_ptr<sdc::Sdc>> modes;
  std::vector<const Sdc*> ptrs;
  for (const auto& gm : gen::generate_mode_family(dp, mp)) {
    modes.push_back(std::make_unique<sdc::Sdc>(sdc::parse_sdc(gm.sdc_text, d)));
  }
  for (const auto& m : modes) ptrs.push_back(m.get());

  MergeOptions options;
  options.num_threads = 0;  // hardware concurrency
  MergeContext ctx(options);

  const MergeabilityGraph reference = oracle_graph(ptrs, options);
  const MergeabilityGraph parallel(ptrs, ctx);
  expect_identical_graphs(reference, parallel);
}

}  // namespace
}  // namespace mm::merge
