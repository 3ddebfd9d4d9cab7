// Mergeability analysis tests: pairwise verdicts, the mergeability graph
// and the greedy clique cover (paper Figure 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "gen/paper_circuit.h"
#include "merge/context.h"
#include "merge/mergeability.h"
#include "merge/session.h"
#include "netlist/libcell.h"
#include "sdc/parser.h"
#include "timing/graph.h"
#include "util/rng.h"

namespace mm::merge {
namespace {

class MergeabilityTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);

  sdc::Sdc parse(const std::string& text) {
    return sdc::parse_sdc(text, design);
  }

  MergeOptions options;
};

TEST_F(MergeabilityTest, IdenticalModesMerge) {
  const std::string text =
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n";
  sdc::Sdc a = parse(text), b = parse(text);
  EXPECT_TRUE(check_mergeable(a, b, options).mergeable);
}

TEST_F(MergeabilityTest, DisjointClockModesMerge) {
  sdc::Sdc a = parse("create_clock -name c1 -period 10 [get_ports clk1]\n");
  sdc::Sdc b = parse("create_clock -name c2 -period 20 [get_ports clk2]\n");
  EXPECT_TRUE(check_mergeable(a, b, options).mergeable);
}

TEST_F(MergeabilityTest, UncertaintyConflictBlocksMerge) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n");
  sdc::Sdc b = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.9 [get_clocks c]\n");
  const PairVerdict v = check_mergeable(a, b, options);
  EXPECT_FALSE(v.mergeable);
  EXPECT_NE(v.reason.find("uncertainty"), std::string::npos);

  MergeOptions loose;
  loose.value_tolerance = 3.0;
  EXPECT_TRUE(check_mergeable(a, b, loose).mergeable);
}

TEST_F(MergeabilityTest, LatencyConflictBlocksMerge) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_latency -max 0.5 [get_clocks c]\n");
  sdc::Sdc b = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_latency -max 2.5 [get_clocks c]\n");
  EXPECT_FALSE(check_mergeable(a, b, options).mergeable);
}

TEST_F(MergeabilityTest, DifferentWaveformClocksDoNotConflict) {
  // Clocks with different periods on the same port are different clocks;
  // their constraints are unrelated.
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_latency -max 0.5 [get_clocks c]\n");
  sdc::Sdc b = parse(
      "create_clock -name c -period 20 [get_ports clk1]\n"
      "set_clock_latency -max 2.5 [get_clocks c]\n");
  EXPECT_TRUE(check_mergeable(a, b, options).mergeable);
}

TEST_F(MergeabilityTest, DriveConflictBlocksMerge) {
  sdc::Sdc a = parse("set_input_transition 0.1 [get_ports in1]\n");
  sdc::Sdc b = parse("set_input_transition 0.9 [get_ports in1]\n");
  EXPECT_FALSE(check_mergeable(a, b, options).mergeable);
}

TEST_F(MergeabilityTest, LoadConflictBlocksMerge) {
  sdc::Sdc a = parse("set_load 1.0 [get_ports out1]\n");
  sdc::Sdc b = parse("set_load 5.0 [get_ports out1]\n");
  EXPECT_FALSE(check_mergeable(a, b, options).mergeable);
}

TEST_F(MergeabilityTest, ConflictingMcpValuesBlockMerge) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_multicycle_path 2 -through [get_pins inv1/Z]\n");
  sdc::Sdc b = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_multicycle_path 3 -through [get_pins inv1/Z]\n");
  EXPECT_FALSE(check_mergeable(a, b, options).mergeable);
}

TEST_F(MergeabilityTest, UniqueMcpWithSharedClockBlocksMerge) {
  // The MCP applies to clkA paths; clkA also exists in mode B, so clock
  // restriction cannot isolate it.
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_multicycle_path 2 -through [get_pins inv1/Z]\n");
  sdc::Sdc b = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  EXPECT_FALSE(check_mergeable(a, b, options).mergeable);
}

TEST_F(MergeabilityTest, UniqueMcpWithDisjointClocksMerges) {
  // Paper Constraint Set 4: the MCP is uniquifiable because mode B has no
  // clkA at all.
  sdc::Sdc a = parse(gen::constraint_sets::kSet4ModeA);
  sdc::Sdc b = parse(gen::constraint_sets::kSet4ModeB);
  EXPECT_TRUE(check_mergeable(a, b, options).mergeable);
}

TEST_F(MergeabilityTest, UniqueFalsePathNeverBlocks) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -to [get_pins rX/D]\n");
  sdc::Sdc b = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  EXPECT_TRUE(check_mergeable(a, b, options).mergeable);
}

TEST_F(MergeabilityTest, CliqueCoverBlockDiagonal) {
  // Three groups of sizes 3/2/1 planted via incompatible uncertainty.
  std::vector<sdc::Sdc> modes;
  std::vector<const Sdc*> ptrs;
  const size_t group_of[6] = {0, 0, 0, 1, 1, 2};
  for (size_t i = 0; i < 6; ++i) {
    modes.push_back(parse(
        "create_clock -name c -period 10 [get_ports clk1]\n"
        "set_clock_uncertainty -setup " +
        std::to_string(0.1 + 1.0 * static_cast<double>(group_of[i])) +
        " [get_clocks c]\n"));
  }
  for (const auto& m : modes) ptrs.push_back(&m);

  MergeContext ctx(options);
  MergeabilityGraph graph(ptrs, ctx);
  EXPECT_TRUE(graph.edge(0, 1));
  EXPECT_TRUE(graph.edge(3, 4));
  EXPECT_FALSE(graph.edge(0, 3));
  EXPECT_FALSE(graph.edge(4, 5));
  EXPECT_EQ(graph.degree(0), 2u);
  EXPECT_EQ(graph.degree(5), 0u);
  EXPECT_FALSE(graph.reason(0, 3).empty());

  const auto cliques = graph.clique_cover();
  ASSERT_EQ(cliques.size(), 3u);
  EXPECT_EQ(cliques[0], (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(cliques[1], (std::vector<size_t>{3, 4}));
  EXPECT_EQ(cliques[2], (std::vector<size_t>{5}));
}

TEST_F(MergeabilityTest, CliqueCoverFullyConnected) {
  std::vector<sdc::Sdc> modes;
  std::vector<const Sdc*> ptrs;
  for (size_t i = 0; i < 5; ++i) {
    modes.push_back(parse("create_clock -name c -period 10 [get_ports clk1]\n"));
  }
  for (const auto& m : modes) ptrs.push_back(&m);
  MergeContext ctx(options);
  MergeabilityGraph graph(ptrs, ctx);
  const auto cliques = graph.clique_cover();
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].size(), 5u);
}

TEST_F(MergeabilityTest, SingleMode) {
  sdc::Sdc a = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  MergeContext ctx(options);
  MergeabilityGraph graph({&a}, ctx);
  const auto cliques = graph.clique_cover();
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].size(), 1u);
}

// --- greedy_clique_cover determinism ------------------------------------

/// Random symmetric adjacency with the diagonal set.
std::vector<uint8_t> random_adjacency(size_t n, util::Rng& rng,
                                      int edge_percent) {
  std::vector<uint8_t> adj(n * n, 0);
  for (size_t i = 0; i < n; ++i) {
    adj[i * n + i] = 1;
    for (size_t j = i + 1; j < n; ++j) {
      const uint8_t e = rng.chance(edge_percent) ? 1 : 0;
      adj[i * n + j] = e;
      adj[j * n + i] = e;
    }
  }
  return adj;
}

// The cover is a pure function of the matrix: two calls agree, and the
// matrix assembled from any verdict production order (batch or
// incremental) is the same matrix — this is the property that makes
// incremental covers byte-identical to batch ones.
TEST(CliqueCoverDeterminism, PureFunctionOfAdjacency) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 3 + rng.below(12);
    const std::vector<uint8_t> adj =
        random_adjacency(n, rng, 20 + static_cast<int>(rng.below(60)));
    EXPECT_EQ(greedy_clique_cover(n, adj), greedy_clique_cover(n, adj));
  }
}

// Relabeling invariance on planted disjoint cliques: when the graph is a
// union of disjoint cliques (the structure mode_gen plants and the merge
// pipeline's covers must recover exactly), the cover is the planted
// partition under *every* labeling — any hidden dependence on iteration
// order beyond the documented degree/index rule would break this.
TEST(CliqueCoverDeterminism, RelabelingInvariantOnDisjointCliques) {
  util::Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    // Plant cliques of distinct sizes 1..g over shuffled labels.
    const size_t g = 2 + rng.below(4);
    size_t n = 0;
    for (size_t c = 0; c < g; ++c) n += c + 1;
    std::vector<size_t> label(n);
    for (size_t i = 0; i < n; ++i) label[i] = i;
    for (size_t i = n; i > 1; --i) {
      std::swap(label[i - 1], label[rng.below(i)]);
    }
    std::vector<std::vector<size_t>> planted;
    size_t next = 0;
    for (size_t c = 0; c < g; ++c) {
      std::vector<size_t> clique;
      for (size_t k = 0; k <= c; ++k) clique.push_back(label[next++]);
      planted.push_back(std::move(clique));
    }
    std::vector<uint8_t> adj(n * n, 0);
    for (size_t i = 0; i < n; ++i) adj[i * n + i] = 1;
    for (const std::vector<size_t>& clique : planted) {
      for (const size_t a : clique) {
        for (const size_t b : clique) adj[a * n + b] = 1;
      }
    }

    std::vector<std::vector<size_t>> cover = greedy_clique_cover(n, adj);
    for (std::vector<size_t>& c : cover) std::sort(c.begin(), c.end());
    std::sort(cover.begin(), cover.end());
    for (std::vector<size_t>& c : planted) std::sort(c.begin(), c.end());
    std::sort(planted.begin(), planted.end());
    EXPECT_EQ(cover, planted) << "trial " << trial;
  }
}

// Mode insertion order on a planted block-diagonal family: the cover as a
// set of name-sets must not depend on the order decks were registered.
// (This is exactly the structure where the invariant is guaranteed — with
// overlapping cliques the greedy tie-breaks legitimately depend on ids.)
TEST(CliqueCoverDeterminism, InsertionOrderInvariantCoverContents) {
  netlist::Library lib = netlist::Library::builtin();
  gen::DesignParams dp;
  dp.num_regs = 40;
  const netlist::Design design = gen::generate_design(lib, dp);
  const timing::TimingGraph graph(design);

  gen::ModeFamilyParams mp;
  mp.num_modes = 10;
  mp.target_groups = 3;
  const std::vector<gen::GeneratedMode> family =
      gen::generate_mode_family(dp, mp);
  std::vector<sdc::Sdc> modes;
  for (const gen::GeneratedMode& gm : family) {
    modes.push_back(sdc::parse_sdc(gm.sdc_text, design));
  }

  auto cover_by_name = [&](const std::vector<size_t>& order) {
    MergeOptions opt;
    opt.validate = false;
    MergeSession session(graph, opt);
    std::vector<std::string> by_index;
    for (const size_t i : order) {
      session.add_mode(family[i].name, &modes[i]);
      by_index.push_back(family[i].name);
    }
    const MergeSession::CommitResult& r = session.commit();
    std::vector<std::vector<std::string>> cover;
    for (const std::vector<size_t>& clique : r.cliques) {
      std::vector<std::string> members;
      for (const size_t m : clique) members.push_back(by_index[m]);
      std::sort(members.begin(), members.end());
      cover.push_back(std::move(members));
    }
    std::sort(cover.begin(), cover.end());
    return cover;
  };

  std::vector<size_t> fwd(modes.size());
  for (size_t i = 0; i < fwd.size(); ++i) fwd[i] = i;
  std::vector<size_t> rev(fwd.rbegin(), fwd.rend());
  const auto cover = cover_by_name(fwd);
  EXPECT_EQ(cover.size(), 3u);
  EXPECT_EQ(cover, cover_by_name(rev));
}

}  // namespace
}  // namespace mm::merge
