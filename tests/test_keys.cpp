// merge/keys: canonical clock keys and exception signatures, and the
// production engine against the Sdc-level oracle.
//
// Both sides compare the same key strings: the oracle re-derives them from
// the Sdc for every pair, the production engine reads them from cached
// relationship sets through sorted indexes. This file asserts both levels:
// key-layer unit semantics (generated clocks, duplicate-waveform dedup,
// name-collision rename) and whole-engine parity with the oracle — same
// mergeability graph, reason strings and clique cover — on the paper
// example plus 32/64-mode generated families.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "gen/paper_circuit.h"
#include "merge/context.h"
#include "merge/keys.h"
#include "merge/merger.h"
#include "merge/mergeability.h"
#include "merge/preliminary.h"
#include "merge/relationship_cache.h"
#include "netlist/verilog.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include "timing/graph.h"

namespace mm::merge {
namespace {

class KeysTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);
  timing::TimingGraph graph{design};

  sdc::Sdc parse(const std::string& text) {
    return sdc::parse_sdc(text, design);
  }

};

/// The production pair verdict (cached relationship sets) must equal the
/// Sdc-level oracle's, member for member.
void expect_verdict_matches_oracle(const sdc::Sdc& a, const sdc::Sdc& b) {
  MergeContext ctx;
  const PairVerdict prod =
      check_mergeable(*ctx.relationships(a), *ctx.relationships(b),
                      ctx.options());
  const PairVerdict oracle = check_mergeable(a, b, ctx.options());
  EXPECT_EQ(prod.mergeable, oracle.mergeable);
  EXPECT_EQ(prod.reason, oracle.reason);
  EXPECT_EQ(prod.category, oracle.category);
  EXPECT_EQ(prod.subject, oracle.subject);
}

/// The string-keyed clock identity count: distinct clock_key strings over
/// the modes — what a merged deck's clock count must be.
size_t distinct_string_clock_keys(const std::vector<const sdc::Sdc*>& modes) {
  std::set<std::string> keys;
  for (const sdc::Sdc* m : modes) {
    const std::set<std::string> k = mode_clock_keys(*m);
    keys.insert(k.begin(), k.end());
  }
  return keys.size();
}

// ---------------------------------------------------------------------------
// Relationship-set key indexes.

TEST_F(KeysTest, ClockOrderKeysMatchModeClockKeys) {
  sdc::Sdc mode = parse(
      "create_clock -name c1 -period 10 [get_ports clk1]\n"
      "create_clock -name c2 -period 20 [get_ports clk2]\n");
  const ModeRelationships rels = extract_relationships(mode);
  ASSERT_EQ(rels.clocks.size(), mode.num_clocks());
  std::vector<std::string> order_keys;
  for (uint32_t i : rels.clock_order) order_keys.push_back(rels.clocks[i].key);
  const std::set<std::string> keys = mode_clock_keys(mode);
  EXPECT_EQ(order_keys, std::vector<std::string>(keys.begin(), keys.end()));
}

TEST_F(KeysTest, ExceptionIndexesMatchStringKeys) {
  // c3 duplicates c1's identity under another name.
  sdc::Sdc mode = parse(
      "create_clock -name c1 -period 10 [get_ports clk1]\n"
      "create_clock -name c2 -period 20 [get_ports clk2]\n"
      "create_clock -name c3 -period 10 -add [get_ports clk1]\n"
      "set_multicycle_path 2 -from [get_clocks {c3 c2 c1}] "
      "-to [get_pins rX/D]\n"
      "set_false_path -to [get_pins rY/D]\n"
      "set_multicycle_path 3 -from [get_clocks {c1 c2 c3}] "
      "-to [get_pins rX/D]\n");
  const ModeRelationships rels = extract_relationships(mode);
  ASSERT_EQ(rels.exceptions.size(), mode.exceptions().size());
  for (size_t e = 0; e < rels.exceptions.size(); ++e) {
    const sdc::Exception& ex = mode.exceptions()[e];
    const ModeRelationships::ExceptionInfo& info = rels.exceptions[e];
    // Launch clocks, in key order, are the effective -from keys.
    std::vector<std::string> launch;
    for (const std::string& k : rels.keys_of(rels.launch_clocks(info))) {
      launch.push_back(k);
    }
    const std::set<std::string> from = effective_from_keys(mode, ex);
    EXPECT_EQ(launch, std::vector<std::string>(from.begin(), from.end()));
    EXPECT_TRUE(rels.has_full_sig(info.sig_full));
    // The anchor index returns the first exception with the anchor: the
    // two MCPs share theirs.
    const ModeRelationships::ExceptionInfo* first =
        rels.find_anchor(info.sig_anchor);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first, &rels.exceptions[e == 2 ? 0 : e]) << e;
  }
  EXPECT_FALSE(rels.has_full_sig("no such signature"));
  EXPECT_EQ(rels.find_anchor("no such anchor"), nullptr);
}

// ---------------------------------------------------------------------------
// Edge case: generated clocks.

TEST_F(KeysTest, GeneratedClockKeysEncodeGenerationParams) {
  sdc::Sdc div2 = parse(
      "create_clock -name m -period 8 [get_ports clk1]\n"
      "create_generated_clock -name g -source [get_ports clk1] -divide_by 2 "
      "[get_pins mux1/Z]\n");
  sdc::Sdc div4 = parse(
      "create_clock -name m -period 8 [get_ports clk1]\n"
      "create_generated_clock -name g -source [get_ports clk1] -divide_by 4 "
      "[get_pins mux1/Z]\n");
  sdc::Sdc div2_renamed = parse(
      "create_clock -name m -period 8 [get_ports clk1]\n"
      "create_generated_clock -name h -source [get_ports clk1] -divide_by 2 "
      "[get_pins mux1/Z]\n");

  const std::string kg2 = clock_key(div2, div2.find_clock("g"));
  const std::string kg4 = clock_key(div4, div4.find_clock("g"));
  const std::string kh2 = clock_key(div2_renamed, div2_renamed.find_clock("h"));
  // Same source/params, different name: same canonical identity.
  EXPECT_EQ(kg2, kh2);
  // Different divide ratio: different identity.
  EXPECT_NE(kg2, kg4);

}

TEST_F(KeysTest, GeneratedClockMergeIdenticalBothPaths) {
  const std::string text_a =
      "create_clock -name m -period 8 [get_ports clk1]\n"
      "create_generated_clock -name g -source [get_ports clk1] -divide_by 2 "
      "[get_pins mux1/Z]\n";
  const std::string text_b =
      "create_clock -name m -period 8 [get_ports clk1]\n"
      "create_generated_clock -name g -source [get_ports clk1] -divide_by 4 "
      "[get_pins mux1/Z]\n";
  sdc::Sdc a = parse(text_a), b = parse(text_b);
  expect_verdict_matches_oracle(a, b);
  const ValidatedMergeResult out = merge_modes(graph, {&a, &b}, MergeOptions{});
  // m dedups; g(div2) and g(div4) coexist under distinct names.
  EXPECT_EQ(out.merge.merged->num_clocks(), 3u);
  EXPECT_EQ(out.merge.merged->num_clocks(),
            distinct_string_clock_keys({&a, &b}));
}

// ---------------------------------------------------------------------------
// Edge case: duplicate-waveform dedup (same identity, different names).

TEST_F(KeysTest, DuplicateWaveformDedupBothPaths) {
  // Same source + period + waveform under two different names across two
  // modes: one merged clock.
  sdc::Sdc a = parse(
      "create_clock -name fast -period 10 -waveform {0 5} "
      "[get_ports clk1]\n");
  sdc::Sdc b = parse(
      "create_clock -name quick -period 10 -waveform {0 5} "
      "[get_ports clk1]\n");
  expect_verdict_matches_oracle(a, b);
  const MergeResult out = preliminary_merge({&a, &b}, MergeOptions{});
  EXPECT_EQ(out.merged->num_clocks(), 1u);
  EXPECT_EQ(out.merged->num_clocks(), distinct_string_clock_keys({&a, &b}));
  EXPECT_EQ(out.stats.clocks_deduped, 1u);
}

// ---------------------------------------------------------------------------
// Edge case: name collision between distinct clocks forces a rename.

TEST_F(KeysTest, NameCollisionRenameBothPaths) {
  // Same name "c", different sources: distinct identities that cannot
  // share the merged name.
  sdc::Sdc a = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  sdc::Sdc b = parse("create_clock -name c -period 10 [get_ports clk2]\n");
  expect_verdict_matches_oracle(a, b);
  const MergeResult out = preliminary_merge({&a, &b}, MergeOptions{});
  EXPECT_EQ(out.merged->num_clocks(), 2u);
  EXPECT_EQ(out.merged->num_clocks(), distinct_string_clock_keys({&a, &b}));
  EXPECT_EQ(out.stats.clocks_renamed, 1u);
  EXPECT_EQ(out.stats.clocks_deduped, 0u);
}

// ---------------------------------------------------------------------------
// Whole-engine parity: the production engine must reproduce the Sdc-level
// oracle's mergeability graph, reason strings and clique cover.

struct EngineOutput {
  std::vector<uint8_t> edges;
  std::vector<std::string> reasons;
  std::vector<std::vector<size_t>> cliques;
  std::vector<std::string> merged_sdc;  // empty when only the graph is built
};

/// The production engine on a fresh context.
EngineOutput run_engine(const timing::TimingGraph& graph,
                        const std::vector<const sdc::Sdc*>& modes,
                        MergeOptions options, bool full_merge) {
  MergeContext ctx(options);
  EngineOutput out;
  const MergeabilityGraph mgraph(modes, ctx);
  for (size_t i = 0; i < mgraph.num_modes(); ++i) {
    for (size_t j = 0; j < mgraph.num_modes(); ++j) {
      out.edges.push_back(mgraph.edge(i, j) ? 1 : 0);
      out.reasons.push_back(mgraph.reason(i, j));
    }
  }
  out.cliques = mgraph.clique_cover();
  if (full_merge) {
    const MergedModeSet merged = merge_mode_set(graph, modes, ctx);
    EXPECT_EQ(merged.cliques, out.cliques);
    for (const ValidatedMergeResult& r : merged.merged) {
      out.merged_sdc.push_back(sdc::write_sdc(*r.merge.merged));
    }
  }
  return out;
}

/// The oracle's graph: a serial i < j loop over the Sdc-level
/// check_mergeable, covered by the same greedy rule.
EngineOutput run_oracle(const std::vector<const sdc::Sdc*>& modes,
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
  EngineOutput out;
  out.cliques = greedy_clique_cover(n, adj);
  out.edges = std::move(adj);
  out.reasons = std::move(reasons);
  return out;
}

void expect_engine_matches_oracle(const timing::TimingGraph& graph,
                                  const std::vector<const sdc::Sdc*>& modes,
                                  const MergeOptions& options,
                                  bool full_merge) {
  const EngineOutput oracle = run_oracle(modes, options);
  const EngineOutput prod = run_engine(graph, modes, options, full_merge);
  EXPECT_EQ(prod.edges, oracle.edges);
  EXPECT_EQ(prod.reasons, oracle.reasons);
  EXPECT_EQ(prod.cliques, oracle.cliques);
  if (full_merge) {
    EXPECT_EQ(prod.merged_sdc.size(), oracle.cliques.size());
  }
}

TEST_F(KeysTest, PaperExampleParityEngineVsOracle) {
  namespace cs = gen::constraint_sets;
  std::vector<sdc::Sdc> modes;
  for (const char* text :
       {cs::kSet2ModeA, cs::kSet2ModeB, cs::kSet3ModeA, cs::kSet3ModeB,
        cs::kSet4ModeA, cs::kSet4ModeB, cs::kSet5ModeA, cs::kSet5ModeB,
        cs::kSet6ModeA, cs::kSet6ModeB}) {
    modes.push_back(parse(text));
  }
  std::vector<const sdc::Sdc*> ptrs;
  for (const sdc::Sdc& m : modes) ptrs.push_back(&m);

  expect_engine_matches_oracle(graph, ptrs, MergeOptions{},
                               /*full_merge=*/true);
}

class KeysFamilyTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();

  void run_family(size_t num_modes, size_t target_groups, bool full_merge) {
    gen::DesignParams dp;
    dp.num_regs = 120;
    netlist::Design design = gen::generate_design(lib, dp);
    timing::TimingGraph graph{design};

    gen::ModeFamilyParams mp;
    mp.num_modes = num_modes;
    mp.target_groups = target_groups;
    std::vector<std::unique_ptr<sdc::Sdc>> modes;
    std::vector<const sdc::Sdc*> ptrs;
    for (const auto& gm : gen::generate_mode_family(dp, mp)) {
      modes.push_back(
          std::make_unique<sdc::Sdc>(sdc::parse_sdc(gm.sdc_text, design)));
    }
    for (const auto& m : modes) ptrs.push_back(m.get());

    MergeOptions options;
    options.validate = false;
    expect_engine_matches_oracle(graph, ptrs, options, full_merge);
    EXPECT_EQ(run_oracle(ptrs, options).cliques.size(), target_groups);
  }
};

TEST_F(KeysFamilyTest, Parity32ModeFamilyFullMerge) {
  run_family(/*num_modes=*/32, /*target_groups=*/5, /*full_merge=*/true);
}

TEST_F(KeysFamilyTest, Parity64ModeFamilyGraph) {
  run_family(/*num_modes=*/64, /*target_groups=*/8, /*full_merge=*/false);
}

// ---------------------------------------------------------------------------
// Keys and signatures keep every digit of a value.

TEST_F(KeysTest, ClockKeysKeepEveryDigitOfThePeriod) {
  const sdc::Sdc a =
      parse("create_clock -name c -period 3.3333333 [get_ports clk1]\n");
  const sdc::Sdc b =
      parse("create_clock -name c -period 3.3333334 [get_ports clk1]\n");
  EXPECT_NE(clock_key(a, ClockId{size_t{0}}), clock_key(b, ClockId{size_t{0}}));
  const sdc::Sdc c = parse(
      "create_clock -name c -period 10 -waveform {0 5.0000001} "
      "[get_ports clk1]\n");
  const sdc::Sdc d = parse(
      "create_clock -name c -period 10 -waveform {0 5.0000002} "
      "[get_ports clk1]\n");
  EXPECT_NE(clock_key(c, ClockId{size_t{0}}), clock_key(d, ClockId{size_t{0}}));
}

TEST_F(KeysTest, MaxDelaysDifferingInTheSeventhDigitDoNotMerge) {
  std::ifstream in(std::string(MM_TEST_DATA_DIR) + "/fig1.v");
  ASSERT_TRUE(in) << "cannot read fig1.v";
  const std::string verilog((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  const netlist::Design fig1 = netlist::read_verilog(verilog, lib);
  const timing::TimingGraph fig1_graph(fig1);
  const std::string clock = "create_clock -name clkA -period 10 [get_ports clk1]\n";
  const sdc::Sdc a = sdc::parse_sdc(
      clock + "set_max_delay 1.2345674 -through [get_pins inv3/Z]\n", fig1);
  const sdc::Sdc b = sdc::parse_sdc(
      clock + "set_max_delay 1.2345671 -through [get_pins inv3/Z]\n", fig1);

  MergeOptions options;
  options.value_tolerance = 0.0;
  EXPECT_FALSE(check_mergeable(a, b, options).mergeable);
  expect_verdict_matches_oracle(a, b);
  const MergedModeSet set = merge_mode_set(fig1_graph, {&a, &b}, options);
  EXPECT_EQ(set.cliques.size(), 2u);
}

}  // namespace
}  // namespace mm::merge
