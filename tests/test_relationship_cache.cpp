// RelationshipCache tests: hit/miss accounting, content-key invalidation,
// and byte-identical determinism of the memoized + parallel mergeability
// path against the serial Sdc-level oracle (paper worked example and a
// 32-mode generated family).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "gen/paper_circuit.h"
#include "merge/context.h"
#include "merge/merger.h"
#include "merge/mergeability.h"
#include "merge/relationship_cache.h"
#include "sdc/parser.h"
#include "timing/graph.h"

namespace mm::merge {
namespace {

class RelationshipCacheTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);

  sdc::Sdc parse(const std::string& text) {
    return sdc::parse_sdc(text, design);
  }

  MergeOptions options;
};

TEST_F(RelationshipCacheTest, HitAndMissCounting) {
  RelationshipCache cache;
  sdc::Sdc a = parse("create_clock -name c -period 10 [get_ports clk1]\n");

  auto first = cache.get(a);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 1u);

  // Same object again and the same text parsed into a fresh Sdc both hit.
  auto second = cache.get(a);
  sdc::Sdc a2 = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  auto third = cache.get(a2);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first.get(), third.get());
}

TEST_F(RelationshipCacheTest, SdcTextChangeInvalidates) {
  RelationshipCache cache;
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n");
  auto before = cache.get(a);
  EXPECT_EQ(cache.stats().misses, 1u);

  // A different constraint value is a different content key: no stale hit.
  sdc::Sdc b = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.9 [get_clocks c]\n");
  EXPECT_NE(RelationshipCache::content_key(a),
            RelationshipCache::content_key(b));
  auto after = cache.get(b);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_NE(before.get(), after.get());
  EXPECT_NE(before->clocks[0].uncertainty[1], after->clocks[0].uncertainty[1]);

  // Mutating a cached mode's constraints changes its key too.
  a.exceptions().push_back(sdc::Exception{});
  EXPECT_NE(RelationshipCache::content_key(a),
            RelationshipCache::content_key(b));
  cache.get(a);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST_F(RelationshipCacheTest, KeyIncludesNetlistIdentity) {
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
  EXPECT_NE(RelationshipCache::content_key(on_a),
            RelationshipCache::content_key(on_b));
}

// Regression for the weak-identity hazard: two distinct designs that agree
// on name AND every shape count must still get distinct content keys,
// because port names differ. Before content_key folded port names, these
// aliased one cache slot and the second design silently reused the first's
// extraction.
TEST_F(RelationshipCacheTest, EqualNameAndCountsDesignsDoNotCollide) {
  netlist::Design da("twin", &lib);
  da.add_port("clkA", netlist::PinDir::kInput);
  netlist::Design db("twin", &lib);
  db.add_port("clkB", netlist::PinDir::kInput);
  ASSERT_EQ(da.num_ports(), db.num_ports());
  ASSERT_EQ(da.num_pins(), db.num_pins());

  sdc::Sdc on_a = sdc::parse_sdc("", da);
  sdc::Sdc on_b = sdc::parse_sdc("", db);
  EXPECT_NE(RelationshipCache::content_key(on_a),
            RelationshipCache::content_key(on_b));

  RelationshipCache cache;
  cache.get(on_a);
  cache.get(on_b);
  EXPECT_EQ(cache.stats().misses, 2u);  // no alias, no stale hit
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 2u);
}

// Two decks whose latencies differ past the sixth significant digit are
// different content: they get distinct keys (the key hashes written SDC
// text, which must carry every digit), so neither reuses the other's
// extraction, and the production merge splits them exactly as the Sdc-level
// oracle does.
TEST_F(RelationshipCacheTest, SeventhDigitLatencyEditIsNewContent) {
  auto deck = [&](const std::string& latency) {
    return parse("create_clock -name c -period 10 [get_ports clk1]\n"
                 "set_clock_latency -max " +
                 latency + " [get_clocks c]\n");
  };
  const sdc::Sdc a = deck("0.1234561");
  const sdc::Sdc b = deck("0.1234564");
  EXPECT_NE(RelationshipCache::content_key(a),
            RelationshipCache::content_key(b));

  MergeOptions exact;
  exact.value_tolerance = 0.0;
  EXPECT_FALSE(check_mergeable(a, b, exact).mergeable);
  timing::TimingGraph graph(design);
  const MergedModeSet set = merge_mode_set(graph, {&a, &b}, exact);
  EXPECT_EQ(set.cliques.size(), 2u);
}

// Explicit invalidation (the MergeSession::update_mode path): dropping a
// mode's current content removes exactly that entry; the next get()
// re-extracts. Invalidating absent content is a no-op.
TEST_F(RelationshipCacheTest, InvalidateDropsEntry) {
  RelationshipCache cache;
  sdc::Sdc a = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  sdc::Sdc b = parse("create_clock -name c2 -period 20 [get_ports clk2]\n");
  cache.get(a);
  cache.get(b);
  ASSERT_EQ(cache.size(), 2u);

  cache.invalidate(a);
  EXPECT_EQ(cache.size(), 1u);
  cache.invalidate(a);  // already gone: no-op
  EXPECT_EQ(cache.size(), 1u);

  cache.get(b);  // untouched entry still hits
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.get(a);  // dropped entry re-extracts
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(RelationshipCacheTest, EvictionBoundsEntries) {
  RelationshipCache cache(/*max_entries=*/2);
  for (int period = 1; period <= 5; ++period) {
    sdc::Sdc m = parse("create_clock -name c -period " +
                       std::to_string(period) + " [get_ports clk1]\n");
    cache.get(m);
  }
  EXPECT_LE(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

// The production overload (cached relationship sets) must
// return the Sdc-level oracle's verdict bit for bit (mergeable flag, reason
// text, category and subject) on every kind of conflict.
TEST_F(RelationshipCacheTest, CachedVerdictsMatchSeedPath) {
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
      const PairVerdict cached = check_mergeable(ra, rb, opts);
      EXPECT_EQ(seed.mergeable, cached.mergeable)
          << "tol=" << tol << "\nA:\n" << ta << "B:\n" << tb;
      EXPECT_EQ(seed.reason, cached.reason)
          << "tol=" << tol << "\nA:\n" << ta << "B:\n" << tb;
      EXPECT_EQ(seed.category, cached.category)
          << "tol=" << tol << "\nA:\n" << ta << "B:\n" << tb;
      EXPECT_EQ(seed.subject, cached.subject)
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

TEST_F(RelationshipCacheTest, ParallelPathDeterministicOnPaperExample) {
  std::vector<sdc::Sdc> modes;
  for (const char* text :
       {gen::constraint_sets::kSet2ModeA, gen::constraint_sets::kSet2ModeB,
        gen::constraint_sets::kSet4ModeA, gen::constraint_sets::kSet4ModeB,
        gen::constraint_sets::kSet6ModeA, gen::constraint_sets::kSet6ModeB}) {
    modes.push_back(parse(text));
  }
  std::vector<const Sdc*> ptrs;
  for (const auto& m : modes) ptrs.push_back(&m);

  MergeOptions parallel_cached;
  parallel_cached.num_threads = 4;
  MergeContext ctx(parallel_cached);

  const MergeabilityGraph reference = oracle_graph(ptrs, parallel_cached);
  const MergeabilityGraph parallel(ptrs, ctx);
  expect_identical_graphs(reference, parallel);
  // Warm-cache rebuild is identical too.
  const MergeabilityGraph warm(ptrs, ctx);
  expect_identical_graphs(reference, warm);
}

TEST_F(RelationshipCacheTest, ParallelPathDeterministicOn32GeneratedModes) {
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

  MergeOptions parallel_cached;
  parallel_cached.num_threads = 0;  // hardware concurrency
  MergeContext ctx(parallel_cached);

  const MergeabilityGraph reference = oracle_graph(ptrs, parallel_cached);
  const MergeabilityGraph parallel(ptrs, ctx);
  expect_identical_graphs(reference, parallel);
}

}  // namespace
}  // namespace mm::merge
