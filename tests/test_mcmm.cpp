// Corner-aware MCMM engine (merge/mcmm_session.h, docs/MCMM.md):
//   - a C == 1 McmmSession is byte-identical to the flat batch engine on
//     the 10-mode paper-style family (the corner machinery adds nothing);
//   - conflict verdicts attribute the first conflicting corner (name + id)
//     at C > 1 and keep flat defaults at C == 1;
//   - update_mode on ONE corner re-checks only that corner's value slots;
//   - a corner-delta edit re-fills only the value table — the skeleton is
//     never re-extracted — and a structurally broken corner falls back to
//     full extraction without changing any verdict.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/corner_gen.h"
#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "gen/paper_circuit.h"
#include "merge/corner.h"
#include "merge/mcmm_session.h"
#include "merge/mergeability.h"
#include "merge/merger.h"
#include "obs/journal.h"
#include "obs/journal_reader.h"
#include "sdc/parser.h"
#include "sdc/writer.h"

namespace mm::merge {
namespace {

/// The 10-mode paper-style family (two planted mergeable groups) on a
/// small generated design, plus the Figure-1 circuit for hand-built pairs.
class McmmTest : public ::testing::Test {
 protected:
  McmmTest() {
    dp_.seed = 11;
    dp_.num_regs = 60;
    design_ = std::make_unique<netlist::Design>(
        gen::generate_design(lib_, dp_));
    graph_ = std::make_unique<timing::TimingGraph>(*design_);
    gen::ModeFamilyParams mp;
    mp.seed = 11;
    mp.num_modes = 10;
    mp.target_groups = 2;
    family_ = gen::generate_mode_family(dp_, mp);
    for (const gen::GeneratedMode& gm : family_) {
      modes_.push_back(std::make_unique<sdc::Sdc>(
          sdc::parse_sdc(gm.sdc_text, *design_)));
    }
  }

  ~McmmTest() override { obs::Journal::close(); }

  std::vector<const Sdc*> family_ptrs() const {
    std::vector<const Sdc*> out;
    for (const auto& m : modes_) out.push_back(m.get());
    return out;
  }

  netlist::Library lib_ = netlist::Library::builtin();
  gen::DesignParams dp_;
  std::unique_ptr<netlist::Design> design_;
  std::unique_ptr<timing::TimingGraph> graph_;
  std::vector<gen::GeneratedMode> family_;
  std::vector<std::unique_ptr<sdc::Sdc>> modes_;
};

TEST_F(McmmTest, SingleCornerByteIdenticalToBatchOnPaperFamily) {
  MergeOptions options;
  options.validate = false;
  const std::vector<const Sdc*> ptrs = family_ptrs();
  const MergedModeSet batch = merge_mode_set(*graph_, ptrs, options);

  McmmSession session(*graph_, CornerSet(), options);
  for (size_t m = 0; m < ptrs.size(); ++m) {
    session.add_mode(family_[m].name, {ptrs[m]});
  }
  const McmmSession::CommitResult& r = session.commit();

  ASSERT_EQ(r.cliques, batch.cliques);
  ASSERT_EQ(r.merged.size(), 1u);
  for (size_t k = 0; k < r.cliques.size(); ++k) {
    EXPECT_EQ(sdc::write_sdc(*r.merged[0][k]->merge.merged),
              sdc::write_sdc(*batch.merged[k].merge.merged))
        << "clique " << k;
  }

  MergeContext ref_ctx(options);
  const MergeabilityGraph ref(ptrs, ref_ctx);
  for (size_t i = 0; i < ptrs.size(); ++i) {
    for (size_t j = 0; j < ptrs.size(); ++j) {
      EXPECT_EQ(session.graph().edge(i, j), ref.edge(i, j));
      EXPECT_EQ(session.graph().reason(i, j), ref.reason(i, j));
    }
  }
}

TEST_F(McmmTest, ConflictVerdictNamesTheFirstConflictingCorner) {
  const netlist::Design paper = gen::paper_circuit(lib_);
  auto parse = [&](const std::string& text) {
    return sdc::parse_sdc(text, paper);
  };
  // Corner 0 agrees, corner 1 disagrees on the uncertainty value.
  const sdc::Sdc a0 = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n");
  const sdc::Sdc a1 = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.33 [get_clocks c]\n");
  const sdc::Sdc b0 = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n");
  const sdc::Sdc b1 = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.5 [get_clocks c]\n");

  MergeOptions options;
  MergeContext ctx(options);
  const auto ra0 = ctx.relationships(a0);
  const auto ra1 = ctx.relationships(a1);
  const auto rb0 = ctx.relationships(b0);
  const auto rb1 = ctx.relationships(b1);

  const CornerSet corners({"slow", "fast"});
  const PairVerdict v = check_mergeable_corners(
      {ra0.get(), ra1.get()}, {rb0.get(), rb1.get()}, corners, options);
  EXPECT_FALSE(v.mergeable);
  EXPECT_EQ(v.corner, "fast");
  EXPECT_EQ(v.corner_id, 1u);
  EXPECT_EQ(v.corners_checked, 2u);

  // Every corner agreeing reports C corners checked and no corner name.
  const PairVerdict ok = check_mergeable_corners(
      {ra0.get(), ra1.get()}, {rb0.get(), ra1.get()}, corners, options);
  EXPECT_TRUE(ok.mergeable);
  EXPECT_TRUE(ok.corner.empty());
  EXPECT_EQ(ok.corners_checked, 2u);

  // A C == 1 conflict is the flat verdict member for member: the corner
  // accounting stays at its defaults.
  const PairVerdict flat = check_mergeable_corners(
      {ra1.get()}, {rb1.get()}, CornerSet({"only"}), options);
  EXPECT_FALSE(flat.mergeable);
  EXPECT_TRUE(flat.corner.empty());
  EXPECT_EQ(flat.corner_id, 0u);
  EXPECT_EQ(flat.corners_checked, 0u);
}

TEST_F(McmmTest, JournalAndExplainCarryCornerProvenance) {
  const netlist::Design paper = gen::paper_circuit(lib_);
  const timing::TimingGraph pgraph(paper);
  auto parse = [&](const std::string& text) {
    return sdc::parse_sdc(text, paper);
  };
  const sdc::Sdc shared = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n");
  const sdc::Sdc conflicting = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.7 [get_clocks c]\n");

  const sdc::Sdc shared_again = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n");

  const std::string path = ::testing::TempDir() + "/mcmm_journal.jsonl";
  ASSERT_TRUE(obs::Journal::open(path));
  std::vector<size_t> cliques_merged;  // per commit
  {
    MergeOptions options;
    options.validate = false;
    McmmSession session(pgraph, CornerSet({"typ", "hot"}), options);
    const McmmSession::ModeId a = session.add_mode("A", {&shared, &shared});
    session.add_mode("B", {&shared, &conflicting});
    cliques_merged.push_back(session.commit().cliques_merged);
    // Re-derive A's typ slot only: the pair stays in conflict through the
    // stored hot verdict, and only A's typ clique re-merges.
    session.update_mode(a, 0, &shared_again);
    cliques_merged.push_back(session.commit().cliques_merged);
  }
  obs::Journal::close();
  EXPECT_EQ(cliques_merged, (std::vector<size_t>{4, 1}));

  const obs::JournalData journal = obs::read_journal(path);
  size_t verdicts = 0;
  std::vector<size_t> refines(2, 0), equivalences(2, 0);
  for (const obs::JournalRecord& rec : journal.events) {
    const uint64_t commit = rec.json.uint("commit");
    if (rec.ev == "refine" || rec.ev == "equivalence") {
      ASSERT_TRUE(commit == 1 || commit == 2);
      ++(rec.ev == "refine" ? refines : equivalences)[commit - 1];
      EXPECT_FALSE(rec.json.str("corner").empty());
      continue;
    }
    if (rec.ev != "pair_verdict") continue;
    ++verdicts;
    EXPECT_EQ(rec.json.uint("corners_checked"), 2u);
    EXPECT_EQ(rec.json.str("corner"), "hot");
    EXPECT_EQ(rec.json.uint("corner_id"), 1u);
    // Commit 1 extracted both modes; commit 2 only A's typ slot.
    EXPECT_TRUE(rec.json.boolean("a_rels_fresh", false));
    EXPECT_EQ(rec.json.boolean("b_rels_fresh", false), commit == 1);
  }
  EXPECT_EQ(verdicts, 2u);
  EXPECT_EQ(refines, cliques_merged);
  EXPECT_EQ(equivalences, cliques_merged);

  const std::string rendered = obs::explain_pair(journal, "A", "B");
  EXPECT_NE(rendered.find("commit 1 (session"), std::string::npos);
  const std::string commit1 = rendered.substr(
      rendered.find("commit 1 (session"),
      rendered.find("commit 2 (session") - rendered.find("commit 1 (session"));
  EXPECT_NE(commit1.find("A: id 1, relationships recomputed"),
            std::string::npos)
      << rendered;
  EXPECT_NE(commit1.find("B: id 2, relationships recomputed"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("B: id 2, relationships cache-carried"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("corners: 2 checked"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("conflict in corner hot"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("first conflicting corner: hot"),
            std::string::npos)
      << rendered;
}

TEST_F(McmmTest, UpdateModeOnOneCornerRechecksOnlyThatCorner) {
  const netlist::Design paper = gen::paper_circuit(lib_);
  const timing::TimingGraph pgraph(paper);
  const std::string text =
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n";
  const sdc::Sdc deck = sdc::parse_sdc(text, paper);

  MergeOptions options;
  options.validate = false;
  McmmSession session(pgraph, CornerSet({"c0", "c1"}), options);
  const McmmSession::ModeId a = session.add_mode("A", {&deck, &deck});
  session.add_mode("B", {&deck, &deck});
  session.add_mode("C", {&deck, &deck});

  const McmmSession::CommitResult& first = session.commit();
  EXPECT_EQ(first.pairs_rechecked, 3u);
  EXPECT_EQ(first.pair_corner_checks, 6u);  // 3 pairs x 2 corners, all fresh
  EXPECT_EQ(first.pair_corner_reuses, 0u);

  // Replace ONE corner's deck for A (equal content, new object): only A's
  // corner-1 slots may be value-rechecked; every corner-0 verdict and the
  // untouched B-C pair carry over.
  const sdc::Sdc updated = sdc::parse_sdc(text, paper);
  session.update_mode(a, 1, &updated);
  const McmmSession::CommitResult& second = session.commit();
  EXPECT_EQ(second.pairs_rechecked, 2u);      // A-B and A-C
  EXPECT_EQ(second.pairs_skipped_clean, 1u);  // B-C
  EXPECT_EQ(second.pair_corner_checks, 2u);   // only corner 1 of A's pairs
  // A's pairs reuse corner 0; the clean pair reuses both corners.
  EXPECT_EQ(second.pair_corner_reuses, 4u);
  EXPECT_EQ(second.cliques.size(), 1u);
}

TEST_F(McmmTest, CornerDeltaEditRefillsValuesWithoutSkeletonReextraction) {
  MergeOptions options;
  options.validate = false;
  const size_t num_modes = 4;
  const size_t num_corners = 3;

  gen::CornerFamilyParams cp;
  cp.num_corners = num_corners;
  const std::vector<gen::CornerSpec> specs = gen::make_corner_specs(cp);

  // matrix[m][c], built from the first num_modes family members.
  std::vector<std::vector<sdc::Sdc>> matrix(num_modes);
  for (size_t m = 0; m < num_modes; ++m) {
    for (const gen::CornerSpec& spec : specs) {
      matrix[m].push_back(sdc::parse_sdc(
          gen::apply_corner(family_[m].sdc_text, spec), *design_));
    }
  }

  McmmSession session(*graph_, CornerSet({"c0", "c1", "c2"}), options);
  std::vector<McmmSession::ModeId> ids;
  for (size_t m = 0; m < num_modes; ++m) {
    std::vector<const Sdc*> decks;
    for (size_t c = 0; c < num_corners; ++c) decks.push_back(&matrix[m][c]);
    ids.push_back(session.add_mode(family_[m].name, decks));
  }
  session.commit();

  // M skeleton extractions + M * (C - 1) value-only delta fills — never
  // M * C full extractions.
  RelationshipCache::Stats stats = session.context().cache().stats();
  EXPECT_EQ(stats.delta_fills, num_modes * (num_corners - 1));
  EXPECT_EQ(stats.skeleton_mismatches, 0u);
  EXPECT_EQ(stats.misses - stats.delta_fills - stats.skeleton_mismatches,
            num_modes);

  // A value-only edit to one corner deck: exactly one more delta fill, and
  // the skeleton is NOT re-extracted (the full-extraction count is flat).
  gen::CornerSpec hotter = specs[2];
  hotter.clock_scale = 1.31;
  const sdc::Sdc edited = sdc::parse_sdc(
      gen::apply_corner(family_[0].sdc_text, hotter), *design_);
  session.update_mode(ids[0], 2, &edited);
  session.commit();

  stats = session.context().cache().stats();
  EXPECT_EQ(stats.delta_fills, num_modes * (num_corners - 1) + 1);
  EXPECT_EQ(stats.skeleton_mismatches, 0u);
  EXPECT_EQ(stats.misses - stats.delta_fills - stats.skeleton_mismatches,
            num_modes);
}

TEST_F(McmmTest, StructuralBreakCornerFallsBackWithoutChangingVerdicts) {
  MergeOptions options;
  options.validate = false;

  gen::CornerFamilyParams cp;
  cp.num_corners = 2;
  cp.structural_break_corner = 1;  // corner 1 grows an extra drive channel
  const std::vector<gen::CornerSpec> specs = gen::make_corner_specs(cp);

  const size_t num_modes = 2;
  std::vector<std::vector<sdc::Sdc>> matrix(num_modes);
  for (size_t m = 0; m < num_modes; ++m) {
    for (const gen::CornerSpec& spec : specs) {
      matrix[m].push_back(sdc::parse_sdc(
          gen::apply_corner(family_[m].sdc_text, spec), *design_));
    }
  }

  McmmSession session(*graph_, CornerSet({"c0", "c1"}), options);
  for (size_t m = 0; m < num_modes; ++m) {
    session.add_mode(family_[m].name, {&matrix[m][0], &matrix[m][1]});
  }
  const McmmSession::CommitResult& r = session.commit();

  // Both decks of the broken corner diverged from their skeletons.
  const RelationshipCache::Stats stats = session.context().cache().stats();
  EXPECT_EQ(stats.skeleton_mismatches, num_modes);

  // The fallback full check must agree with the flat engine per corner.
  for (size_t c = 0; c < 2; ++c) {
    const PairVerdict flat =
        check_mergeable(matrix[0][c], matrix[1][c], options);
    EXPECT_EQ(session.graph().edge(0, 1), flat.mergeable) << "corner " << c;
  }
  ASSERT_EQ(r.merged.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    const std::vector<const Sdc*> corner_ptrs = {&matrix[0][c],
                                                 &matrix[1][c]};
    const MergedModeSet flat = merge_mode_set(*graph_, corner_ptrs, options);
    ASSERT_EQ(flat.cliques, r.cliques) << "corner " << c;
    for (size_t k = 0; k < r.cliques.size(); ++k) {
      EXPECT_EQ(sdc::write_sdc(*r.merged[c][k]->merge.merged),
                sdc::write_sdc(*flat.merged[k].merge.merged))
          << "corner " << c << " clique " << k;
    }
  }
}

}  // namespace
}  // namespace mm::merge
