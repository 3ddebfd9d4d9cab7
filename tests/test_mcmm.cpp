// Corner-aware MCMM engine (merge/mcmm_session.h, docs/MCMM.md):
//   - a C == 1 McmmSession is byte-identical to the flat batch engine on
//     the 10-mode paper-style family (the corner machinery adds nothing);
//   - conflict verdicts attribute the first conflicting corner (name + id)
//     at C > 1 and keep flat defaults at C == 1;
//   - update_mode on ONE corner re-checks only that corner's value slots;
//   - a corner-delta edit re-fills only the value table — the skeleton is
//     never re-extracted — and a structurally broken corner falls back to
//     full extraction without changing any verdict;
//   - corners with corner 0's timing state take corner 0's fix list and
//     equivalence report (one full merge per clique on a value-only
//     family), a corner with its own case analysis falls back to a full
//     merge, and every result is byte-equal to a flat merge of its corner;
//   - a batch merge, a session's view-keeping commits and a corner-sharing
//     session give the same bytes, journal and counters at 1 and 4 pool
//     threads, though dirty cliques merge in parallel.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <regex>
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
#include "obs/metrics.h"
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

uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Per-corner byte parity of a commit against C flat merges of each
/// corner's live decks, equivalence reports included.
void expect_flat_parity(const timing::TimingGraph& graph,
                        const McmmSession& session,
                        const MergeOptions& options) {
  const McmmSession::CommitResult& r = session.last_commit();
  for (CornerId c = 0; c < session.corners().size(); ++c) {
    const MergedModeSet flat =
        merge_mode_set(graph, session.corner_modes(c), options);
    ASSERT_EQ(flat.cliques, r.cliques) << "corner " << c;
    for (size_t k = 0; k < r.cliques.size(); ++k) {
      const ValidatedMergeResult& got = *r.merged[c][k];
      const ValidatedMergeResult& want = flat.merged[k];
      EXPECT_EQ(sdc::write_sdc(*got.merge.merged),
                sdc::write_sdc(*want.merge.merged))
          << "corner " << c << " clique " << k;
      EXPECT_EQ(got.merge.notes, want.merge.notes)
          << "corner " << c << " clique " << k;
      EXPECT_EQ(got.merge.stats.pass1_mismatch_fixed,
                want.merge.stats.pass1_mismatch_fixed);
      EXPECT_EQ(got.merge.stats.clock_stops_added,
                want.merge.stats.clock_stops_added);
      EXPECT_EQ(got.equivalence.keys_compared, want.equivalence.keys_compared)
          << "corner " << c << " clique " << k;
      EXPECT_EQ(got.equivalence.matches, want.equivalence.matches);
      EXPECT_EQ(got.equivalence.pessimism_keys,
                want.equivalence.pessimism_keys);
      EXPECT_EQ(got.equivalence.optimism_violations,
                want.equivalence.optimism_violations);
    }
  }
}

/// A corner matrix over the fixture design: decks[m][c], parsed.
struct CornerMatrix {
  gen::CornerFamily fam;
  std::vector<std::vector<std::unique_ptr<sdc::Sdc>>> decks;
  std::vector<std::string> corner_names;
};

CornerMatrix make_corner_matrix(const netlist::Design& design,
                                const gen::DesignParams& dp,
                                size_t num_modes, size_t groups,
                                size_t num_corners) {
  gen::ModeFamilyParams mp;
  mp.seed = 5;
  mp.num_modes = num_modes;
  mp.target_groups = groups;
  mp.group_mcps = 4;
  mp.mode_fps = 6;
  gen::CornerFamilyParams cp;
  cp.num_corners = num_corners;
  CornerMatrix out;
  out.fam = gen::generate_corner_family(dp, mp, cp);
  for (const gen::CornerSpec& spec : out.fam.corners) {
    out.corner_names.push_back(spec.name);
  }
  for (const std::vector<std::string>& row : out.fam.sdc_texts) {
    out.decks.emplace_back();
    for (const std::string& text : row) {
      out.decks.back().push_back(
          std::make_unique<sdc::Sdc>(sdc::parse_sdc(text, design)));
    }
  }
  return out;
}

McmmSession::ModeId add_row(McmmSession& session, const CornerMatrix& mx,
                            size_t m) {
  std::vector<const Sdc*> decks;
  for (const auto& d : mx.decks[m]) decks.push_back(d.get());
  return session.add_mode(mx.fam.modes[m].name, decks);
}

TEST_F(McmmTest, ValueOnlyFamilyRefinesEachCliqueOnce) {
  const CornerMatrix mx =
      make_corner_matrix(*design_, dp_, /*num_modes=*/16, /*groups=*/4,
                         /*num_corners=*/4);
  MergeOptions options;  // validation on: the report is shared too
  McmmSession session(*graph_, CornerSet(mx.corner_names), options);
  for (size_t m = 0; m < mx.decks.size(); ++m) add_row(session, mx, m);

  const uint64_t shared_before = counter("session/corner_shared_merges");
  const uint64_t fallbacks_before = counter("session/corner_share_fallbacks");
  const McmmSession::CommitResult& r = session.commit();
  ASSERT_EQ(r.cliques.size(), 4u);
  EXPECT_EQ(r.cliques_merged, 16u);
  // 4 full merges in corner 0, 12 shared ones in corners 1..3.
  EXPECT_EQ(r.corner_shared_merges, 12u);
  EXPECT_EQ(r.corner_share_fallbacks, 0u);
  EXPECT_EQ(counter("session/corner_shared_merges") - shared_before, 12u);
  EXPECT_EQ(counter("session/corner_share_fallbacks") - fallbacks_before, 0u);
  for (CornerId c = 0; c < 4; ++c) {
    for (const auto& result : r.merged[c]) {
      EXPECT_EQ(result->shared, c != kPrimaryCorner);
      if (!result->shared) continue;
      // No refinement or validation ran for a shared result.
      EXPECT_EQ(result->merge.stats.refinement_seconds, 0.0);
      EXPECT_EQ(result->merge.stats.validate_seconds, 0.0);
      EXPECT_EQ(result->merge.stats.pass1_seconds, 0.0);
    }
  }
  expect_flat_parity(*graph_, session, options);
}

TEST_F(McmmTest, CaseAnalysisEditFallsBackInItsCornerOnly) {
  const CornerMatrix mx =
      make_corner_matrix(*design_, dp_, /*num_modes=*/6, /*groups=*/2,
                         /*num_corners=*/4);
  MergeOptions options;
  McmmSession session(*graph_, CornerSet(mx.corner_names), options);
  std::vector<McmmSession::ModeId> ids;
  for (size_t m = 0; m < mx.decks.size(); ++m) {
    ids.push_back(add_row(session, mx, m));
  }
  session.commit();

  // Edit every corner of mode 0; only corner 2 gains a case analysis on a
  // data-network pin (a timing-state change mergeability does not see).
  std::vector<std::unique_ptr<sdc::Sdc>> edited;
  for (CornerId c = 0; c < 4; ++c) {
    gen::CornerSpec spec = mx.fam.corners[c];
    if (c == 2) spec.timing_state_break = gen::TimingStateBreak::kCaseAnalysis;
    edited.push_back(std::make_unique<sdc::Sdc>(sdc::parse_sdc(
        gen::apply_corner(mx.fam.modes[0].sdc_text, spec), *design_)));
    session.update_mode(ids[0], c, edited.back().get());
  }
  const McmmSession::CommitResult& r = session.commit();
  EXPECT_EQ(r.cliques_merged, 4u);  // mode 0's clique, once per corner
  EXPECT_EQ(r.corner_shared_merges, 2u);    // corners 1 and 3
  EXPECT_EQ(r.corner_share_fallbacks, 1u);  // corner 2
  size_t k0 = 0;
  while (std::find(r.clique_ids[k0].begin(), r.clique_ids[k0].end(),
                   ids[0]) == r.clique_ids[k0].end()) {
    ++k0;
  }
  EXPECT_FALSE(r.merged[2][k0]->shared);
  EXPECT_TRUE(r.merged[1][k0]->shared);
  expect_flat_parity(*graph_, session, options);

  // Restore corner 2 alone: its one re-merge takes the fix list of corner
  // 0's reused result.
  const sdc::Sdc restored = sdc::parse_sdc(
      gen::apply_corner(mx.fam.modes[0].sdc_text, mx.fam.corners[2]),
      *design_);
  session.update_mode(ids[0], 2, &restored);
  const McmmSession::CommitResult& again = session.commit();
  EXPECT_EQ(again.cliques_merged, 1u);
  EXPECT_EQ(again.corner_shared_merges, 1u);
  EXPECT_EQ(again.corner_share_fallbacks, 0u);
  EXPECT_TRUE(again.reused[0][k0]);
  expect_flat_parity(*graph_, session, options);
}

// Member views are per (mode, corner) slot: a corner that falls back to a
// full merge builds and keeps views of its own decks, and its next
// re-merge walks only the deck that changed.
TEST_F(McmmTest, FallbackCornerKeepsItsOwnMemberViews) {
  const CornerMatrix mx =
      make_corner_matrix(*design_, dp_, /*num_modes=*/6, /*groups=*/2,
                         /*num_corners=*/4);
  MergeOptions options;
  McmmSession session(*graph_, CornerSet(mx.corner_names), options);
  std::vector<McmmSession::ModeId> ids;
  for (size_t m = 0; m < mx.decks.size(); ++m) {
    ids.push_back(add_row(session, mx, m));
  }
  const McmmSession::CommitResult& cold = session.commit();
  EXPECT_EQ(session.num_member_views(), 0u);  // the first commit keeps none
  size_t k0 = 0;
  while (std::find(cold.clique_ids[k0].begin(), cold.clique_ids[k0].end(),
                   ids[0]) == cold.clique_ids[k0].end()) {
    ++k0;
  }
  const std::vector<McmmSession::ModeId> clique = cold.clique_ids[k0];
  ASSERT_GE(clique.size(), 2u);
  const McmmSession::ModeId other = clique[0] == ids[0] ? clique[1] : clique[0];
  const size_t other_m = static_cast<size_t>(
      std::find(ids.begin(), ids.end(), other) - ids.begin());

  // Mode 0 gains a case analysis in corner 2 only: corner 2 falls back to
  // a full merge, corners 1 and 3 share corner 0's result.
  auto broken = [&](size_t m) {
    gen::CornerSpec spec = mx.fam.corners[2];
    spec.timing_state_break = gen::TimingStateBreak::kCaseAnalysis;
    return std::make_unique<sdc::Sdc>(sdc::parse_sdc(
        gen::apply_corner(mx.fam.modes[m].sdc_text, spec), *design_));
  };
  const std::unique_ptr<sdc::Sdc> edited = broken(0);
  session.update_mode(ids[0], 2, edited.get());
  const uint64_t built = counter("session/member_views_built");
  const McmmSession::CommitResult& r = session.commit();
  EXPECT_EQ(r.corner_share_fallbacks, 1u);
  EXPECT_FALSE(r.merged[2][k0]->shared);
  // Only corner 2's clique re-merged, with a full merge: one view per
  // member, all of corner-2 decks.
  EXPECT_EQ(counter("session/member_views_built") - built, clique.size());
  EXPECT_EQ(session.num_member_views(), clique.size());
  expect_flat_parity(*graph_, session, options);

  // Another member's corner-2 deck changes too: the corner falls back
  // again, walking only that deck.
  const std::unique_ptr<sdc::Sdc> edited_other = broken(other_m);
  session.update_mode(other, 2, edited_other.get());
  const uint64_t built2 = counter("session/member_views_built");
  const uint64_t reused2 = counter("session/member_views_reused");
  const McmmSession::CommitResult& again = session.commit();
  EXPECT_EQ(again.cliques_merged, 1u);
  EXPECT_EQ(again.corner_share_fallbacks, 1u);
  EXPECT_EQ(counter("session/member_views_built") - built2, 1u);
  EXPECT_EQ(counter("session/member_views_reused") - reused2,
            clique.size() - 1);
  expect_flat_parity(*graph_, session, options);

  // release_batch drops every view.
  session.release_batch();
  EXPECT_EQ(session.num_member_views(), 0u);
}

TEST_F(McmmTest, DebugMutationNeverShares) {
  const CornerMatrix mx =
      make_corner_matrix(*design_, dp_, /*num_modes=*/4, /*groups=*/1,
                         /*num_corners=*/2);
  MergeOptions options;
  options.debug_mutation = DebugMutation::kDropExceptions;
  McmmSession session(*graph_, CornerSet(mx.corner_names), options);
  for (size_t m = 0; m < mx.decks.size(); ++m) add_row(session, mx, m);
  const McmmSession::CommitResult& r = session.commit();
  EXPECT_EQ(r.corner_shared_merges, 0u);
  EXPECT_EQ(r.corner_share_fallbacks, r.cliques.size());
}

// --- thread-count independence ----------------------------------------------

/// What a run produces that must not depend on the pool size: every
/// commit's merged SDC bytes, its CommitResult counters and member-view
/// counter deltas, and the journal. Journal fields that legitimately vary
/// are stripped: wall-clock `*_ms` and the process-wide `seq` and `session`
/// numbers.
struct RunRecord {
  std::vector<std::string> sdc;
  std::vector<std::vector<size_t>> counts;
  std::vector<std::string> journal;
};

/// Where record_commit puts the member-view deltas in a commit's counts.
constexpr size_t kViewsBuilt = 9;
constexpr size_t kViewsReused = 10;

void record_commit(RunRecord& rec, const McmmSession::CommitResult& r,
                   uint64_t views_built, uint64_t views_reused) {
  for (const auto& corner : r.merged) {
    for (const auto& result : corner) {
      rec.sdc.push_back(sdc::write_sdc(*result->merge.merged));
    }
  }
  std::vector<size_t> counts = {
      r.cliques.size(),         r.pairs_rechecked,
      r.pairs_skipped_clean,    r.pair_corner_checks,
      r.pair_corner_reuses,     r.cliques_merged,
      r.cliques_reused,         r.corner_shared_merges,
      r.corner_share_fallbacks, static_cast<size_t>(views_built),
      static_cast<size_t>(views_reused)};
  for (const auto& corner : r.reused) {
    for (bool reused : corner) counts.push_back(reused ? 1 : 0);
  }
  for (const auto& clique : r.cliques) {
    counts.insert(counts.end(), clique.begin(), clique.end());
  }
  rec.counts.push_back(std::move(counts));
}

std::vector<std::string> stable_journal(const std::string& path) {
  static const std::regex varying(R"re(,"(seq|session|\w+_ms)":\d+)re");
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(std::regex_replace(line, varying, ""));
  }
  return lines;
}

/// Run `body(options)` at `threads` pool threads with the journal on.
template <typename Body>
RunRecord run_at(size_t threads, const std::string& name, Body&& body) {
  const std::string path = ::testing::TempDir() + "/threads_" + name + "_" +
                           std::to_string(threads) + ".jsonl";
  EXPECT_TRUE(obs::Journal::open(path));
  MergeOptions options;
  options.num_threads = threads;
  RunRecord rec;
  body(options, rec);
  obs::Journal::close();
  rec.journal = stable_journal(path);
  return rec;
}

/// Commit `session` and record the result with its member-view deltas.
void commit_and_record(McmmSession& session, RunRecord& rec) {
  const uint64_t built = counter("session/member_views_built");
  const uint64_t reused = counter("session/member_views_reused");
  const McmmSession::CommitResult& r = session.commit();
  record_commit(rec, r, counter("session/member_views_built") - built,
                counter("session/member_views_reused") - reused);
}

void expect_same_run(const RunRecord& one, const RunRecord& four) {
  ASSERT_EQ(one.sdc.size(), four.sdc.size());
  for (size_t i = 0; i < one.sdc.size(); ++i) {
    EXPECT_EQ(one.sdc[i], four.sdc[i]) << "merged deck " << i;
  }
  EXPECT_EQ(one.counts, four.counts);
  ASSERT_GT(one.journal.size(), 1u);  // more than the header
  ASSERT_EQ(one.journal.size(), four.journal.size());
  for (size_t i = 0; i < one.journal.size(); ++i) {
    EXPECT_EQ(one.journal[i], four.journal[i]) << "journal line " << i;
  }
}

TEST_F(McmmTest, BatchMergeIsThreadCountIndependent) {
  auto batch = [&](const MergeOptions& options, RunRecord& rec) {
    const MergedModeSet out = merge_mode_set(*graph_, family_ptrs(), options);
    ASSERT_GE(out.cliques.size(), 2u);  // cliques to merge in parallel
    for (const ValidatedMergeResult& r : out.merged) {
      rec.sdc.push_back(sdc::write_sdc(*r.merge.merged));
      rec.counts.push_back({r.equivalence.keys_compared, r.equivalence.matches,
                            r.equivalence.pessimism_keys,
                            r.equivalence.optimism_violations});
    }
  };
  expect_same_run(run_at(1, "batch", batch), run_at(4, "batch", batch));
}

TEST_F(McmmTest, ViewKeepingCommitsAreThreadCountIndependent) {
  auto session_run = [&](const MergeOptions& options, RunRecord& rec) {
    McmmSession session(*graph_, CornerSet(), options);
    const std::vector<const Sdc*> ptrs = family_ptrs();
    std::vector<McmmSession::ModeId> ids;
    for (size_t m = 0; m < ptrs.size(); ++m) {
      ids.push_back(session.add_mode(family_[m].name, {ptrs[m]}));
    }
    commit_and_record(session, rec);
    ASSERT_GE(session.last_commit().cliques.size(), 2u);
    // Re-merge every clique: the second commit builds and keeps views.
    for (size_t m = 0; m < ids.size(); m += 2) {
      session.update_mode(ids[m], kPrimaryCorner, ptrs[m]);
    }
    commit_and_record(session, rec);
    // One more edit: its clique reuses the other members' views.
    session.update_mode(ids[1], kPrimaryCorner, ptrs[1]);
    session.update_mode(ids[ids.size() - 1], kPrimaryCorner,
                        ptrs[ids.size() - 1]);
    commit_and_record(session, rec);
  };
  const RunRecord one = run_at(1, "session", session_run);
  expect_same_run(one, run_at(4, "session", session_run));
  // The runs kept views in commit 2 and reused some in commit 3.
  ASSERT_EQ(one.counts.size(), 3u);
  EXPECT_GT(one.counts[1][kViewsBuilt], 0u);
  EXPECT_GT(one.counts[2][kViewsReused], 0u);
}

TEST_F(McmmTest, CornerSharingCommitsAreThreadCountIndependent) {
  const CornerMatrix mx =
      make_corner_matrix(*design_, dp_, /*num_modes=*/8, /*groups=*/2,
                         /*num_corners=*/2);
  auto corners_run = [&](const MergeOptions& options, RunRecord& rec) {
    McmmSession session(*graph_, CornerSet(mx.corner_names), options);
    std::vector<McmmSession::ModeId> ids;
    for (size_t m = 0; m < mx.decks.size(); ++m) {
      ids.push_back(add_row(session, mx, m));
    }
    commit_and_record(session, rec);
    ASSERT_GE(session.last_commit().cliques.size(), 2u);
    EXPECT_GT(session.last_commit().corner_shared_merges, 0u);
    for (size_t m = 0; m < ids.size(); m += 3) {
      for (CornerId c = 0; c < mx.corner_names.size(); ++c) {
        session.update_mode(ids[m], c, mx.decks[m][c].get());
      }
    }
    commit_and_record(session, rec);
  };
  expect_same_run(run_at(1, "corners", corners_run),
                  run_at(4, "corners", corners_run));
}

TEST(TimingStateFingerprintTest, CoversStateAndOmitsValues) {
  const netlist::Library lib = netlist::Library::builtin();
  const netlist::Design paper = gen::paper_circuit(lib);
  const std::string base =
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_latency 0.4 [get_clocks c]\n"
      "set_input_delay 1.0 -clock c [get_ports in1]\n";
  auto fp = [&](const std::string& extra) {
    return timing_state_fingerprint(sdc::parse_sdc(base + extra, paper));
  };
  const uint64_t ref = fp("");
  // Values a corner derates leave the timing state alone ...
  EXPECT_EQ(ref, timing_state_fingerprint(sdc::parse_sdc(
                     "create_clock -name c -period 10 [get_ports clk1]\n"
                     "set_clock_latency 0.9 [get_clocks c]\n"
                     "set_input_delay 2.5 -clock c [get_ports in1]\n",
                     paper)));
  EXPECT_EQ(ref, fp("set_clock_uncertainty -setup 0.2 [get_clocks c]\n"));
  // ... while case analysis and disables move it, though the structural
  // fingerprint (mergeability's skeleton) does not see them.
  const sdc::Sdc with_case =
      sdc::parse_sdc(base + "set_case_analysis 0 [get_ports sel1]\n", paper);
  EXPECT_NE(ref, timing_state_fingerprint(with_case));
  EXPECT_EQ(structural_fingerprint(sdc::parse_sdc(base, paper)),
            structural_fingerprint(with_case));
  EXPECT_NE(ref, fp("set_disable_timing [get_ports sel1]\n"));
  EXPECT_NE(ref, fp("set_input_delay 1.0 -clock c [get_ports sel1]\n"));
}

// The view key splits the timing state by the ModeGraph stage that reads
// it, and leaves out exceptions, which no ModeGraph reads.
TEST(TimingStateFingerprintTest, ViewKeyPartsFollowModeGraphStages) {
  const netlist::Library lib = netlist::Library::builtin();
  const netlist::Design paper = gen::paper_circuit(lib);
  const std::string base =
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_input_delay 1.0 -clock c [get_ports in1]\n";
  auto key = [&](const std::string& extra) {
    return timing_view_key(sdc::parse_sdc(base + extra, paper));
  };
  const TimingViewKey ref = key("");
  EXPECT_EQ(ref, key("set_false_path -to [get_pins rZ/D]\n"));
  const TimingViewKey with_case = key("set_case_analysis 0 [get_ports sel1]\n");
  EXPECT_NE(with_case.constants, ref.constants);
  EXPECT_EQ(with_case.arcs, ref.arcs);
  EXPECT_EQ(with_case.clocks, ref.clocks);
  const TimingViewKey with_disable = key("set_disable_timing [get_pins and1/A]\n");
  EXPECT_EQ(with_disable.constants, ref.constants);
  EXPECT_NE(with_disable.arcs, ref.arcs);
  EXPECT_EQ(with_disable.clocks, ref.clocks);
  const TimingViewKey with_stop = key(
      "set_clock_sense -stop_propagation -clock [get_clocks c] "
      "[get_pins mux1/Z]\n");
  EXPECT_EQ(with_stop.constants, ref.constants);
  EXPECT_EQ(with_stop.arcs, ref.arcs);
  EXPECT_NE(with_stop.clocks, ref.clocks);
}

}  // namespace
}  // namespace mm::merge
