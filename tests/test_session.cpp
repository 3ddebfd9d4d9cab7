// MergeSession edge cases: delta-driven commits must stay byte-identical to
// a from-scratch run over the live mode set, while re-checking only dirty
// pairs and re-merging only dirty cliques.

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/paper_circuit.h"
#include "merge/merger.h"
#include "merge/session.h"
#include "timing/mode_graph.h"
#include "obs/metrics.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include "util/rng.h"

namespace mm::merge {
namespace {

/// All count-valued MergeStats fields (everything but the wall-clock
/// seconds), for "stats modulo timing" comparisons.
std::vector<size_t> stat_counts(const MergeStats& s) {
  return {s.clocks_union,       s.clocks_deduped,
          s.clocks_renamed,     s.clock_constraints_merged,
          s.clock_constraints_dropped, s.port_delays_union,
          s.case_kept,          s.case_dropped,
          s.disables_kept,      s.disables_dropped,
          s.drive_load_kept,    s.drive_load_dropped,
          s.exclusivity_constraints,   s.exceptions_common,
          s.exceptions_uniquified,     s.exceptions_dropped,
          s.exceptions_kept_pessimistic, s.inferred_disables,
          s.clock_stops_added,  s.data_clock_fps_added,
          s.pass0_pair_fixed,   s.pass1_keys,
          s.pass1_mismatch_fixed, s.pass1_ambiguous,
          s.pass2_keys,         s.pass2_mismatch_fixed,
          s.pass2_ambiguous,    s.pass3_pairs,
          s.pass3_paths_enumerated, s.pass3_fps_added,
          s.unresolved_pessimism};
}

uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Number of completed spans of a phase (its latency histogram count).
uint64_t span_count(const std::string& phase) {
  for (const obs::HistogramSnapshot& h :
       obs::MetricsRegistry::global().snapshot().histograms) {
    if (h.name == "phase/" + phase) return h.count;
  }
  return 0;
}

/// Two views of one design agree pin for pin and arc for arc.
void expect_same_view(const timing::ModeGraph& got,
                      const timing::ModeGraph& want) {
  const timing::TimingGraph& g = want.graph();
  for (size_t p = 0; p < g.num_nodes(); ++p) {
    const PinId pin(p);
    ASSERT_EQ(got.constant(pin), want.constant(pin)) << "pin " << p;
    const auto a = got.clocks_on(pin);
    const auto b = want.clocks_on(pin);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "clocks_on at pin " << p;
    const auto ca = got.capture_clocks_at(pin);
    const auto cb = want.capture_clocks_at(pin);
    ASSERT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()))
        << "capture_clocks_at pin " << p;
  }
  for (size_t a = 0; a < g.num_arcs(); ++a) {
    ASSERT_EQ(got.arc_enabled(timing::ArcId(a)),
              want.arc_enabled(timing::ArcId(a)))
        << "arc " << a;
  }
  EXPECT_EQ(got.active_startpoints(), want.active_startpoints());
  EXPECT_EQ(got.active_endpoints(), want.active_endpoints());
}

class SessionTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);
  timing::TimingGraph graph{design};

  sdc::Sdc parse(const std::string& text) {
    return sdc::parse_sdc(text, design);
  }

  /// The last commit must match a from-scratch merge_mode_set (fresh
  /// context, same options) over the live modes: clique cover, mergeability
  /// graph + reasons, merged SDC bytes, equivalence verdicts, and
  /// count-valued stats.
  void expect_matches_scratch(MergeSession& session) {
    const MergeSession::CommitResult& r = session.last_commit();
    const std::vector<const Sdc*> live = session.live_modes();
    const MergeOptions options = session.context().options();

    const MergedModeSet scratch = merge_mode_set(graph, live, options);
    ASSERT_EQ(r.cliques, scratch.cliques);
    ASSERT_EQ(r.merged.size(), scratch.merged.size());
    for (size_t i = 0; i < r.merged.size(); ++i) {
      EXPECT_EQ(sdc::write_sdc(*r.merged[i]->merge.merged),
                sdc::write_sdc(*scratch.merged[i].merge.merged))
          << "clique " << i;
      EXPECT_EQ(stat_counts(r.merged[i]->merge.stats),
                stat_counts(scratch.merged[i].merge.stats))
          << "clique " << i;
      const EquivalenceReport& a = r.merged[i]->equivalence;
      const EquivalenceReport& b = scratch.merged[i].equivalence;
      EXPECT_EQ(a.keys_compared, b.keys_compared);
      EXPECT_EQ(a.optimism_violations, b.optimism_violations);
      EXPECT_EQ(a.pessimism_keys, b.pessimism_keys);
      EXPECT_EQ(a.state_mismatches, b.state_mismatches);
    }

    MergeContext ref_ctx(options);
    const MergeabilityGraph ref(live, ref_ctx);
    ASSERT_EQ(session.graph().num_modes(), ref.num_modes());
    for (size_t i = 0; i < ref.num_modes(); ++i) {
      for (size_t j = 0; j < ref.num_modes(); ++j) {
        EXPECT_EQ(session.graph().edge(i, j), ref.edge(i, j));
        EXPECT_EQ(session.graph().reason(i, j), ref.reason(i, j));
      }
    }
  }
};

// A-B mergeable, B-C mergeable, A-C conflict: the greedy cover merges
// {A, B} and leaves {C}. Removing B — the middle of the merged clique —
// must re-partition the cover, not just shrink the clique.
TEST_F(SessionTest, RemoveModeFromMiddleOfClique) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n");
  sdc::Sdc b = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  sdc::Sdc c = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.9 [get_clocks c]\n");

  MergeSession session(graph);
  session.add_mode("a", &a);
  const MergeSession::ModeId id_b = session.add_mode("b", &b);
  session.add_mode("c", &c);

  const MergeSession::CommitResult& first = session.commit();
  ASSERT_EQ(first.cliques.size(), 2u);
  EXPECT_EQ(first.cliques[0], (std::vector<size_t>{0, 1}));
  expect_matches_scratch(session);

  session.remove_mode(id_b);
  const MergeSession::CommitResult& second = session.commit();
  // a and c conflict: two singletons now.
  EXPECT_EQ(second.cliques.size(), 2u);
  EXPECT_EQ(second.pairs_rechecked, 0u);  // removal re-checks nothing
  EXPECT_EQ(second.cliques_reused, 1u);   // the untouched {c} singleton
  EXPECT_EQ(second.cliques_merged, 1u);   // {a} has a new membership key
  expect_matches_scratch(session);
}

TEST_F(SessionTest, ReAddIdenticalModeCostsOneExtraction) {
  const std::string text_a =
      "create_clock -name c -period 10 [get_ports clk1]\n";
  const std::string text_b =
      "create_clock -name c2 -period 20 [get_ports clk2]\n";
  sdc::Sdc a = parse(text_a), b = parse(text_b), b2 = parse(text_b);

  MergeSession session(graph);
  session.add_mode("a", &a);
  const MergeSession::ModeId id_b = session.add_mode("b", &b);
  const MergeSession::CommitResult& first = session.commit();
  const std::string first_bytes = sdc::write_sdc(*first.merged[0]->merge.merged);

  session.remove_mode(id_b);
  session.commit();

  // Re-adding a byte-identical deck costs exactly one extraction (the new
  // slot's), and only the re-added mode's M-1 pairs are checked; the
  // clique merge reads the slots' sets and extracts nothing.
  const uint64_t built_before = session.context().builder().stats().misses;
  const uint64_t rechecked_before = counter("session/pairs_rechecked");
  session.add_mode("b-again", &b2);
  const MergeSession::CommitResult& third = session.commit();

  EXPECT_EQ(session.context().builder().stats().misses - built_before, 1u);
  EXPECT_EQ(counter("session/pairs_rechecked") - rechecked_before, 1u);
  EXPECT_EQ(third.pairs_rechecked, 1u);

  ASSERT_EQ(third.cliques, first.cliques);
  EXPECT_EQ(sdc::write_sdc(*third.merged[0]->merge.merged), first_bytes);
  expect_matches_scratch(session);
}

TEST_F(SessionTest, EmptySessionCommit) {
  MergeSession session(graph);
  const MergeSession::CommitResult& r = session.commit();
  EXPECT_EQ(r.num_input_modes, 0u);
  EXPECT_EQ(r.merged.size(), 0u);
  EXPECT_EQ(r.pairs_rechecked, 0u);

  // Draining the session back to empty commits cleanly too.
  sdc::Sdc a = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  const MergeSession::ModeId id = session.add_mode("a", &a);
  session.commit();
  session.remove_mode(id);
  const MergeSession::CommitResult& drained = session.commit();
  EXPECT_EQ(drained.merged.size(), 0u);
  EXPECT_EQ(session.graph().num_modes(), 0u);
}

TEST_F(SessionTest, UpdateFlipsPairFromMergeableToConflicting) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n");
  sdc::Sdc b_ok = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  sdc::Sdc b_conflict = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.9 [get_clocks c]\n");

  MergeSession session(graph);
  session.add_mode("a", &a);
  const MergeSession::ModeId id_b = session.add_mode("b", &b_ok);
  const MergeSession::CommitResult& first = session.commit();
  ASSERT_EQ(first.cliques.size(), 1u);
  const std::string first_bytes =
      sdc::write_sdc(*first.merged[0]->merge.merged);

  session.update_mode(id_b, &b_conflict);
  const MergeSession::CommitResult& second = session.commit();
  EXPECT_EQ(second.pairs_rechecked, 1u);
  EXPECT_EQ(second.cliques.size(), 2u);
  EXPECT_NE(session.graph().reason(0, 1).find("uncertainty"),
            std::string::npos);
  expect_matches_scratch(session);

  // Reverting the edit restores the original single-clique result bytes.
  session.update_mode(id_b, &b_ok);
  const MergeSession::CommitResult& third = session.commit();
  ASSERT_EQ(third.cliques.size(), 1u);
  EXPECT_EQ(sdc::write_sdc(*third.merged[0]->merge.merged), first_bytes);
}

TEST_F(SessionTest, NoDeltaCommitReusesEveryCliqueByPointer) {
  sdc::Sdc a = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  sdc::Sdc b = parse("create_clock -name c2 -period 20 [get_ports clk2]\n");
  MergeSession session(graph);
  session.add_mode("a", &a);
  session.add_mode("b", &b);

  std::vector<std::shared_ptr<const ValidatedMergeResult>> first =
      session.commit().merged;
  const MergeSession::CommitResult& second = session.commit();
  EXPECT_EQ(second.pairs_rechecked, 0u);
  EXPECT_EQ(second.pairs_skipped_clean, 1u);
  EXPECT_EQ(second.cliques_merged, 0u);
  ASSERT_EQ(second.merged.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second.merged[i].get(), first[i].get())
        << "clique " << i << " was re-merged instead of reused";
    EXPECT_TRUE(second.reused[i]);
  }
}

// Member views (merge/refine_context.h) live exactly as long as a slot's
// deck. Two clocks reach the mux of Figure 1; `sel1`/`sel2` pick which one
// clocks rX/rY/rZ. Mode a first lets only c2 through (so clock refinement
// stops c1 at the mux output), then is edited IN PLACE, at the same
// address, to let only c1 through. A view kept past update_mode would
// still say c1 never reaches the mux output in a, and the re-merge would
// keep the stale stop.
TEST_F(SessionTest, UpdateModeDropsTheViewOfADeckEditedInPlace) {
  const std::string clocks =
      "create_clock -name c1 -period 10 [get_ports clk1]\n"
      "create_clock -name c2 -period 20 [get_ports clk2]\n";
  sdc::Sdc a = parse(clocks + "set_case_analysis 1 [get_ports sel1]\n");
  sdc::Sdc b = parse(clocks + "set_case_analysis 1 [get_ports sel2]\n");

  MergeSession session(graph);
  const MergeSession::ModeId id_a = session.add_mode("a", &a);
  const MergeSession::ModeId id_b = session.add_mode("b", &b);
  ASSERT_EQ(session.commit().cliques.size(), 1u);
  // The first commit keeps no views.
  EXPECT_EQ(session.num_member_views(), 0u);

  // The second commit re-merges the clique and keeps both members' views.
  const uint64_t built_before = counter("session/member_views_built");
  session.update_mode(id_b, &b);
  session.commit();
  EXPECT_EQ(session.num_member_views(), 2u);
  EXPECT_EQ(counter("session/member_views_built") - built_before, 2u);
  expect_matches_scratch(session);
  const std::string stopped =
      sdc::write_sdc(*session.last_commit().merged[0]->merge.merged);

  // Same pointer, new content: a now selects clk1.
  a = parse(clocks +
            "set_case_analysis 0 [get_ports sel1]\n"
            "set_case_analysis 0 [get_ports sel2]\n");
  const uint64_t built = counter("session/member_views_built");
  const uint64_t reused = counter("session/member_views_reused");
  session.update_mode(id_a, &a);
  EXPECT_EQ(session.num_member_views(), 1u);  // b's
  session.commit();
  EXPECT_EQ(counter("session/member_views_built") - built, 1u);
  EXPECT_EQ(counter("session/member_views_reused") - reused, 1u);
  expect_matches_scratch(session);
  // The edit changed the merged deck: the test would not see a stale view
  // otherwise.
  EXPECT_NE(sdc::write_sdc(*session.last_commit().merged[0]->merge.merged),
            stopped);
}

// A removed mode takes its view along; a deck re-added at the same address
// with new content starts without one.
TEST_F(SessionTest, RemoveThenAddModeBuildsAFreshView) {
  const std::string clocks =
      "create_clock -name c1 -period 10 [get_ports clk1]\n"
      "create_clock -name c2 -period 20 [get_ports clk2]\n";
  sdc::Sdc a = parse(clocks + "set_case_analysis 1 [get_ports sel1]\n");
  sdc::Sdc b = parse(clocks + "set_case_analysis 1 [get_ports sel2]\n");
  sdc::Sdc c = parse(clocks + "set_false_path -to [get_pins rZ/D]\n");

  MergeSession session(graph);
  const MergeSession::ModeId id_a = session.add_mode("a", &a);
  const MergeSession::ModeId id_b = session.add_mode("b", &b);
  session.add_mode("c", &c);
  session.commit();
  session.update_mode(id_b, &b);
  session.commit();
  ASSERT_EQ(session.last_commit().cliques.size(), 1u);
  EXPECT_EQ(session.num_member_views(), 3u);

  session.remove_mode(id_a);
  EXPECT_EQ(session.num_member_views(), 2u);
  a = parse(clocks +
            "set_case_analysis 0 [get_ports sel1]\n"
            "set_case_analysis 0 [get_ports sel2]\n");
  session.add_mode("a", &a);
  const uint64_t built = counter("session/member_views_built");
  const uint64_t reused = counter("session/member_views_reused");
  session.commit();
  EXPECT_EQ(counter("session/member_views_built") - built, 1u);
  EXPECT_EQ(counter("session/member_views_reused") - reused, 2u);
  EXPECT_EQ(session.num_member_views(), 3u);
  expect_matches_scratch(session);
}

// An edit of exceptions only leaves everything a ModeGraph reads as it
// was (timing_view_key): update_mode keeps the view's ModeGraph, rebound to
// the new deck, and its launch reach, so the next commit builds no member
// ModeGraph and walks only the edited deck's relation table.
TEST_F(SessionTest, ExceptionOnlyEditKeepsTheModeGraph) {
  const std::string clocks =
      "create_clock -name c1 -period 10 [get_ports clk1]\n"
      "create_clock -name c2 -period 20 [get_ports clk2]\n";
  sdc::Sdc a = parse(clocks + "set_case_analysis 1 [get_ports sel1]\n");
  sdc::Sdc b = parse(clocks + "set_case_analysis 1 [get_ports sel2]\n");
  MergeSession session(graph);
  const MergeSession::ModeId id_a = session.add_mode("a", &a);
  const MergeSession::ModeId id_b = session.add_mode("b", &b);
  session.commit();
  session.update_mode(id_b, &b);
  session.commit();
  ASSERT_EQ(session.last_commit().cliques.size(), 1u);
  const MemberView before = session.member_view(id_a);
  ASSERT_FALSE(before.empty());
  ASSERT_NE(before.reach, nullptr);
  ASSERT_NE(before.relations, nullptr);

  // A new deck for a: the same timing state plus a false path.
  sdc::Sdc a2 = parse(clocks + "set_case_analysis 1 [get_ports sel1]\n" +
                      "set_false_path -to [get_pins rZ/D]\n");
  const uint64_t kept = counter("session/member_graphs_kept");
  session.update_mode(id_a, &a2);
  EXPECT_EQ(counter("session/member_graphs_kept") - kept, 1u);
  const MemberView& view = session.member_view(id_a);
  ASSERT_FALSE(view.empty());
  EXPECT_EQ(&view.mode_graph->sdc(), &a2);
  EXPECT_EQ(view.reach, before.reach);
  EXPECT_EQ(view.exceptions, nullptr);
  EXPECT_EQ(view.relations, nullptr);
  expect_same_view(*view.mode_graph, timing::ModeGraph(graph, a2));

  // The commit builds only the merged deck's ModeGraph, runs its clock
  // stage once, and walks a's relation table.
  const uint64_t cases = span_count("timing/case_analysis");
  const uint64_t clocks_run = span_count("timing/clock_propagation");
  const uint64_t built = counter("session/member_views_built");
  const uint64_t reused = counter("session/member_views_reused");
  session.commit();
  EXPECT_EQ(span_count("timing/case_analysis") - cases, 1u);
  EXPECT_EQ(span_count("timing/clock_propagation") - clocks_run, 1u);
  EXPECT_EQ(counter("session/member_views_built") - built, 1u);
  EXPECT_EQ(counter("session/member_views_reused") - reused, 1u);
  expect_matches_scratch(session);

  // The same again with the deck edited in place.
  a2 = parse(clocks + "set_case_analysis 1 [get_ports sel1]\n" +
             "set_false_path -to [get_pins rY/D]\n");
  session.update_mode(id_a, &a2);
  EXPECT_EQ(counter("session/member_graphs_kept") - kept, 2u);
  expect_same_view(*session.member_view(id_a).mode_graph,
                   timing::ModeGraph(graph, a2));
  session.commit();
  expect_matches_scratch(session);
}

// An edit to case analysis or to a clock changes what a ModeGraph reads:
// update_mode drops the view, for a new deck and for one edited in place.
TEST_F(SessionTest, CaseOrClockEditDropsTheView) {
  const std::string clocks =
      "create_clock -name c1 -period 10 [get_ports clk1]\n"
      "create_clock -name c2 -period 20 [get_ports clk2]\n";
  sdc::Sdc a = parse(clocks + "set_case_analysis 1 [get_ports sel1]\n");
  sdc::Sdc b = parse(clocks + "set_case_analysis 1 [get_ports sel2]\n");
  MergeSession session(graph);
  const MergeSession::ModeId id_a = session.add_mode("a", &a);
  const MergeSession::ModeId id_b = session.add_mode("b", &b);
  session.commit();
  session.update_mode(id_b, &b);
  session.commit();
  ASSERT_EQ(session.num_member_views(), 2u);
  const uint64_t kept = counter("session/member_graphs_kept");

  // A new deck with one more case analysis.
  sdc::Sdc a_case = parse(clocks + "set_case_analysis 1 [get_ports sel1]\n" +
                          "set_case_analysis 0 [get_ports sel2]\n");
  session.update_mode(id_a, &a_case);
  EXPECT_TRUE(session.member_view(id_a).empty());
  session.commit();
  expect_matches_scratch(session);
  ASSERT_FALSE(session.member_view(id_a).empty());

  // A new deck whose second clock moved to the other port.
  sdc::Sdc a_clock = parse(
      "create_clock -name c1 -period 10 [get_ports clk1]\n"
      "create_clock -name c2 -period 20 [get_ports clk1] -add\n"
      "set_case_analysis 1 [get_ports sel1]\n");
  session.update_mode(id_a, &a_clock);
  EXPECT_TRUE(session.member_view(id_a).empty());
  session.commit();
  expect_matches_scratch(session);

  // b edited in place: its first clock moves to the other port.
  ASSERT_FALSE(session.member_view(id_b).empty());
  b = parse("create_clock -name c1 -period 10 [get_ports clk2]\n"
            "create_clock -name c2 -period 20 [get_ports clk2] -add\n"
            "set_case_analysis 1 [get_ports sel2]\n");
  session.update_mode(id_b, &b);
  EXPECT_TRUE(session.member_view(id_b).empty());
  session.commit();
  expect_matches_scratch(session);
  EXPECT_EQ(counter("session/member_graphs_kept") - kept, 0u);
}

// A batch merge is one commit, and keeps no view; release_batch drops the
// views a longer session kept.
TEST_F(SessionTest, BatchMergeAndReleaseBatchLeaveNoViews) {
  sdc::Sdc a = parse(
      "create_clock -name c1 -period 10 [get_ports clk1]\n"
      "set_case_analysis 1 [get_ports sel1]\n");
  sdc::Sdc b = parse("create_clock -name c1 -period 10 [get_ports clk1]\n");

  const uint64_t built = counter("session/member_views_built");
  const uint64_t reused = counter("session/member_views_reused");
  const MergedModeSet batch = merge_mode_set(graph, {&a, &b});
  ASSERT_EQ(batch.cliques.size(), 1u);
  EXPECT_EQ(counter("session/member_views_built") - built, 0u);
  EXPECT_EQ(counter("session/member_views_reused") - reused, 0u);

  MergeSession session(graph);
  const MergeSession::ModeId id_a = session.add_mode("a", &a);
  session.add_mode("b", &b);
  session.commit();
  session.update_mode(id_a, &a);
  session.commit();
  EXPECT_EQ(session.num_member_views(), 2u);
  const MergedModeSet released = session.release_batch();
  EXPECT_EQ(session.num_member_views(), 0u);
  EXPECT_EQ(sdc::write_sdc(*released.merged[0].merge.merged),
            sdc::write_sdc(*batch.merged[0].merge.merged));
}

// Randomized differential soak: any interleaving of add / remove / update /
// commit must end byte-identical to a from-scratch run on the final set.
// (The heavy version of this property — generated designs, mutated decks,
// 200+ sequences — is fuzz property P5; this keeps a fast in-tree guard.)
TEST_F(SessionTest, RandomizedDeltaSequencesMatchScratch) {
  const std::vector<std::string> pool = {
      "create_clock -name c -period 10 [get_ports clk1]\n",
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.3 [get_clocks c]\n",
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_clock_uncertainty -setup 0.9 [get_clocks c]\n",
      "create_clock -name c2 -period 20 [get_ports clk2]\n",
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -to [get_pins rX/D]\n",
      "create_clock -name c2 -period 20 [get_ports clk2]\n"
      "set_clock_latency -max 1.5 [get_clocks c2]\n",
  };
  std::vector<sdc::Sdc> decks;
  decks.reserve(pool.size());
  for (const std::string& text : pool) decks.push_back(parse(text));

  for (uint64_t seq = 0; seq < 12; ++seq) {
    util::Rng rng(util::Rng::mix(97, seq));
    MergeSession session(graph);
    std::vector<MergeSession::ModeId> live;
    const size_t ops = 6 + rng.below(8);
    for (size_t op = 0; op < ops; ++op) {
      switch (rng.below(4)) {
        case 0:
          live.push_back(session.add_mode(
              "m", &decks[rng.below(decks.size())]));
          break;
        case 1:
          if (!live.empty()) {
            const size_t k = rng.below(live.size());
            session.remove_mode(live[k]);
            live.erase(live.begin() + static_cast<long>(k));
          }
          break;
        case 2:
          if (!live.empty()) {
            session.update_mode(live[rng.below(live.size())],
                                &decks[rng.below(decks.size())]);
          }
          break;
        default:
          session.commit();
          break;
      }
    }
    session.commit();
    expect_matches_scratch(session);
  }
}

}  // namespace
}  // namespace mm::merge
