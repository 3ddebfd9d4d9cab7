// mm.journal/1 end-to-end: the decision journal written by a MergeSession
// must carry exactly one event per decision (no lost or duplicated events
// under a parallel multi-commit session), agree with the metrics registry
// (pairs_rechecked == pair_verdict events per commit), render mmreport
// explain/timeline output that is byte-stable across --threads, and reject
// malformed journals with a line-numbered error.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "merge/mcmm_session.h"
#include "merge/session.h"
#include "netlist/libcell.h"
#include "obs/journal.h"
#include "obs/journal_reader.h"
#include "sdc/parser.h"
#include "timing/graph.h"
#include "util/error.h"

namespace mm::obs {
namespace {

/// The 10-mode paper-style family (two planted mergeable groups) on a
/// small generated design — the clique cover must find the two groups.
class JournalTest : public ::testing::Test {
 protected:
  JournalTest() {
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

  ~JournalTest() override { Journal::close(); }

  std::string path(const char* name) const {
    return ::testing::TempDir() + "/" + name;
  }

  netlist::Library lib_ = netlist::Library::builtin();
  gen::DesignParams dp_;
  std::unique_ptr<netlist::Design> design_;
  std::unique_ptr<timing::TimingGraph> graph_;
  std::vector<gen::GeneratedMode> family_;
  std::vector<std::unique_ptr<sdc::Sdc>> modes_;
};

size_t count_events(const JournalData& j, const std::string& ev,
                    uint64_t commit = 0) {
  size_t n = 0;
  for (const JournalRecord& rec : j.events) {
    if (rec.ev != ev) continue;
    if (commit != 0 && rec.json.uint("commit") != commit) continue;
    ++n;
  }
  return n;
}

TEST_F(JournalTest, ExactEventCountsAcrossMultiCommitSession) {
  const std::string file = path("journal_counts.jsonl");
  ASSERT_TRUE(Journal::open(file));

  merge::MergeOptions options;
  options.num_threads = 8;  // parallel pair checks; emission must stay exact
  merge::MergeSession session(*graph_, options);

  std::vector<merge::MergeSession::ModeId> ids;
  for (size_t i = 0; i < 6; ++i) {
    ids.push_back(session.add_mode(family_[i].name, modes_[i].get()));
  }
  const merge::MergeSession::CommitResult c1 = session.commit();

  session.update_mode(ids[2], modes_[6].get());
  const merge::MergeSession::CommitResult c2 = session.commit();

  session.remove_mode(ids[0]);
  ids.push_back(session.add_mode(family_[7].name, modes_[7].get()));
  const merge::MergeSession::CommitResult c3 = session.commit();

  Journal::close();
  const JournalData j = read_journal(file);

  EXPECT_EQ(j.schema, kJournalSchema);
  EXPECT_EQ(count_events(j, "mode_add"), 7u);
  EXPECT_EQ(count_events(j, "mode_update"), 1u);
  EXPECT_EQ(count_events(j, "mode_remove"), 1u);
  EXPECT_EQ(count_events(j, "commit_begin"), 3u);
  EXPECT_EQ(count_events(j, "commit_end"), 3u);

  // Journal-vs-stats consistency: one pair_verdict per re-checked pair,
  // one clique event per cover clique, refine/equivalence only for cliques
  // actually (re-)merged this commit.
  const merge::MergeSession::CommitResult* commits[] = {&c1, &c2, &c3};
  for (uint64_t k = 1; k <= 3; ++k) {
    const merge::MergeSession::CommitResult& r = *commits[k - 1];
    EXPECT_EQ(count_events(j, "pair_verdict", k), r.pairs_rechecked)
        << "commit " << k;
    EXPECT_EQ(count_events(j, "clique", k), r.cliques.size()) << "commit " << k;
    EXPECT_EQ(count_events(j, "refine", k), r.cliques_merged) << "commit " << k;
    EXPECT_EQ(count_events(j, "equivalence", k), r.cliques_merged)
        << "commit " << k;
  }
  EXPECT_EQ(c1.pairs_rechecked, 15u);  // C(6,2): everything dirty
  EXPECT_EQ(c2.pairs_rechecked, 5u);   // only the updated mode's pairs

  // No lost or duplicated events: strictly increasing unique seq numbers
  // (the header line is the one event without a seq).
  std::set<uint64_t> seqs;
  uint64_t prev = 0;
  for (const JournalRecord& rec : j.events) {
    if (rec.ev == "header") continue;
    const uint64_t seq = rec.json.uint("seq");
    EXPECT_GT(seq, prev);
    prev = seq;
    EXPECT_TRUE(seqs.insert(seq).second) << "duplicate seq " << seq;
  }
  EXPECT_EQ(j.events.size(), seqs.size() + 1);

  // Every refine event carries the per-pass wall clocks, and no
  // single-corner event names a donor corner.
  for (const JournalRecord& rec : j.events) {
    if (rec.ev != "refine") continue;
    EXPECT_EQ(rec.json.find("shared_from"), nullptr);
    for (const char* field : {"pass0_ms", "pass1_ms", "pass2_ms", "pass3_ms"}) {
      const JsonValue* v = rec.json.find(field);
      ASSERT_NE(v, nullptr) << field;
      EXPECT_TRUE(v->is_number()) << field;
    }
  }
}

TEST_F(JournalTest, VerdictProvenanceAndContentKeysRecorded) {
  const std::string file = path("journal_prov.jsonl");
  ASSERT_TRUE(Journal::open(file));

  merge::MergeSession session(*graph_, merge::MergeOptions{});
  // One mode from each planted group: guaranteed unmergeable.
  size_t other = 0;
  while (family_[other].group == family_[0].group) ++other;
  session.add_mode(family_[0].name, modes_[0].get());
  session.add_mode(family_[other].name, modes_[other].get());
  session.commit();
  Journal::close();

  const JournalData j = read_journal(file);
  size_t conflicts = 0;
  for (const JournalRecord& rec : j.events) {
    if (rec.ev == "mode_add") {
      // Content key: 16-hex-digit RelationshipCache hash.
      const std::string key = rec.json.str("content_key");
      ASSERT_EQ(key.size(), 18u) << key;
      EXPECT_EQ(key.substr(0, 2), "0x");
    }
    if (rec.ev != "pair_verdict" || rec.json.boolean("mergeable", true)) {
      continue;
    }
    ++conflicts;
    EXPECT_FALSE(rec.json.str("category").empty());
    EXPECT_FALSE(rec.json.str("subject").empty());
    EXPECT_FALSE(rec.json.str("reason").empty());
    EXPECT_TRUE(rec.json.boolean("a_rels_fresh", false));
    EXPECT_TRUE(rec.json.boolean("b_rels_fresh", false));
  }
  EXPECT_EQ(conflicts, 1u);
}

/// Windowed-policy sessions record window provenance on accepted
/// pair_verdict events (policy, winning field, used-vs-budget) and
/// mmreport explain renders it; exact sessions emit no policy key at all,
/// keeping their journals byte-compatible with the pre-policy format.
TEST_F(JournalTest, WindowedPolicyProvenanceRecorded) {
  // A two-group near-miss family: the adjacent pair disagrees by
  // W - eps = 0.15, inside the 0.2 window, outside exact tolerance.
  gen::ModeFamilyParams mp;
  mp.seed = 11;
  mp.num_modes = 2;
  mp.target_groups = 2;
  mp.near_miss_window = 0.2;
  mp.near_miss_epsilon = 0.05;
  const auto fam = gen::generate_mode_family(dp_, mp);
  std::vector<std::unique_ptr<sdc::Sdc>> nm;
  for (const gen::GeneratedMode& gm : fam) {
    nm.push_back(std::make_unique<sdc::Sdc>(
        sdc::parse_sdc(gm.sdc_text, *design_)));
  }

  const std::string file = path("journal_windowed.jsonl");
  ASSERT_TRUE(Journal::open(file));
  merge::MergeOptions opt;
  opt.validate = false;
  opt.policy = merge::MergePolicy::uniform(0.2);
  merge::MergeSession session(*graph_, opt);
  session.add_mode(fam[0].name, nm[0].get());
  session.add_mode(fam[1].name, nm[1].get());
  session.commit();
  Journal::close();

  const JournalData j = read_journal(file);
  size_t windowed_accepts = 0;
  for (const JournalRecord& rec : j.events) {
    if (rec.ev != "pair_verdict") continue;
    ASSERT_TRUE(rec.json.boolean("mergeable", false));
    EXPECT_EQ(rec.json.str("policy"), "windowed");
    EXPECT_FALSE(rec.json.str("window_field").empty());
    EXPECT_DOUBLE_EQ(rec.json.num("window_budget"), 0.2);
    EXPECT_GT(rec.json.num("window_used"), 0.0);
    EXPECT_LE(rec.json.num("window_used"),
              rec.json.num("window_budget") + 1e-12);
    ++windowed_accepts;
  }
  EXPECT_EQ(windowed_accepts, 1u);
  EXPECT_NE(explain_pair(j, fam[0].name, fam[1].name).find("policy: windowed"),
            std::string::npos);

  // Exact control: same modes, default options — no policy key anywhere.
  const std::string exact_file = path("journal_exact_ctrl.jsonl");
  ASSERT_TRUE(Journal::open(exact_file));
  merge::MergeOptions exact;
  exact.validate = false;
  merge::MergeSession exact_session(*graph_, exact);
  exact_session.add_mode(fam[0].name, nm[0].get());
  exact_session.add_mode(fam[1].name, nm[1].get());
  exact_session.commit();
  Journal::close();
  const JournalData je = read_journal(exact_file);
  for (const JournalRecord& rec : je.events) {
    EXPECT_EQ(rec.json.find("policy"), nullptr) << rec.ev;
  }
}

/// mmreport explain/timeline are byte-stable across the producing run's
/// --threads (the ISSUE acceptance bar). Session journal ids are process-
/// wide, so normalize them before comparing two same-process runs — a CLI
/// run is always "session 1".
std::string normalized_render(const JournalData& j, const std::string& a,
                              const std::string& b) {
  uint64_t session_id = 0;
  for (const JournalRecord& rec : j.events) {
    if (const JsonValue* s = rec.json.find("session")) {
      session_id = static_cast<uint64_t>(s->num_v);
      break;
    }
  }
  std::string text =
      explain_pair(j, a, b) + "\n===\n" + render_timeline(j);
  const std::string from = "session " + std::to_string(session_id);
  std::string out;
  size_t pos = 0;
  while (true) {
    const size_t hit = text.find(from, pos);
    if (hit == std::string::npos) {
      out += text.substr(pos);
      return out;
    }
    out += text.substr(pos, hit - pos);
    out += "session S";
    pos = hit + from.size();
  }
}

TEST_F(JournalTest, ExplainAndTimelineByteStableAcrossThreads) {
  // A cross-group pair, so explain shows a NOT MERGEABLE verdict chain.
  size_t other = 5;
  while (family_[other].group == family_[0].group) ++other;
  std::vector<std::string> renders;
  for (size_t threads : {1, 8}) {
    const std::string file =
        path(threads == 1 ? "journal_t1.jsonl" : "journal_t8.jsonl");
    ASSERT_TRUE(Journal::open(file));
    merge::MergeOptions options;
    options.num_threads = threads;
    merge::MergeSession session(*graph_, options);
    std::vector<merge::MergeSession::ModeId> ids;
    for (size_t i = 0; i < family_.size(); ++i) {
      ids.push_back(session.add_mode(family_[i].name, modes_[i].get()));
    }
    session.commit();
    session.remove_mode(ids[4]);
    session.commit();
    Journal::close();
    renders.push_back(normalized_render(read_journal(file), family_[0].name,
                                        family_[other].name));
  }
  EXPECT_EQ(renders[0], renders[1]);

  // Golden structure for the cross-group pair on the 10-mode example:
  // a NOT MERGEABLE verdict with provenance, and both modes placed in
  // (different) cover cliques.
  const std::string& text = renders[0];
  EXPECT_NE(text.find("NOT MERGEABLE"), std::string::npos) << text;
  EXPECT_NE(text.find("category:"), std::string::npos) << text;
  EXPECT_NE(text.find("clique"), std::string::npos) << text;
  EXPECT_NE(text.find(family_[0].name), std::string::npos) << text;
  EXPECT_NE(text.find(family_[other].name), std::string::npos) << text;
  // seq depends on thread scheduling; renderers must never print it, nor
  // a key id (verdicts name their subject by its canonical key string).
  EXPECT_EQ(text.find("key_id"), std::string::npos) << text;
  EXPECT_EQ(text.find("seq"), std::string::npos) << text;
}

TEST_F(JournalTest, ExplainUnknownModeThrows) {
  const std::string file = path("journal_unknown.jsonl");
  ASSERT_TRUE(Journal::open(file));
  merge::MergeSession session(*graph_, merge::MergeOptions{});
  session.add_mode(family_[0].name, modes_[0].get());
  session.add_mode(family_[1].name, modes_[1].get());
  session.commit();
  Journal::close();

  const JournalData j = read_journal(file);
  EXPECT_THROW(explain_pair(j, family_[0].name, "no_such_mode"), Error);
  EXPECT_NO_THROW(explain_pair(j, family_[0].name, family_[1].name));
}

/// Flat and corner-aware sessions share one journal-id counter, so two of
/// them journaling into one file never collide on a (session, commit) key.
TEST_F(JournalTest, FlatAndCornerSessionsGetDistinctSessionIds) {
  const std::string file = path("journal_two_sessions.jsonl");
  ASSERT_TRUE(Journal::open(file));
  merge::MergeOptions options;
  options.validate = false;
  merge::MergeSession flat(*graph_, options);
  merge::McmmSession corners(*graph_, merge::CornerSet({"typ", "hot"}),
                             options);
  for (size_t i = 0; i < 2; ++i) {
    flat.add_mode(family_[i].name, modes_[i].get());
    corners.add_mode(family_[i].name, {modes_[i].get(), modes_[i].get()});
  }
  flat.commit();
  corners.commit();
  Journal::close();

  std::set<uint64_t> sessions;
  std::set<std::pair<uint64_t, uint64_t>> commit_keys;
  for (const JournalRecord& rec : read_journal(file).events) {
    if (rec.json.find("session") != nullptr) {
      sessions.insert(rec.json.uint("session"));
    }
    if (rec.ev == "commit_begin") {
      EXPECT_TRUE(commit_keys
                      .emplace(rec.json.uint("session"),
                               rec.json.uint("commit"))
                      .second);
    }
  }
  EXPECT_EQ(sessions.size(), 2u);
  EXPECT_EQ(commit_keys.size(), 2u);
}

/// A corner that shares corner 0's refinement says so on its refine and
/// equivalence events; corner 0 and single-corner events never carry the
/// field, and the timeline reports the commit's sharing counts.
TEST_F(JournalTest, SharedCornerEventsNameTheirDonor) {
  const std::string file = path("journal_shared.jsonl");
  ASSERT_TRUE(Journal::open(file));
  merge::McmmSession corners(*graph_, merge::CornerSet({"typ", "hot"}));
  for (size_t i = 0; i < 3; ++i) {
    corners.add_mode(family_[i].name, {modes_[i].get(), modes_[i].get()});
  }
  const merge::McmmSession::CommitResult& r = corners.commit();
  Journal::close();
  ASSERT_GT(r.corner_shared_merges, 0u);

  const JournalData j = read_journal(file);
  size_t shared = 0;
  for (const JournalRecord& rec : j.events) {
    if (rec.ev != "refine" && rec.ev != "equivalence") continue;
    const bool from_typ = rec.json.find("shared_from") != nullptr;
    EXPECT_EQ(from_typ, rec.json.uint("corner_id") == 1) << rec.ev;
    if (!from_typ) continue;
    ++shared;
    EXPECT_EQ(rec.json.str("shared_from"), "typ");
    EXPECT_EQ(rec.json.uint("shared_from_id"), 0u);
  }
  EXPECT_EQ(shared, 2 * r.corner_shared_merges);
  EXPECT_NE(render_timeline(j).find(
                "corners: " + std::to_string(r.corner_shared_merges) +
                " merges shared corner 0's refinement, 0 fell back"),
            std::string::npos)
      << render_timeline(j);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

TEST(JournalReaderTest, MalformedJournalsRejectedWithLineNumbers) {
  const std::string dir = ::testing::TempDir();

  EXPECT_THROW(read_journal(dir + "/does_not_exist.jsonl"), Error);

  const std::string empty = dir + "/empty.jsonl";
  write_file(empty, "");
  EXPECT_THROW(read_journal(empty), Error);

  const std::string bad_json = dir + "/bad_json.jsonl";
  write_file(bad_json,
             "{\"ev\":\"header\",\"schema\":\"mm.journal/1\"}\n{nope\n");
  try {
    read_journal(bad_json);
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
        << e.what();
  }

  const std::string no_ev = dir + "/no_ev.jsonl";
  write_file(no_ev,
             "{\"ev\":\"header\",\"schema\":\"mm.journal/1\"}\n"
             "{\"seq\":1}\n");
  EXPECT_THROW(read_journal(no_ev), Error);

  const std::string no_header = dir + "/no_header.jsonl";
  write_file(no_header, "{\"ev\":\"mode_add\",\"seq\":1}\n");
  EXPECT_THROW(read_journal(no_header), Error);

  const std::string wrong_schema = dir + "/wrong_schema.jsonl";
  write_file(wrong_schema,
             "{\"ev\":\"header\",\"schema\":\"mm.journal/9\"}\n");
  EXPECT_THROW(read_journal(wrong_schema), Error);
}

TEST(JournalReaderTest, ProfileReportAggregatesSelfTime) {
  // Two nested spans on one thread: outer self time = 100 - 40.
  const std::string trace =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"outer\",\"ph\":\"X\",\"ts\":0,\"dur\":100,\"tid\":1},"
      "{\"name\":\"inner\",\"ph\":\"X\",\"ts\":10,\"dur\":40,\"tid\":1}]}";
  const std::string report = profile_report(trace, 10);
  EXPECT_NE(report.find("outer"), std::string::npos) << report;
  EXPECT_NE(report.find("inner"), std::string::npos) << report;
  EXPECT_NE(report.find("0.0001"), std::string::npos) << report;  // 100 us
  EXPECT_THROW(profile_report("{not json", 10), Error);
}

TEST(JournalWriterTest, DisabledJournalAppendsNothing) {
  ASSERT_FALSE(Journal::enabled());
  const uint64_t before = Journal::events_appended();
  Journal::drain();  // no-op when disabled
  EXPECT_EQ(Journal::events_appended(), before);
}

}  // namespace
}  // namespace mm::obs
