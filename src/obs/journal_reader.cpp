#include "obs/journal_reader.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "obs/journal.h"

namespace mm::obs {
namespace {

std::string fmt_seconds(double us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", us / 1e6);
  return buf;
}

/// (session, commit) ordering key.
using CommitKey = std::pair<uint64_t, uint64_t>;

struct CliqueRec {
  uint64_t index = 0;
  std::string action;
  std::vector<std::string> members;
  uint64_t sdc_bytes = 0;
};

std::string join_members(const std::vector<std::string>& members) {
  std::string out = "[";
  for (size_t i = 0; i < members.size(); ++i) {
    if (i) out += ", ";
    out += members[i];
  }
  out += "]";
  return out;
}

std::vector<std::string> member_names(const JsonValue& ev) {
  std::vector<std::string> out;
  if (const JsonValue* m = ev.find("members"); m && m->is_array()) {
    for (const JsonValue& v : m->arr) {
      if (v.is_string()) out.push_back(v.str_v);
    }
  }
  return out;
}

}  // namespace

JournalData read_journal(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw Error("cannot open journal: " + path);
  JournalData out;
  std::string line;
  size_t lineno = 0;
  while (std::getline(file, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = parse_json(line);
    } catch (const Error& e) {
      throw Error(path + ":" + std::to_string(lineno) + ": " + e.what());
    }
    if (!v.is_object() || !v.find("ev") || !v.find("ev")->is_string()) {
      throw Error(path + ":" + std::to_string(lineno) +
                  ": journal line has no \"ev\" field");
    }
    JournalRecord rec;
    rec.ev = v.str("ev");
    rec.json = std::move(v);
    out.events.push_back(std::move(rec));
  }
  if (out.events.empty()) {
    throw Error(path + ": empty journal (missing header line)");
  }
  const JournalRecord& head = out.events.front();
  if (head.ev != "header") {
    throw Error(path + ": first journal line is not a header event");
  }
  out.schema = head.json.str("schema");
  if (out.schema != kJournalSchema) {
    throw Error(path + ": unsupported journal schema \"" + out.schema +
                "\" (expected " + kJournalSchema + ")");
  }
  return out;
}

std::string explain_pair(const JournalData& journal, std::string_view a,
                         std::string_view b) {
  // Every name the journal mentions, for the unknown-mode diagnostic.
  std::unordered_set<std::string> known;
  // Latest content key per mode name (mode_add / mode_update events).
  std::unordered_map<std::string, std::string> content_keys;
  // Cliques per commit, in emission (= cover) order.
  std::map<CommitKey, std::vector<CliqueRec>> cliques;
  // The pair's verdict events, in file order.
  struct VerdictRec {
    CommitKey commit;
    const JsonValue* ev = nullptr;
  };
  std::vector<VerdictRec> verdicts;

  for (const JournalRecord& rec : journal.events) {
    const JsonValue& ev = rec.json;
    if (rec.ev == "mode_add" || rec.ev == "mode_update" ||
        rec.ev == "mode_remove") {
      const std::string name = ev.str("name");
      known.insert(name);
      if (rec.ev != "mode_remove") {
        content_keys[name] = ev.str("content_key");
      }
    } else if (rec.ev == "pair_verdict") {
      const std::string ea = ev.str("a");
      const std::string eb = ev.str("b");
      known.insert(ea);
      known.insert(eb);
      const bool match = (ea == a && eb == b) || (ea == b && eb == a);
      if (match) {
        verdicts.push_back(
            {{ev.uint("session"), ev.uint("commit")}, &ev});
      }
    } else if (rec.ev == "clique") {
      CliqueRec c;
      c.index = ev.uint("clique");
      c.action = ev.str("action");
      c.members = member_names(ev);
      c.sdc_bytes = ev.uint("sdc_bytes");
      for (const std::string& m : c.members) known.insert(m);
      cliques[{ev.uint("session"), ev.uint("commit")}].push_back(std::move(c));
    }
  }

  for (std::string_view name : {a, b}) {
    if (!known.count(std::string(name))) {
      throw Error("mode \"" + std::string(name) +
                  "\" does not appear in this journal");
    }
  }

  std::ostringstream os;
  os << "explain " << a << " vs " << b << " (schema " << journal.schema
     << ")\n";
  for (std::string_view name : {a, b}) {
    auto it = content_keys.find(std::string(name));
    if (it != content_keys.end()) {
      os << "  " << name << ": content " << it->second << "\n";
    }
  }

  if (verdicts.empty()) {
    os << "\nno pair_verdict events for this pair: the pair was never "
          "re-checked in this journal\n"
          "(its verdict was carried over clean, or the modes never "
          "coexisted in a commit)\n";
    return os.str();
  }

  for (const VerdictRec& v : verdicts) {
    const JsonValue& ev = *v.ev;
    os << "\ncommit " << v.commit.second << " (session " << v.commit.first
       << "):\n";
    os << "  " << ev.str("a") << ": id " << ev.uint("a_id")
       << ", relationships "
       << (ev.boolean("a_rels_fresh") ? "recomputed" : "cache-carried")
       << "\n";
    os << "  " << ev.str("b") << ": id " << ev.uint("b_id")
       << ", relationships "
       << (ev.boolean("b_rels_fresh") ? "recomputed" : "cache-carried")
       << "\n";
    if (ev.boolean("mergeable")) {
      os << "  verdict: MERGEABLE\n";
    } else {
      os << "  verdict: NOT MERGEABLE\n";
      os << "    category: " << ev.str("category") << "\n";
      os << "    subject:  " << ev.str("subject") << "\n";
      os << "    reason:   " << ev.str("reason") << "\n";
    }
    // Corner provenance is only journaled by sessions with C > 1 corners: corners_checked on every verdict, plus the conflicting
    // corner's identity when the per-corner scan early-exited.
    if (ev.find("corners_checked") != nullptr) {
      os << "  corners: " << ev.uint("corners_checked") << " checked";
      if (ev.find("corner") != nullptr) {
        os << "; conflict in corner " << ev.str("corner") << " (id "
           << ev.uint("corner_id") << ")";
      }
      os << "\n";
    }
    // Policy provenance is only journaled for non-exact policies; a
    // mergeable verdict with a window_field merged under a windowed
    // acceptance (bounded-pessimism), not exact agreement.
    if (const std::string policy = ev.str("policy"); !policy.empty()) {
      os << "  policy: " << policy;
      if (ev.find("window_field") != nullptr) {
        os << " (accepted " << ev.num("window_used") << " of "
           << ev.num("window_budget") << " " << ev.str("window_field")
           << " window)";
      }
      os << "\n";
    }
    auto it = cliques.find(v.commit);
    if (it != cliques.end()) {
      const std::string names[2] = {ev.str("a"), ev.str("b")};
      for (const std::string& name : names) {
        for (const CliqueRec& c : it->second) {
          if (std::find(c.members.begin(), c.members.end(), name) !=
              c.members.end()) {
            os << "  cover: " << name << " -> clique " << c.index << " "
               << join_members(c.members) << " (" << c.action << ")\n";
            break;
          }
        }
      }
    }
  }

  const JsonValue& last = *verdicts.back().ev;
  if (last.boolean("mergeable")) {
    os << "\nconclusion: " << a << " and " << b << " merge\n";
  } else {
    os << "\nconclusion: " << a << " and " << b
       << " do not merge: " << last.str("reason") << " [" << last.str("category")
       << " on " << last.str("subject") << "]";
    if (last.find("corner") != nullptr) {
      os << " (first conflicting corner: " << last.str("corner") << ")";
    }
    os << "\n";
  }
  return os.str();
}

std::string render_timeline(const JournalData& journal) {
  std::ostringstream os;
  os << "timeline (schema " << journal.schema << ")\n";

  // Deltas accumulate per session until the session's next commit_begin.
  std::unordered_map<uint64_t, std::vector<std::string>> pending;
  // Per (session, commit) state gathered between commit_begin/commit_end.
  struct CommitState {
    std::vector<std::string> deltas;
    uint64_t bytes = 0;
    // Merges in corners c > 0 that shared corner 0's refinement / that
    // refined on their own.
    uint64_t shared = 0;
    uint64_t refined_in_corner = 0;
  };
  std::map<CommitKey, CommitState> open;

  size_t commits = 0;
  for (const JournalRecord& rec : journal.events) {
    const JsonValue& ev = rec.json;
    const uint64_t session = ev.uint("session");
    auto delta = [&](char op) { return op + ev.str("name"); };
    if (rec.ev == "mode_add") {
      pending[session].push_back(delta('+'));
    } else if (rec.ev == "mode_update") {
      pending[session].push_back(delta('~'));
    } else if (rec.ev == "mode_remove") {
      pending[session].push_back(delta('-'));
    } else if (rec.ev == "commit_begin") {
      CommitState st;
      st.deltas = std::move(pending[session]);
      pending[session].clear();
      open[{session, ev.uint("commit")}] = std::move(st);
    } else if (rec.ev == "clique") {
      auto it = open.find({session, ev.uint("commit")});
      if (it != open.end()) it->second.bytes += ev.uint("sdc_bytes");
    } else if (rec.ev == "refine" && ev.uint("corner_id") != 0) {
      // Only C > 1 journals carry corner_id: a merge in corner c > 0
      // either shared corner 0's refinement or ran its own.
      auto it = open.find({session, ev.uint("commit")});
      if (it != open.end()) {
        ++(ev.find("shared_from") != nullptr ? it->second.shared
                                             : it->second.refined_in_corner);
      }
    } else if (rec.ev == "commit_end") {
      const CommitKey key{session, ev.uint("commit")};
      CommitState st = std::move(open[key]);
      open.erase(key);
      ++commits;
      os << "\ncommit " << key.second << " (session " << key.first << ")\n";
      os << "  deltas:  ";
      if (st.deltas.empty()) {
        os << "(none)";
      } else {
        for (size_t i = 0; i < st.deltas.size(); ++i) {
          if (i) os << " ";
          os << st.deltas[i];
        }
      }
      os << "\n";
      os << "  modes:   " << ev.uint("modes") << "\n";
      os << "  pairs:   " << ev.uint("pairs_rechecked") << " rechecked, "
         << ev.uint("pairs_skipped_clean") << " carried over\n";
      os << "  cover:   " << ev.uint("cliques") << " cliques ("
         << ev.uint("cliques_merged") << " merged, "
         << ev.uint("cliques_reused") << " reused)\n";
      if (st.shared + st.refined_in_corner > 0) {
        os << "  corners: " << st.shared
           << " merges shared corner 0's refinement, "
           << st.refined_in_corner << " fell back\n";
      }
      os << "  bytes:   " << st.bytes << " of merged SDC (re)written\n";
    }
  }
  if (commits == 0) os << "\n(no commits in this journal)\n";
  return os.str();
}

std::string profile_report(std::string_view trace_json, size_t top_k) {
  const JsonValue doc = parse_json(trace_json);
  const JsonValue* events = doc.is_array() ? &doc : doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw Error("trace file has no traceEvents array");
  }

  struct Span {
    std::string name;
    double ts = 0.0;
    double dur = 0.0;
  };
  std::map<uint64_t, std::vector<Span>> by_tid;
  for (const JsonValue& ev : events->arr) {
    if (!ev.is_object() || ev.str("ph") != "X") continue;
    by_tid[ev.uint("tid")].push_back(
        {ev.str("name"), ev.num("ts"), ev.num("dur")});
  }

  struct Agg {
    uint64_t calls = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Agg> agg;
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.ts != b.ts) return a.ts < b.ts;
      return a.dur > b.dur;  // parents before children at equal ts
    });
    // Stack of open spans; a child's duration is subtracted from the
    // nearest enclosing span's self time.
    struct Open {
      double end = 0.0;
      double* self = nullptr;
    };
    std::vector<Open> stack;
    std::vector<double> selfs(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      while (!stack.empty() && s.ts >= stack.back().end - 1e-9) {
        stack.pop_back();
      }
      selfs[i] = s.dur;
      if (!stack.empty()) *stack.back().self -= s.dur;
      stack.push_back({s.ts + s.dur, &selfs[i]});
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      Agg& a = agg[spans[i].name];
      ++a.calls;
      a.total_us += spans[i].dur;
      a.self_us += std::max(0.0, selfs[i]);
    }
  }

  double total_self = 0.0;
  for (const auto& [name, a] : agg) total_self += a.self_us;

  std::vector<std::pair<std::string, Agg>> rows(agg.begin(), agg.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    if (x.second.self_us != y.second.self_us) {
      return x.second.self_us > y.second.self_us;
    }
    return x.first < y.first;
  });
  if (rows.size() > top_k) rows.resize(top_k);

  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-36s %8s %12s %12s %7s\n", "phase",
                "calls", "total(s)", "self(s)", "self%");
  os << line;
  for (const auto& [name, a] : rows) {
    const double pct = total_self > 0 ? 100.0 * a.self_us / total_self : 0.0;
    std::snprintf(line, sizeof line, "%-36s %8llu %12s %12s %6.1f%%\n",
                  name.c_str(), static_cast<unsigned long long>(a.calls),
                  fmt_seconds(a.total_us).c_str(),
                  fmt_seconds(a.self_us).c_str(), pct);
    os << line;
  }
  if (rows.empty()) os << "(no complete spans in trace)\n";
  return os.str();
}

}  // namespace mm::obs
