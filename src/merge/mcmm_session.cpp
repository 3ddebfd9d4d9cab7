#include "merge/mcmm_session.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "obs/journal.h"
#include "obs/obs.h"
#include "sdc/writer.h"
#include "util/error.h"
#include "util/timer.h"

namespace mm::merge {

namespace {

uint64_t next_session_journal_id() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Content keys are 64-bit hashes; emit as hex strings so readers never
/// round them through a double.
std::string hex_key(uint64_t key) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

/// Journal display name for a mode: batch adapters register modes with
/// name "", which would make explain --pair unusable.
std::string journal_name(const std::string& name, McmmSession::ModeId id) {
  return name.empty() ? "mode" + std::to_string(id) : name;
}

/// Journal timings are whole milliseconds (renderers ignore them).
uint64_t to_ms(double seconds) {
  return static_cast<uint64_t>(seconds * 1000.0);
}

}  // namespace

McmmSession::McmmSession(const timing::TimingGraph& graph, CornerSet corners,
                         MergeContext& ctx)
    : timing_graph_(graph),
      corners_(std::move(corners)),
      ctx_(&ctx),
      journal_id_(next_session_journal_id()),
      policy_salt_(ctx.options().policy.fingerprint()) {}

McmmSession::McmmSession(const timing::TimingGraph& graph, CornerSet corners,
                         MergeOptions options)
    : timing_graph_(graph),
      corners_(std::move(corners)),
      owned_ctx_(std::make_unique<MergeContext>(options)),
      ctx_(owned_ctx_.get()),
      journal_id_(next_session_journal_id()),
      policy_salt_(owned_ctx_->options().policy.fingerprint()) {}

McmmSession::~McmmSession() = default;

uint64_t McmmSession::pair_key(ModeId a, ModeId b) const {
  if (a > b) std::swap(a, b);
  // XOR-salted with the policy fingerprint (0 under exact, so exact keys are
  // the plain packed ids); remove_mode un-salts before parsing the ids back.
  return ((a << 32) | b) ^ policy_salt_;
}

size_t McmmSession::position_of(ModeId id) const {
  for (size_t i = 0; i < modes_.size(); ++i) {
    if (modes_[i].id == id) return i;
  }
  throw Error("session: unknown mode id " + std::to_string(id));
}

bool McmmSession::has_mode(ModeId id) const {
  for (const Entry& e : modes_) {
    if (e.id == id) return true;
  }
  return false;
}

const std::string& McmmSession::mode_name(ModeId id) const {
  return modes_[position_of(id)].name;
}

std::vector<const Sdc*> McmmSession::corner_modes(CornerId corner) const {
  MM_ASSERT(corner < corners_.size());
  std::vector<const Sdc*> out;
  out.reserve(modes_.size());
  for (const Entry& e : modes_) out.push_back(e.decks[corner]);
  return out;
}

McmmSession::ModeId McmmSession::add_mode(std::string name,
                                          std::vector<const Sdc*> decks) {
  MM_ASSERT(decks.size() == corners_.size());
  for (const Sdc* d : decks) MM_ASSERT(d != nullptr);
  // pair_key packs two ids into one uint64.
  MM_ASSERT(next_id_ < (uint64_t{1} << 32));
  Entry e;
  e.id = next_id_++;
  e.name = std::move(name);
  e.decks = std::move(decks);
  e.rels.resize(corners_.size());
  modes_.push_back(std::move(e));
  dirty_[modes_.back().id].assign(corners_.size(), 1);
  MM_COUNT("session/modes_added", 1);
  if (obs::Journal::enabled()) {
    obs::JournalEvent ev("mode_add");
    ev.field("session", journal_id_)
        .field("mode_id", modes_.back().id)
        .field("name", journal_name(modes_.back().name, modes_.back().id))
        .field("content_key", hex_key(RelationshipCache::content_key(
                                  *modes_.back().decks[kPrimaryCorner])));
    if (!corners_.single()) {
      ev.field("corners", static_cast<uint64_t>(corners_.size()));
    }
  }
  return modes_.back().id;
}

void McmmSession::update_mode(ModeId id, CornerId corner, const Sdc* deck) {
  MM_ASSERT(deck != nullptr);
  MM_ASSERT(corner < corners_.size());
  Entry& e = modes_[position_of(id)];
  // The old content's cache entry is now stale for this session: evict it
  // eagerly so the cache only holds decks the session can still reach.
  if (e.decks[corner] != nullptr) {
    ctx_->cache().invalidate(*e.decks[corner]);
  }
  e.decks[corner] = deck;
  e.rels[corner].reset();
  // A structural edit to the primary corner moves the mode's skeleton; the
  // other corners' relationship sets stay valid (each describes its own
  // deck — the delta fill verified the fingerprint match at fill time), so
  // only this slot is dirtied.
  auto [it, inserted] = dirty_.try_emplace(id);
  if (inserted) it->second.assign(corners_.size(), 0);
  it->second[corner] = 1;
  MM_COUNT("session/modes_updated", 1);
  if (obs::Journal::enabled()) {
    obs::JournalEvent ev("mode_update");
    ev.field("session", journal_id_)
        .field("mode_id", id)
        .field("name", journal_name(e.name, id))
        .field("content_key", hex_key(RelationshipCache::content_key(*deck)));
    if (!corners_.single()) {
      ev.field("corner", corners_.name(corner))
          .field("corner_id", static_cast<uint64_t>(corner));
    }
  }
}

void McmmSession::remove_mode(ModeId id) {
  const size_t pos = position_of(id);
  if (obs::Journal::enabled()) {
    obs::JournalEvent ev("mode_remove");
    ev.field("session", journal_id_)
        .field("mode_id", id)
        .field("name", journal_name(modes_[pos].name, id));
  }
  modes_.erase(modes_.begin() + static_cast<long>(pos));
  dirty_.erase(id);
  // Drop the mode's verdict row; surviving pairs stay clean — only cliques
  // that contained the mode will re-merge (their member-id key changes).
  for (auto it = pairs_.begin(); it != pairs_.end();) {
    const uint64_t key = it->first ^ policy_salt_;
    if ((key >> 32) == id || (key & 0xffffffffu) == id) {
      it = pairs_.erase(it);
    } else {
      ++it;
    }
  }
  MM_COUNT("session/modes_removed", 1);
}

const McmmSession::CommitResult& McmmSession::commit() {
  MM_SPAN("session/commit");
  Stopwatch timer;
  const MergeOptions& options = ctx_->options();
  const size_t n = modes_.size();
  const size_t num_corners = corners_.size();

  CommitResult out;
  out.num_input_modes = n;

  ++commit_seq_;
  if (obs::Journal::enabled()) {
    obs::JournalEvent ev("commit_begin");
    ev.field("session", journal_id_)
        .field("commit", commit_seq_)
        .field("modes", static_cast<uint64_t>(n))
        .field("dirty_modes", static_cast<uint64_t>(dirty_.size()));
    if (!corners_.single()) {
      ev.field("corners", static_cast<uint64_t>(num_corners));
    }
  }

  // Refresh relationship sets for dirty (mode, corner) slots: skeletons
  // first (corner 0, full extraction fanned over the pool), then the other
  // corners as value-only delta fills against their mode's fresh skeleton.
  // Clean slots keep the shared_ptr they already hold — zero cache probes.
  std::vector<Entry*> need_skeleton;
  for (Entry& e : modes_) {
    if (!e.rels[kPrimaryCorner]) need_skeleton.push_back(&e);
  }
  ctx_->pool().parallel_for(need_skeleton.size(), [&](size_t k) {
    need_skeleton[k]->rels[kPrimaryCorner] =
        ctx_->relationships(*need_skeleton[k]->decks[kPrimaryCorner]);
  });
  std::vector<std::pair<Entry*, CornerId>> need_delta;
  for (Entry& e : modes_) {
    for (CornerId c = 1; c < num_corners; ++c) {
      if (!e.rels[c]) need_delta.emplace_back(&e, c);
    }
  }
  ctx_->pool().parallel_for(need_delta.size(), [&](size_t k) {
    auto [e, c] = need_delta[k];
    e->rels[c] =
        ctx_->cache().get_corner(*e->decks[c], *e->rels[kPrimaryCorner]);
  });

  // Each live mode's dirty-corner mask by position (null when clean).
  std::vector<const std::vector<uint8_t>*> dirty_at(n, nullptr);
  for (size_t i = 0; i < n; ++i) {
    auto it = dirty_.find(modes_[i].id);
    if (it != dirty_.end()) dirty_at[i] = &it->second;
  }
  auto slot_dirty = [&](size_t pos, CornerId c) {
    return dirty_at[pos] != nullptr && (*dirty_at[pos])[c] != 0;
  };

  // Only a pair with a dirty endpoint can change. Invalidate its dirty
  // corner slots (creating the state of a new pair). The slots become
  // absent, not wrong: the resume scan below recomputes a slot only when it
  // is reached, and a slot past an early exit stays absent until a later
  // commit clears the exit. Clean pairs are not visited at all.
  struct DirtyPair {
    uint32_t i, j;
    PairState* st;  // map nodes are stable across later insertions
  };
  std::vector<DirtyPair> dirty_pairs;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (dirty_at[i] == nullptr && dirty_at[j] == nullptr) continue;
      auto [it, inserted] =
          pairs_.try_emplace(pair_key(modes_[i].id, modes_[j].id));
      PairState& st = it->second;
      if (inserted) {
        st.checked.assign(num_corners, 0);
        st.verdicts.resize(num_corners);
      }
      for (CornerId c = 0; c < num_corners; ++c) {
        if (slot_dirty(i, c) || slot_dirty(j, c)) st.checked[c] = 0;
      }
      dirty_pairs.push_back({i, j, &st});
    }
  }

  // Resume each dirty pair: scan corners in order, computing absent slots
  // and reusing stored ones, early exit on the first conflicting corner.
  // Pairs fan out over the pool; each touches only its own PairState and
  // stat slot, so the verdicts — and the journal emitted serially after the
  // loop — are bit-identical to a serial scan. A pair whose scan computed
  // nothing followed the same path as before, so its combined verdict
  // stands.
  std::vector<uint32_t> computed(dirty_pairs.size(), 0);
  ctx_->pool().parallel_for(
      dirty_pairs.size(), /*min_grain=*/16, [&](size_t p) {
        const DirtyPair& dp = dirty_pairs[p];
        PairState& st = *dp.st;
        const Entry& a = modes_[dp.i];
        const Entry& b = modes_[dp.j];
        CornerId c = 0;
        for (; c < num_corners; ++c) {
          if (!st.checked[c]) {
            st.verdicts[c] = check_mergeable_in_corner(
                c, *a.rels[c], *a.rels[kPrimaryCorner], *b.rels[c],
                *b.rels[kPrimaryCorner], options);
            st.checked[c] = 1;
            ++computed[p];
          }
          if (!st.verdicts[c].mergeable) break;
        }
        if (computed[p] == 0) return;
        const bool conflict = c < num_corners;
        st.scanned = conflict ? c + 1 : static_cast<uint32_t>(num_corners);
        st.combined = st.verdicts[conflict ? c : kPrimaryCorner];
        if (!corners_.single()) {
          st.combined.corners_checked = st.scanned;
          if (conflict) {
            st.combined.corner = corners_.name(c);
            st.combined.corner_id = c;
          }
        }
      });
  for (uint32_t k : computed) {
    out.pair_corner_checks += k;
    if (k > 0) ++out.pairs_rechecked;
  }
  const size_t total_pairs = n < 2 ? 0 : n * (n - 1) / 2;
  out.pairs_skipped_clean = total_pairs - out.pairs_rechecked;

  // One pair_verdict event per pair with fresh work, emitted serially in
  // pair index order from this thread — the journal's byte-stability across
  // num_threads rests on keeping emission out of the parallel loop above.
  // An endpoint is "fresh" when this commit re-derived at least one of its
  // corner relationship sets (added/updated mode); otherwise every set was
  // a carry-over.
  if (obs::Journal::enabled()) {
    for (size_t p = 0; p < dirty_pairs.size(); ++p) {
      if (computed[p] == 0) continue;
      const auto [i, j, st] = dirty_pairs[p];
      const PairVerdict& v = st->combined;
      obs::JournalEvent ev("pair_verdict");
      ev.field("session", journal_id_)
          .field("commit", commit_seq_)
          .field("a", journal_name(modes_[i].name, modes_[i].id))
          .field("b", journal_name(modes_[j].name, modes_[j].id))
          .field("a_id", modes_[i].id)
          .field("b_id", modes_[j].id)
          .field("a_rels_fresh", dirty_at[i] != nullptr)
          .field("b_rels_fresh", dirty_at[j] != nullptr)
          .field("mergeable", v.mergeable);
      if (!v.mergeable) {
        ev.field("category", v.category)
            .field("subject", v.subject)
            .field("reason", v.reason);
        // Interned-path provenance only: the id depends on interning order
        // across threads, so readers must not render it in stable output.
        if (v.subject_key_id != 0) ev.field("key_id", v.subject_key_id);
      }
      if (!corners_.single()) {
        ev.field("corners_checked", static_cast<uint64_t>(v.corners_checked));
        if (!v.mergeable) {
          ev.field("corner", v.corner)
              .field("corner_id", static_cast<uint64_t>(v.corner_id));
        }
      }
      // Policy provenance, emitted only under a non-exact policy so journals
      // of exact runs keep the pre-policy shape. The window fields name the
      // largest comparison the window (not tolerance) accepted — absent
      // when the verdict needed no window at all.
      if (v.policy != "exact") {
        ev.field("policy", v.policy);
        if (!v.window_field.empty()) {
          ev.field("window_field", v.window_field)
              .field("window_used", v.window_used)
              .field("window_budget", v.window_budget);
        }
      }
    }
  }

  // ONE cover over the combined verdicts of every live pair — the mode
  // partition is shared by every corner (docs/MCMM.md), and the shared
  // greedy cover makes it bit-identical to a from-scratch build.
  std::vector<uint8_t> adj(n * n, 0);
  std::vector<std::string> reasons(n * n);
  size_t slots_scanned = 0;
  for (size_t i = 0; i < n; ++i) adj[i * n + i] = 1;
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const PairState& st = pairs_.at(pair_key(modes_[i].id, modes_[j].id));
      slots_scanned += st.scanned;
      const PairVerdict& v = st.combined;
      adj[i * n + j] = adj[j * n + i] = v.mergeable ? 1 : 0;
      if (!v.mergeable) {
        reasons[i * n + j] = reasons[j * n + i] = v.reason;
      }
    }
  }
  // Every slot a scan visits is either computed or reused.
  out.pair_corner_reuses = slots_scanned - out.pair_corner_checks;
  MM_COUNT("merge/mergeability_pairs", out.pairs_rechecked);
  MM_COUNT("session/pairs_rechecked", out.pairs_rechecked);
  MM_COUNT("session/pairs_skipped_clean", out.pairs_skipped_clean);
  MM_COUNT("session/pair_corner_checks", out.pair_corner_checks);
  MM_COUNT("session/pair_corner_reuses", out.pair_corner_reuses);

  graph_ = MergeabilityGraph(n, std::move(adj), std::move(reasons));
  out.cliques = graph_.clique_cover();
  MM_COUNT("merge/cliques", out.cliques.size());

  for (const std::vector<size_t>& clique : out.cliques) {
    std::vector<ModeId> ids;
    ids.reserve(clique.size());
    for (size_t pos : clique) ids.push_back(modes_[pos].id);
    out.clique_ids.push_back(std::move(ids));
  }

  // Merge each clique once per corner from that corner's member decks,
  // reusing the previous commit's result when no member deck of that corner
  // changed. Corner-major so a corner's decks can be handed to qor() as one
  // flat report.
  out.merged.resize(num_corners);
  out.reused.resize(num_corners);
  std::unordered_map<std::string, std::shared_ptr<ValidatedMergeResult>>
      next_results;
  for (CornerId c = 0; c < num_corners; ++c) {
    for (size_t clique_index = 0; clique_index < out.cliques.size();
         ++clique_index) {
      const std::vector<size_t>& clique = out.cliques[clique_index];
      std::string key;
      if (policy_salt_ != 0) key = "p" + std::to_string(policy_salt_) + ":";
      if (!corners_.single()) key += "c" + std::to_string(c) + ":";
      bool any_dirty = false;
      for (size_t pos : clique) {
        key += std::to_string(modes_[pos].id);
        key += ',';
        any_dirty = any_dirty || slot_dirty(pos, c);
      }
      std::shared_ptr<ValidatedMergeResult> result;
      auto prev = clique_results_.find(key);
      const bool had_prev = results_valid_ && prev != clique_results_.end();
      const bool reuse = !any_dirty && had_prev;
      if (reuse) {
        result = prev->second;
        ++out.cliques_reused;
      } else {
        std::vector<const Sdc*> members;
        members.reserve(clique.size());
        for (size_t pos : clique) members.push_back(modes_[pos].decks[c]);
        result = std::make_shared<ValidatedMergeResult>(
            merge_modes(timing_graph_, members, *ctx_));
        ++out.cliques_merged;
      }
      if (obs::Journal::enabled()) {
        journal_clique(c, clique_index, out, reuse,
                       reuse ? "reused" : (had_prev ? "remerged" : "formed"),
                       *result);
      }
      next_results.emplace(std::move(key), result);
      out.merged[c].push_back(result);
      out.reused[c].push_back(reuse);
    }
  }
  clique_results_ = std::move(next_results);
  results_valid_ = true;
  dirty_.clear();

  MM_COUNT("session/commits", 1);
  MM_COUNT("session/cliques_dirty", out.cliques_merged);
  MM_COUNT("session/cliques_reused", out.cliques_reused);
  MM_GAUGE_SET("session/modes", n);
  MM_GAUGE_SET("session/corners", num_corners);
  ctx_->export_stats();

  out.total_seconds = timer.elapsed_seconds();
  if (obs::Journal::enabled()) {
    obs::JournalEvent ev("commit_end");
    ev.field("session", journal_id_)
        .field("commit", commit_seq_)
        .field("modes", static_cast<uint64_t>(n))
        .field("pairs_rechecked", out.pairs_rechecked)
        .field("pairs_skipped_clean", out.pairs_skipped_clean)
        .field("cliques", static_cast<uint64_t>(out.cliques.size()))
        .field("cliques_merged", out.cliques_merged)
        .field("cliques_reused", out.cliques_reused);
    if (!corners_.single()) {
      ev.field("pair_corner_checks", out.pair_corner_checks)
          .field("pair_corner_reuses", out.pair_corner_reuses);
    }
  }
  // A commit is a phase boundary: push everything buffered to the file so
  // a crash or a reader mid-session sees whole segments.
  obs::Journal::drain();
  last_ = std::move(out);
  return last_;
}

void McmmSession::journal_clique(CornerId corner, size_t clique_index,
                                 const CommitResult& out, bool reused,
                                 const char* action,
                                 const ValidatedMergeResult& result) const {
  const std::vector<size_t>& clique = out.cliques[clique_index];
  std::vector<std::string> names;
  names.reserve(clique.size());
  for (size_t pos : clique) {
    names.push_back(journal_name(modes_[pos].name, modes_[pos].id));
  }
  auto corner_fields = [&](obs::JournalEvent& ev) {
    if (!corners_.single()) {
      ev.field("corner", corners_.name(corner))
          .field("corner_id", static_cast<uint64_t>(corner));
    }
  };
  // Each builder appends its line at end of scope; keep the scopes disjoint
  // so the clique/refine/equivalence lines land in that order (seq is
  // assigned at construction, the append at destruction).
  {
    obs::JournalEvent ev("clique");
    ev.field("session", journal_id_)
        .field("commit", commit_seq_)
        .field("clique", static_cast<uint64_t>(clique_index))
        .field("action", action);
    corner_fields(ev);
    ev.string_array("members", names);
    ev.id_array("member_ids", out.clique_ids[clique_index]);
    // Bytes of the merged deck this clique (re)produced; reused cliques
    // changed nothing, which is what the timeline wants to show.
    ev.field("sdc_bytes",
             reused ? uint64_t{0}
                    : static_cast<uint64_t>(
                          sdc::write_sdc(*result.merge.merged).size()));
  }
  if (reused) return;
  const MergeStats& s = result.merge.stats;
  {
    obs::JournalEvent rev("refine");
    rev.field("session", journal_id_)
        .field("commit", commit_seq_)
        .field("clique", static_cast<uint64_t>(clique_index));
    corner_fields(rev);
    rev.field("inferred_disables", s.inferred_disables)
        .field("clock_stops_added", s.clock_stops_added)
        .field("data_clock_fps_added", s.data_clock_fps_added)
        .field("pass0_pair_fixed", s.pass0_pair_fixed)
        .field("pass1_mismatch_fixed", s.pass1_mismatch_fixed)
        .field("pass1_ambiguous", s.pass1_ambiguous)
        .field("pass2_mismatch_fixed", s.pass2_mismatch_fixed)
        .field("pass2_ambiguous", s.pass2_ambiguous)
        .field("pass3_pairs", s.pass3_pairs)
        .field("pass3_fps_added", s.pass3_fps_added)
        .field("unresolved_pessimism", s.unresolved_pessimism)
        // Per-pass wall clock in whole ms, like validate_ms below.
        .field("pass0_ms", to_ms(s.pass0_seconds))
        .field("pass1_ms", to_ms(s.pass1_seconds))
        .field("pass2_ms", to_ms(s.pass2_seconds))
        .field("pass3_ms", to_ms(s.pass3_seconds));
  }
  const EquivalenceReport& eq = result.equivalence;
  obs::JournalEvent eev("equivalence");
  eev.field("session", journal_id_)
      .field("commit", commit_seq_)
      .field("clique", static_cast<uint64_t>(clique_index));
  corner_fields(eev);
  eev.field("equivalent", eq.equivalent())
      .field("signoff_safe", eq.signoff_safe())
      .field("keys_compared", eq.keys_compared)
      .field("matches", eq.matches)
      .field("optimism_violations", eq.optimism_violations)
      .field("pessimism_keys", eq.pessimism_keys)
      .field("state_mismatches", eq.state_mismatches)
      // Wall-clock of the clique's validation walk; rounded to
      // whole ms (renderers ignore it — it is for jq-level profiling of
      // commit cost, see docs/OBSERVABILITY.md).
      .field("validate_ms", to_ms(s.validate_seconds));
}

std::vector<MergedModeSet> McmmSession::release_batch() {
  std::vector<MergedModeSet> out(corners_.size());
  for (CornerId c = 0; c < out.size(); ++c) {
    out[c].num_input_modes = last_.num_input_modes;
    out[c].cliques = last_.cliques;
    out[c].total_seconds = last_.total_seconds;
    if (c >= last_.merged.size()) continue;  // no commit yet
    out[c].merged.reserve(last_.merged[c].size());
    for (const std::shared_ptr<const ValidatedMergeResult>& r :
         last_.merged[c]) {
      // Move the payload out of the shared object. The reuse cache is
      // cleared below, so no later commit can observe the hollowed-out
      // results.
      out[c].merged.push_back(
          std::move(*std::const_pointer_cast<ValidatedMergeResult>(r)));
    }
  }
  last_ = CommitResult{};
  clique_results_.clear();
  results_valid_ = false;
  return out;
}

QoRReport McmmSession::qor(CornerId corner, double slack_eps) const {
  MM_ASSERT(corner < corners_.size());
  MM_ASSERT(corner < last_.merged.size());
  std::vector<const Sdc*> merged_decks;
  merged_decks.reserve(last_.merged[corner].size());
  for (const std::shared_ptr<const ValidatedMergeResult>& r :
       last_.merged[corner]) {
    merged_decks.push_back(r->merge.merged.get());
  }
  return qor_report(timing_graph_, corner_modes(corner), merged_decks,
                    last_.cliques, ctx_->options(), slack_eps);
}

}  // namespace mm::merge
