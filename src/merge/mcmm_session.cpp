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
      journal_id_(next_session_journal_id()) {}

McmmSession::McmmSession(const timing::TimingGraph& graph, CornerSet corners,
                         MergeOptions options)
    : timing_graph_(graph),
      corners_(std::move(corners)),
      owned_ctx_(std::make_unique<MergeContext>(options)),
      ctx_(owned_ctx_.get()),
      journal_id_(next_session_journal_id()) {}

McmmSession::~McmmSession() = default;

uint64_t McmmSession::pair_key(ModeId a, ModeId b) {
  if (a > b) std::swap(a, b);
  return (a << 32) | b;
}

size_t McmmSession::position_of(ModeId id) const {
  for (size_t i = 0; i < modes_.size(); ++i) {
    if (modes_[i].id == id) return i;
  }
  throw Error("session: unknown mode id " + std::to_string(id));
}

size_t McmmSession::num_member_views() const {
  size_t n = 0;
  for (const Entry& e : modes_) {
    for (const MemberView& v : e.views) n += v.empty() ? 0 : 1;
  }
  return n;
}

const MemberView& McmmSession::member_view(ModeId id,
                                           CornerId corner) const {
  MM_ASSERT(corner < corners_.size());
  return modes_[position_of(id)].views[corner];
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
  e.views.resize(corners_.size());
  if (!corners_.single()) e.state_fps.resize(corners_.size());
  modes_.push_back(std::move(e));
  positions_moved_ = true;
  dirty_[modes_.back().id].assign(corners_.size(), 1);
  MM_COUNT("session/modes_added", 1);
  if (obs::Journal::enabled()) {
    obs::JournalEvent ev("mode_add");
    ev.field("session", journal_id_)
        .field("mode_id", modes_.back().id)
        .field("name", journal_name(modes_.back().name, modes_.back().id))
        .field("content_key", hex_key(content_fingerprint(
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
  e.decks[corner] = deck;
  e.rels[corner].reset();
  // The view borrows the old deck (which may be this same object, edited
  // in place): it describes a deck the slot no longer has. Its ModeGraph
  // and launch reach read only what the timing_view_key covers, so when
  // the new deck's key equals the one the view was built from (an edit
  // of exceptions only) they carry over, the ModeGraph rebound to the new
  // deck; the compiled exceptions and the relation table never do. The
  // stored key, not the old deck, is compared: an edit in place has
  // already overwritten the old deck.
  MemberView& view = e.views[corner];
  if (!view.empty() && view.key == timing_view_key(*deck)) {
    MemberView kept;
    kept.mode_graph = std::make_shared<const timing::ModeGraph>(
        view.mode_graph->rebound(*deck));
    kept.key = view.key;
    kept.reach = std::move(view.reach);
    view = std::move(kept);
    MM_COUNT("session/member_graphs_kept", 1);
  } else {
    view = MemberView{};
  }
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
        .field("content_key", hex_key(content_fingerprint(*deck)));
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
  positions_moved_ = true;
  dirty_.erase(id);
  // Drop the mode's verdict row; surviving pairs stay clean — only cliques
  // that contained the mode will re-merge (their member-id key changes).
  for (auto it = pairs_.begin(); it != pairs_.end();) {
    const uint64_t key = it->first;
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
  const double busy_at_start = ctx_->pool().busy_seconds();
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

  // Build the relationship sets of dirty (mode, corner) slots: skeletons
  // first (corner 0, full extraction fanned over the pool), then the other
  // corners as value-only delta fills against their mode's skeleton. Clean
  // slots keep the set they already hold.
  std::vector<Entry*> need_skeleton;
  for (Entry& e : modes_) {
    if (!e.rels[kPrimaryCorner]) need_skeleton.push_back(&e);
  }
  // At C > 1 each refreshed slot also gets its timing-state fingerprint,
  // which decides corner sharing below.
  const bool share_corners = !corners_.single();
  ctx_->pool().parallel_for(need_skeleton.size(), [&](size_t k) {
    Entry& e = *need_skeleton[k];
    e.rels[kPrimaryCorner] = ctx_->builder().get(*e.decks[kPrimaryCorner]);
    if (share_corners) {
      e.state_fps[kPrimaryCorner] =
          timing_state_fingerprint(*e.decks[kPrimaryCorner]);
    }
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
        ctx_->builder().get_corner(*e->decks[c], *e->rels[kPrimaryCorner]);
    e->state_fps[c] = timing_state_fingerprint(*e->decks[c]);
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
            st.verdicts[c] = check_mergeable(*a.rels[c], *b.rels[c], options);
            st.checked[c] = 1;
            ++computed[p];
          }
          if (!st.verdicts[c].mergeable) break;
        }
        if (computed[p] == 0) return;
        const bool conflict = c < num_corners;
        st.scanned = conflict ? c + 1 : static_cast<uint32_t>(num_corners);
        st.combined = with_corner_provenance(
            st.verdicts[conflict ? c : kPrimaryCorner], c, corners_);
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
  // When no mode moved since the last commit, only pairs whose verdict was
  // recomputed can differ from the last graph: patch those cells instead
  // of rebuilding all n * n (and copying every conflict reason again).
  if (positions_moved_ || graph_.num_modes() != n) {
    std::vector<uint8_t> adj(n * n, 0);
    std::vector<std::string> reasons(n * n);
    for (size_t i = 0; i < n; ++i) adj[i * n + i] = 1;
    for (size_t i = 0; i + 1 < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const PairVerdict& v =
            pairs_.at(pair_key(modes_[i].id, modes_[j].id)).combined;
        adj[i * n + j] = adj[j * n + i] = v.mergeable ? 1 : 0;
        if (!v.mergeable) {
          reasons[i * n + j] = reasons[j * n + i] = v.reason;
        }
      }
    }
    graph_ = MergeabilityGraph(n, std::move(adj), std::move(reasons));
    positions_moved_ = false;
  } else {
    for (size_t p = 0; p < dirty_pairs.size(); ++p) {
      if (computed[p] == 0) continue;
      const PairVerdict& v = dirty_pairs[p].st->combined;
      graph_.set_pair(dirty_pairs[p].i, dirty_pairs[p].j, v.mergeable,
                      v.mergeable ? std::string() : v.reason);
    }
  }
  // Every slot a scan visits is either computed or reused; pairs_ holds
  // exactly the live pairs.
  size_t slots_scanned = 0;
  for (const auto& [key, st] : pairs_) slots_scanned += st.scanned;
  out.pair_corner_reuses = slots_scanned - out.pair_corner_checks;
  MM_COUNT("merge/mergeability_pairs", out.pairs_rechecked);
  MM_COUNT("session/pairs_rechecked", out.pairs_rechecked);
  MM_COUNT("session/pairs_skipped_clean", out.pairs_skipped_clean);
  MM_COUNT("session/pair_corner_checks", out.pair_corner_checks);
  MM_COUNT("session/pair_corner_reuses", out.pair_corner_reuses);

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
  // changed. The cliques are independent (each becomes its own merged
  // mode), so the dirty merges fan out over the pool in two rounds: every
  // dirty corner-0 clique, then every dirty (clique, corner c > 0) slot,
  // whose corner-0 result (merged or reused) is by then there to donate its
  // fix list. A merge touches only its own slot; all bookkeeping — reuse,
  // member views, counters, journal events — runs after both rounds in one
  // serial loop in (corner, cover) order, so results and journals are the
  // same at any thread count.
  // Slots keep their member views from the second commit on; a batch
  // merge (one commit) keeps none.
  const bool keep_views = commit_seq_ > 1;
  const size_t num_cliques = out.cliques.size();
  clique_results_.resize(num_corners);  // empty before the first commit
  struct Slot {
    std::shared_ptr<ValidatedMergeResult> result;
    bool had_prev = false;
    bool reuse = false;
    /// The members' views, handed to the merge and written back by it.
    std::vector<MemberView> views;
  };
  // slots[c * num_cliques + clique_index]
  std::vector<Slot> slots(num_corners * num_cliques);
  std::vector<size_t> dirty_primary;  // slot indices, corner 0
  std::vector<size_t> dirty_rest;     // slot indices, corners c > 0
  for (CornerId c = 0; c < num_corners; ++c) {
    for (size_t k = 0; k < num_cliques; ++k) {
      Slot& slot = slots[c * num_cliques + k];
      bool any_dirty = false;
      for (size_t pos : out.cliques[k]) {
        any_dirty = any_dirty || slot_dirty(pos, c);
      }
      auto prev = clique_results_[c].find(out.clique_ids[k]);
      slot.had_prev = prev != clique_results_[c].end();
      slot.reuse = !any_dirty && slot.had_prev;
      if (slot.reuse) {
        slot.result = prev->second;
        continue;
      }
      if (keep_views) {
        slot.views.reserve(out.cliques[k].size());
        for (size_t pos : out.cliques[k]) {
          slot.views.push_back(modes_[pos].views[c]);
        }
      }
      (c == kPrimaryCorner ? dirty_primary : dirty_rest)
          .push_back(c * num_cliques + k);
    }
  }
  auto merge_slot = [&](size_t s) {
    const CornerId c = static_cast<CornerId>(s / num_cliques);
    const size_t k = s % num_cliques;
    const std::vector<size_t>& clique = out.cliques[k];
    std::vector<const Sdc*> members;
    RelationshipSets rels;
    members.reserve(clique.size());
    rels.reserve(clique.size());
    for (size_t pos : clique) {
      members.push_back(modes_[pos].decks[c]);
      rels.push_back(modes_[pos].rels[c]);
    }
    const ValidatedMergeResult* donor = nullptr;
    if (c != kPrimaryCorner) {
      bool same_state = true;
      for (size_t pos : clique) {
        const std::vector<uint64_t>& fps = modes_[pos].state_fps;
        same_state = same_state && fps[c] == fps[kPrimaryCorner];
      }
      if (same_state) donor = slots[k].result.get();
    }
    Slot& slot = slots[s];
    slot.result = std::make_shared<ValidatedMergeResult>(
        merge_modes(timing_graph_, members, rels, *ctx_, donor,
                    keep_views ? &slot.views : nullptr));
  };
  ctx_->pool().parallel_for(dirty_primary.size(),
                            [&](size_t i) { merge_slot(dirty_primary[i]); });
  ctx_->pool().parallel_for(dirty_rest.size(),
                            [&](size_t i) { merge_slot(dirty_rest[i]); });

  size_t views_built = 0;
  size_t views_reused = 0;
  out.merged.resize(num_corners);
  out.reused.resize(num_corners);
  std::vector<CliqueResults> next_results(num_corners);
  for (CornerId c = 0; c < num_corners; ++c) {
    for (size_t clique_index = 0; clique_index < num_cliques;
         ++clique_index) {
      Slot& slot = slots[c * num_cliques + clique_index];
      const std::vector<size_t>& clique = out.cliques[clique_index];
      const ValidatedMergeResult& result = *slot.result;
      if (slot.reuse) {
        ++out.cliques_reused;
      } else {
        if (keep_views && !result.shared && options.run_refinement) {
          // A view is "built" when the merge walked its relation table; one
          // that kept only its ModeGraph across an edit counts as built.
          for (size_t i = 0; i < clique.size(); ++i) {
            MemberView& view = modes_[clique[i]].views[c];
            ++(view.relations ? views_reused : views_built);
            view = std::move(slot.views[i]);
          }
        }
        ++out.cliques_merged;
        if (c != kPrimaryCorner) {
          ++(result.shared ? out.corner_shared_merges
                           : out.corner_share_fallbacks);
        }
      }
      if (obs::Journal::enabled()) {
        journal_clique(
            c, clique_index, out, slot.reuse,
            slot.reuse ? "reused" : (slot.had_prev ? "remerged" : "formed"),
            result);
      }
      next_results[c].emplace(out.clique_ids[clique_index], slot.result);
      out.merged[c].push_back(slot.result);
      out.reused[c].push_back(slot.reuse);
    }
  }
  clique_results_ = std::move(next_results);
  dirty_.clear();

  MM_COUNT("session/commits", 1);
  MM_COUNT("session/cliques_dirty", out.cliques_merged);
  MM_COUNT("session/cliques_reused", out.cliques_reused);
  MM_COUNT("session/member_views_built", views_built);
  MM_COUNT("session/member_views_reused", views_reused);
  if (share_corners) {
    MM_COUNT("session/corner_shared_merges", out.corner_shared_merges);
    MM_COUNT("session/corner_share_fallbacks", out.corner_share_fallbacks);
  }
  MM_GAUGE_SET("session/modes", n);
  MM_GAUGE_SET("session/corners", num_corners);
  // Pool threads busy per second of commit wall time, in percent: 100 is
  // one core's worth of merge work.
  const double wall = timer.elapsed_seconds();
  MM_GAUGE_SET("session/cpu_per_wall_pct",
               wall > 0.0 ? 100.0 * (ctx_->pool().busy_seconds() -
                                     busy_at_start) / wall
                          : 0.0);
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
  // A shared result's refinement and validation ran in corner 0.
  auto provenance = [&](obs::JournalEvent& ev) {
    if (result.shared) {
      ev.field("shared_from", corners_.name(kPrimaryCorner))
          .field("shared_from_id", static_cast<uint64_t>(kPrimaryCorner));
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
    provenance(rev);
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
  provenance(eev);
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
  for (Entry& e : modes_) {
    for (MemberView& v : e.views) v = MemberView{};
  }
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
