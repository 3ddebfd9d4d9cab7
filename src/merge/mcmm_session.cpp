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

uint64_t next_mcmm_journal_id() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::string hex_key(uint64_t key) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

std::string journal_name(const std::string& name, McmmSession::ModeId id) {
  return name.empty() ? "mode" + std::to_string(id) : name;
}

}  // namespace

McmmSession::McmmSession(const timing::TimingGraph& graph, CornerSet corners,
                         MergeContext& ctx)
    : timing_graph_(graph),
      corners_(std::move(corners)),
      ctx_(&ctx),
      journal_id_(next_mcmm_journal_id()),
      policy_salt_(ctx.options().policy.fingerprint()) {}

McmmSession::McmmSession(const timing::TimingGraph& graph, CornerSet corners,
                         MergeOptions options)
    : timing_graph_(graph),
      corners_(std::move(corners)),
      owned_ctx_(std::make_unique<MergeContext>(options)),
      ctx_(owned_ctx_.get()),
      journal_id_(next_mcmm_journal_id()),
      policy_salt_(owned_ctx_->options().policy.fingerprint()) {}

McmmSession::~McmmSession() = default;

uint64_t McmmSession::pair_key(ModeId a, ModeId b) const {
  if (a > b) std::swap(a, b);
  return ((a << 32) | b) ^ policy_salt_;
}

size_t McmmSession::position_of(ModeId id) const {
  for (size_t i = 0; i < modes_.size(); ++i) {
    if (modes_[i].id == id) return i;
  }
  throw Error("McmmSession: unknown mode id " + std::to_string(id));
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

bool McmmSession::corner_dirty(ModeId id, CornerId corner) const {
  auto it = dirty_.find(id);
  return it != dirty_.end() && it->second[corner] != 0;
}

McmmSession::ModeId McmmSession::add_mode(std::string name,
                                          std::vector<const Sdc*> decks) {
  MM_ASSERT(decks.size() == corners_.size());
  for (const Sdc* d : decks) MM_ASSERT(d != nullptr);
  MM_ASSERT(next_id_ < (uint64_t{1} << 32));
  Entry e;
  e.id = next_id_++;
  e.name = std::move(name);
  e.decks = std::move(decks);
  e.rels.resize(corners_.size());
  modes_.push_back(std::move(e));
  dirty_[modes_.back().id].assign(corners_.size(), 1);
  MM_COUNT("mcmm/modes_added", 1);
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
  MM_COUNT("mcmm/modes_updated", 1);
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
  for (auto it = pairs_.begin(); it != pairs_.end();) {
    const uint64_t key = it->first ^ policy_salt_;
    if ((key >> 32) == id || (key & 0xffffffffu) == id) {
      it = pairs_.erase(it);
    } else {
      ++it;
    }
  }
  MM_COUNT("mcmm/modes_removed", 1);
}

PairVerdict McmmSession::check_corner(const Entry& a, const Entry& b,
                                      CornerId corner) const {
  const MergeOptions& options = ctx_->options();
  if (corner == kPrimaryCorner) {
    return check_mergeable(*a.rels[corner], *b.rels[corner], options);
  }
  const bool shares_skeleton =
      a.rels[corner]->structure_fp == a.rels[kPrimaryCorner]->structure_fp &&
      b.rels[corner]->structure_fp == b.rels[kPrimaryCorner]->structure_fp;
  return shares_skeleton
             ? check_mergeable_values(*a.rels[corner], *b.rels[corner],
                                      options)
             : check_mergeable(*a.rels[corner], *b.rels[corner], options);
}

const McmmSession::CommitResult& McmmSession::commit() {
  MM_SPAN("mcmm/commit");
  Stopwatch timer;
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

  // Invalidate stored verdicts whose (corner, endpoint) slot is dirty. The
  // slots become absent, not wrong: the resume scan below recomputes a slot
  // only when it is reached, and a slot past an early exit stays absent
  // until a later commit clears the exit.
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      auto [it, inserted] =
          pairs_.try_emplace(pair_key(modes_[i].id, modes_[j].id));
      PairState& st = it->second;
      if (inserted) {
        st.checked.assign(num_corners, 0);
        st.verdicts.resize(num_corners);
      }
      for (CornerId c = 0; c < num_corners; ++c) {
        if (corner_dirty(modes_[i].id, c) || corner_dirty(modes_[j].id, c)) {
          st.checked[c] = 0;
        }
      }
    }
  }

  // Resume every pair: scan corners in order, computing absent slots and
  // reusing stored ones, early exit on the first conflicting corner. Pairs
  // fan out over the pool; each pair touches only its own PairState (the
  // map was fully populated above) and its own stat slots, so the combined
  // verdicts — and the journal emitted serially after the loop — are
  // bit-identical to a serial scan.
  std::vector<std::pair<uint32_t, uint32_t>> all_pairs;
  all_pairs.reserve(n < 2 ? 0 : n * (n - 1) / 2);
  for (uint32_t i = 0; i + 1 < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) all_pairs.emplace_back(i, j);
  }
  std::vector<PairVerdict> combined(all_pairs.size());
  std::vector<uint32_t> computed(all_pairs.size(), 0);
  std::vector<uint32_t> reused(all_pairs.size(), 0);
  ctx_->pool().parallel_for(
      all_pairs.size(), /*min_grain=*/16, [&](size_t p) {
        const auto [i, j] = all_pairs[p];
        PairState& st = pairs_.at(pair_key(modes_[i].id, modes_[j].id));
        PairVerdict result;
        for (CornerId c = 0; c < num_corners; ++c) {
          if (!st.checked[c]) {
            st.verdicts[c] = check_corner(modes_[i], modes_[j], c);
            st.checked[c] = 1;
            ++computed[p];
          } else {
            ++reused[p];
          }
          if (!st.verdicts[c].mergeable) {
            result = st.verdicts[c];
            if (!corners_.single()) {
              result.corner = corners_.name(c);
              result.corner_id = c;
              result.corners_checked = c + 1;
            }
            combined[p] = std::move(result);
            return;
          }
        }
        result = st.verdicts[kPrimaryCorner];
        if (!corners_.single()) {
          result.corners_checked = static_cast<uint32_t>(num_corners);
        }
        combined[p] = std::move(result);
      });
  for (size_t p = 0; p < all_pairs.size(); ++p) {
    out.pair_corner_checks += computed[p];
    out.pair_corner_reuses += reused[p];
    if (computed[p] > 0) {
      ++out.pairs_rechecked;
    } else {
      ++out.pairs_skipped_clean;
    }
  }
  // One pair_verdict event per pair with fresh work, serial, index order.
  if (obs::Journal::enabled()) {
    for (size_t p = 0; p < all_pairs.size(); ++p) {
      if (computed[p] == 0) continue;
      const auto [i, j] = all_pairs[p];
      const PairVerdict& v = combined[p];
      obs::JournalEvent ev("pair_verdict");
      ev.field("session", journal_id_)
          .field("commit", commit_seq_)
          .field("a", journal_name(modes_[i].name, modes_[i].id))
          .field("b", journal_name(modes_[j].name, modes_[j].id))
          .field("a_id", modes_[i].id)
          .field("b_id", modes_[j].id)
          .field("mergeable", v.mergeable);
      if (!v.mergeable) {
        ev.field("category", v.category)
            .field("subject", v.subject)
            .field("reason", v.reason);
        if (v.subject_key_id != 0) ev.field("key_id", v.subject_key_id);
      }
      // Corner provenance only at C > 1: single-corner journals stay
      // byte-identical to the flat engine's event shape.
      if (!corners_.single()) {
        ev.field("corners_checked", static_cast<uint64_t>(v.corners_checked));
        if (!v.mergeable) {
          ev.field("corner", v.corner)
              .field("corner_id", static_cast<uint64_t>(v.corner_id));
        }
      }
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
  MM_COUNT("mcmm/pairs_rechecked", out.pairs_rechecked);
  MM_COUNT("mcmm/pairs_skipped_clean", out.pairs_skipped_clean);
  MM_COUNT("mcmm/pair_corner_checks", out.pair_corner_checks);
  MM_COUNT("mcmm/pair_corner_reuses", out.pair_corner_reuses);

  // ONE cover over the combined verdicts — the mode partition is shared by
  // every corner (docs/MCMM.md). Cover code is the greedy implementation
  // the flat paths use, so at C == 1 it is bit-identical to MergeSession.
  std::vector<uint8_t> adj(n * n, 0);
  std::vector<std::string> reasons(n * n);
  for (size_t i = 0; i < n; ++i) adj[i * n + i] = 1;
  for (size_t p = 0; p < all_pairs.size(); ++p) {
    const auto [i, j] = all_pairs[p];
    const PairVerdict& v = combined[p];
    adj[i * n + j] = adj[j * n + i] = v.mergeable ? 1 : 0;
    if (!v.mergeable) {
      reasons[i * n + j] = reasons[j * n + i] = v.reason;
    }
  }
  graph_ = MergeabilityGraph(n, std::move(adj), std::move(reasons));
  out.cliques = graph_.clique_cover();
  MM_COUNT("mcmm/cliques", out.cliques.size());

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
        any_dirty = any_dirty || corner_dirty(modes_[pos].id, c);
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
        std::vector<std::string> names;
        names.reserve(clique.size());
        for (size_t pos : clique) {
          names.push_back(journal_name(modes_[pos].name, modes_[pos].id));
        }
        obs::JournalEvent ev("clique");
        ev.field("session", journal_id_)
            .field("commit", commit_seq_)
            .field("clique", static_cast<uint64_t>(clique_index))
            .field("action",
                   reuse ? "reused" : (had_prev ? "remerged" : "formed"));
        if (!corners_.single()) {
          ev.field("corner", corners_.name(c))
              .field("corner_id", static_cast<uint64_t>(c));
        }
        ev.string_array("members", names);
        ev.id_array("member_ids", out.clique_ids[clique_index]);
        ev.field("sdc_bytes",
                 reuse ? uint64_t{0}
                       : static_cast<uint64_t>(
                             sdc::write_sdc(*result->merge.merged).size()));
      }
      next_results.emplace(std::move(key), result);
      out.merged[c].push_back(result);
      out.reused[c].push_back(reuse);
    }
  }
  clique_results_ = std::move(next_results);
  results_valid_ = true;
  dirty_.clear();

  MM_COUNT("mcmm/commits", 1);
  MM_COUNT("mcmm/cliques_merged", out.cliques_merged);
  MM_COUNT("mcmm/cliques_reused", out.cliques_reused);
  MM_GAUGE_SET("mcmm/modes", n);
  MM_GAUGE_SET("mcmm/corners", num_corners);
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
  obs::Journal::drain();
  last_ = std::move(out);
  return last_;
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
