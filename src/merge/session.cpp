#include "merge/session.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "obs/journal.h"
#include "obs/obs.h"
#include "sdc/writer.h"
#include "util/error.h"
#include "util/logger.h"
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
std::string journal_name(const std::string& name, MergeSession::ModeId id) {
  return name.empty() ? "mode" + std::to_string(id) : name;
}

/// Journal timings are whole milliseconds (renderers ignore them).
uint64_t to_ms(double seconds) {
  return static_cast<uint64_t>(seconds * 1000.0);
}

}  // namespace

MergeSession::MergeSession(const timing::TimingGraph& graph, MergeContext& ctx)
    : timing_graph_(graph),
      ctx_(&ctx),
      journal_id_(next_session_journal_id()),
      policy_salt_(ctx.options().policy.fingerprint()) {}

MergeSession::MergeSession(const timing::TimingGraph& graph,
                           MergeOptions options)
    : timing_graph_(graph),
      owned_ctx_(std::make_unique<MergeContext>(options)),
      ctx_(owned_ctx_.get()),
      journal_id_(next_session_journal_id()),
      policy_salt_(owned_ctx_->options().policy.fingerprint()) {}

MergeSession::~MergeSession() = default;

uint64_t MergeSession::pair_key(ModeId a, ModeId b) const {
  if (a > b) std::swap(a, b);
  // XOR-salted with the policy fingerprint (0 under exact, so exact keys are
  // the plain packed ids); remove_mode un-salts before parsing the ids back.
  return ((a << 32) | b) ^ policy_salt_;
}

size_t MergeSession::position_of(ModeId id) const {
  for (size_t i = 0; i < modes_.size(); ++i) {
    if (modes_[i].id == id) return i;
  }
  throw Error("MergeSession: unknown mode id " + std::to_string(id));
}

bool MergeSession::has_mode(ModeId id) const {
  for (const Entry& e : modes_) {
    if (e.id == id) return true;
  }
  return false;
}

const std::string& MergeSession::mode_name(ModeId id) const {
  return modes_[position_of(id)].name;
}

std::vector<const Sdc*> MergeSession::live_modes() const {
  std::vector<const Sdc*> out;
  out.reserve(modes_.size());
  for (const Entry& e : modes_) out.push_back(e.sdc);
  return out;
}

void MergeSession::mark_dirty(ModeId id) { dirty_.insert(id); }

MergeSession::ModeId MergeSession::add_mode(std::string name, const Sdc* sdc) {
  MM_ASSERT(sdc != nullptr);
  // pair_key packs two ids into one uint64.
  MM_ASSERT(next_id_ < (uint64_t{1} << 32));
  Entry e;
  e.id = next_id_++;
  e.name = std::move(name);
  e.sdc = sdc;
  modes_.push_back(std::move(e));
  mark_dirty(modes_.back().id);
  MM_COUNT("session/modes_added", 1);
  if (obs::Journal::enabled()) {
    obs::JournalEvent ev("mode_add");
    ev.field("session", journal_id_)
        .field("mode_id", modes_.back().id)
        .field("name", journal_name(modes_.back().name, modes_.back().id))
        .field("content_key", hex_key(RelationshipCache::content_key(*sdc)));
  }
  return modes_.back().id;
}

void MergeSession::remove_mode(ModeId id) {
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
  for (auto it = verdicts_.begin(); it != verdicts_.end();) {
    const uint64_t key = it->first ^ policy_salt_;
    if ((key >> 32) == id || (key & 0xffffffffu) == id) {
      it = verdicts_.erase(it);
    } else {
      ++it;
    }
  }
  MM_COUNT("session/modes_removed", 1);
}

void MergeSession::update_mode(ModeId id, const Sdc* sdc) {
  MM_ASSERT(sdc != nullptr);
  Entry& e = modes_[position_of(id)];
  // The old content's cache entry is now stale for this session: evict it
  // eagerly so the cache only holds decks the session can still reach.
  if (e.sdc != nullptr) {
    ctx_->cache().invalidate(*e.sdc);
  }
  e.sdc = sdc;
  e.rels.reset();
  mark_dirty(id);
  MM_COUNT("session/modes_updated", 1);
  if (obs::Journal::enabled()) {
    obs::JournalEvent ev("mode_update");
    ev.field("session", journal_id_)
        .field("mode_id", id)
        .field("name", journal_name(e.name, id))
        .field("content_key", hex_key(RelationshipCache::content_key(*sdc)));
  }
}

const MergeSession::CommitResult& MergeSession::commit() {
  MM_SPAN("session/commit");
  Stopwatch timer;
  const MergeOptions& options = ctx_->options();
  const size_t n = modes_.size();

  CommitResult out;
  out.num_input_modes = n;

  ++commit_seq_;
  if (obs::Journal::enabled()) {
    obs::JournalEvent ev("commit_begin");
    ev.field("session", journal_id_)
        .field("commit", commit_seq_)
        .field("modes", static_cast<uint64_t>(n))
        .field("dirty_modes", static_cast<uint64_t>(dirty_.size()));
  }

  // Refresh relationship sets for modes that lost theirs (new or updated),
  // fanned over the pool like the batch build. Clean modes keep the
  // shared_ptr they already hold — zero cache probes, zero extractions.
  std::vector<Entry*> need;
  for (Entry& e : modes_) {
    if (!e.rels) need.push_back(&e);
  }
  ctx_->pool().parallel_for(need.size(), [&](size_t k) {
    need[k]->rels = ctx_->relationships(*need[k]->sdc);
  });

  // Re-check exactly the pairs with a dirty endpoint. Verdicts land in
  // their own slot and are folded into the map in index order, keeping the
  // adjacency fill deterministic.
  std::vector<std::pair<uint32_t, uint32_t>> dirty_pairs;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (dirty_.count(modes_[i].id) || dirty_.count(modes_[j].id)) {
        dirty_pairs.emplace_back(i, j);
      }
    }
  }
  std::vector<PairVerdict> fresh(dirty_pairs.size());
  ctx_->pool().parallel_for(
      dirty_pairs.size(), /*min_grain=*/16, [&](size_t p) {
        const auto [i, j] = dirty_pairs[p];
        fresh[p] = check_mergeable(*modes_[i].rels, *modes_[j].rels, options);
      });
  for (size_t p = 0; p < dirty_pairs.size(); ++p) {
    const auto [i, j] = dirty_pairs[p];
    verdicts_[pair_key(modes_[i].id, modes_[j].id)] = std::move(fresh[p]);
  }
  // One pair_verdict event per re-checked pair, emitted serially in pair
  // index order from this thread — the journal's byte-stability across
  // num_threads rests on keeping emission out of the parallel loop above.
  // An endpoint is "fresh" when this commit (re-)extracted its relationship
  // set (added/updated mode); the other endpoint was a cache carry-over.
  if (obs::Journal::enabled()) {
    for (size_t p = 0; p < dirty_pairs.size(); ++p) {
      const auto [i, j] = dirty_pairs[p];
      const PairVerdict& v = verdicts_.at(pair_key(modes_[i].id, modes_[j].id));
      obs::JournalEvent ev("pair_verdict");
      ev.field("session", journal_id_)
          .field("commit", commit_seq_)
          .field("a", journal_name(modes_[i].name, modes_[i].id))
          .field("b", journal_name(modes_[j].name, modes_[j].id))
          .field("a_id", modes_[i].id)
          .field("b_id", modes_[j].id)
          .field("a_rels_fresh", dirty_.count(modes_[i].id) != 0)
          .field("b_rels_fresh", dirty_.count(modes_[j].id) != 0)
          .field("mergeable", v.mergeable);
      if (!v.mergeable) {
        ev.field("category", v.category)
            .field("subject", v.subject)
            .field("reason", v.reason);
        // Interned-path provenance only: the id depends on interning order
        // across threads, so readers must not render it in stable output.
        if (v.subject_key_id != 0) ev.field("key_id", v.subject_key_id);
      }
      // Policy provenance, emitted only under a non-exact policy so journals
      // of exact runs stay byte-identical to pre-policy builds. The window
      // fields name the largest comparison the window (not tolerance)
      // accepted — absent when the verdict needed no window at all.
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
  const size_t total_pairs = n < 2 ? 0 : n * (n - 1) / 2;
  out.pairs_rechecked = dirty_pairs.size();
  out.pairs_skipped_clean = total_pairs - dirty_pairs.size();
  MM_COUNT("merge/mergeability_pairs", dirty_pairs.size());
  MM_COUNT("session/pairs_rechecked", out.pairs_rechecked);
  MM_COUNT("session/pairs_skipped_clean", out.pairs_skipped_clean);

  // Assemble the full graph from the verdict matrix and run the shared
  // greedy cover — bit-identical to a from-scratch build over these modes.
  std::vector<uint8_t> adj(n * n, 0);
  std::vector<std::string> reasons(n * n);
  for (size_t i = 0; i < n; ++i) adj[i * n + i] = 1;
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const PairVerdict& v =
          verdicts_.at(pair_key(modes_[i].id, modes_[j].id));
      adj[i * n + j] = adj[j * n + i] = v.mergeable ? 1 : 0;
      if (!v.mergeable) {
        reasons[i * n + j] = reasons[j * n + i] = v.reason;
      }
    }
  }
  graph_ = MergeabilityGraph(n, std::move(adj), std::move(reasons));
  out.cliques = graph_.clique_cover();
  MM_COUNT("merge/cliques", out.cliques.size());

  // Merge dirty cliques; hand back the previous result for untouched ones.
  std::unordered_map<std::string, std::shared_ptr<ValidatedMergeResult>>
      next_results;
  size_t clique_index = 0;
  for (const std::vector<size_t>& clique : out.cliques) {
    std::vector<ModeId> ids;
    // Member-id key, tagged with the policy fingerprint when windowed so a
    // cached clique result is only ever reused under the policy it was
    // merged with (empty tag under exact keeps that path's keys unchanged).
    std::string key;
    if (policy_salt_ != 0) key = "p" + std::to_string(policy_salt_) + ":";
    bool any_dirty = false;
    for (size_t pos : clique) {
      const ModeId id = modes_[pos].id;
      ids.push_back(id);
      key += std::to_string(id);
      key += ',';
      any_dirty = any_dirty || dirty_.count(id) != 0;
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
      for (size_t pos : clique) members.push_back(modes_[pos].sdc);
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
      // Each builder appends its line at end of scope; keep the scopes
      // disjoint so the clique/refine/equivalence lines land in that order
      // (seq is assigned at construction, the append at destruction).
      {
        obs::JournalEvent ev("clique");
        ev.field("session", journal_id_)
            .field("commit", commit_seq_)
            .field("clique", static_cast<uint64_t>(clique_index))
            .field("action",
                   reuse ? "reused" : (had_prev ? "remerged" : "formed"));
        ev.string_array("members", names);
        ev.id_array("member_ids", ids);
        // Bytes of the merged deck this clique (re)produced; reused cliques
        // changed nothing, which is what the timeline wants to show.
        ev.field("sdc_bytes",
                 reuse ? uint64_t{0}
                       : static_cast<uint64_t>(
                             sdc::write_sdc(*result->merge.merged).size()));
      }
      if (!reuse) {
        const MergeStats& s = result->merge.stats;
        {
          obs::JournalEvent rev("refine");
          rev.field("session", journal_id_)
              .field("commit", commit_seq_)
              .field("clique", static_cast<uint64_t>(clique_index))
              .field("inferred_disables", s.inferred_disables)
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
        const EquivalenceReport& eq = result->equivalence;
        obs::JournalEvent eev("equivalence");
        eev.field("session", journal_id_)
            .field("commit", commit_seq_)
            .field("clique", static_cast<uint64_t>(clique_index))
            .field("equivalent", eq.equivalent())
            .field("signoff_safe", eq.signoff_safe())
            .field("keys_compared", eq.keys_compared)
            .field("matches", eq.matches)
            .field("optimism_violations", eq.optimism_violations)
            .field("pessimism_keys", eq.pessimism_keys)
            .field("state_mismatches", eq.state_mismatches)
            // Wall-clock of the clique's batched validation walk; rounded
            // to whole ms (renderers ignore it — it is for jq-level
            // profiling of commit cost, see docs/OBSERVABILITY.md).
            .field("validate_ms", to_ms(s.validate_seconds));
      }
    }
    next_results.emplace(std::move(key), result);
    out.merged.push_back(result);
    out.clique_ids.push_back(std::move(ids));
    out.reused.push_back(reuse);
    ++clique_index;
  }
  clique_results_ = std::move(next_results);
  results_valid_ = true;
  dirty_.clear();

  MM_COUNT("session/commits", 1);
  MM_COUNT("session/cliques_dirty", out.cliques_merged);
  MM_COUNT("session/cliques_reused", out.cliques_reused);
  MM_GAUGE_SET("session/modes", n);
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
  }
  // A commit is a phase boundary: push everything buffered to the file so
  // a crash or a reader mid-session sees whole segments.
  obs::Journal::drain();
  last_ = std::move(out);
  return last_;
}

MergedModeSet MergeSession::release_batch() {
  MergedModeSet out;
  out.num_input_modes = last_.num_input_modes;
  out.cliques = last_.cliques;
  out.total_seconds = last_.total_seconds;
  out.merged.reserve(last_.merged.size());
  for (const std::shared_ptr<const ValidatedMergeResult>& r : last_.merged) {
    // Move the payload out of the shared object. The reuse cache is cleared
    // below, so no later commit can observe the hollowed-out results.
    out.merged.push_back(
        std::move(*std::const_pointer_cast<ValidatedMergeResult>(r)));
  }
  last_ = CommitResult{};
  clique_results_.clear();
  results_valid_ = false;
  return out;
}

}  // namespace mm::merge
