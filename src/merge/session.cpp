#include "merge/session.h"

#include <utility>

namespace mm::merge {

MergeSession::MergeSession(const timing::TimingGraph& graph, MergeContext& ctx)
    : engine_(graph, CornerSet(), ctx) {}

MergeSession::MergeSession(const timing::TimingGraph& graph,
                           MergeOptions options)
    : engine_(graph, CornerSet(), std::move(options)) {}

MergeSession::~MergeSession() = default;

MergeSession::ModeId MergeSession::add_mode(std::string name, const Sdc* sdc) {
  return engine_.add_mode(std::move(name), {sdc});
}

void MergeSession::remove_mode(ModeId id) { engine_.remove_mode(id); }

void MergeSession::update_mode(ModeId id, const Sdc* sdc) {
  engine_.update_mode(id, kPrimaryCorner, sdc);
}

const MergeSession::CommitResult& MergeSession::commit() {
  const McmmSession::CommitResult& r = engine_.commit();
  last_.merged = r.merged[kPrimaryCorner];
  last_.cliques = r.cliques;
  last_.clique_ids = r.clique_ids;
  last_.reused = r.reused[kPrimaryCorner];
  last_.num_input_modes = r.num_input_modes;
  last_.pairs_rechecked = r.pairs_rechecked;
  last_.pairs_skipped_clean = r.pairs_skipped_clean;
  last_.cliques_reused = r.cliques_reused;
  last_.cliques_merged = r.cliques_merged;
  last_.total_seconds = r.total_seconds;
  return last_;
}

MergedModeSet MergeSession::release_batch() {
  // Drop the flattened view's references first: the engine hollows the
  // shared results out.
  last_ = CommitResult{};
  return std::move(engine_.release_batch()[kPrimaryCorner]);
}

}  // namespace mm::merge
