#include "merge/refine_context.h"

namespace mm::merge {

using timing::CompiledExceptions;
using timing::PropagationOptions;
using timing::Propagator;
using timing::RelationMap;

namespace {

/// Only whole-graph endpoint-level walks are memoized: pass 1 and the
/// equivalence check ask for exactly these, and keeping larger or filtered
/// maps alive would cost memory for no reuse.
bool memoizable(const PropagationOptions& opts) {
  return !opts.track_startpoints && opts.pin_filter == nullptr &&
         opts.arc_delays == nullptr && opts.arc_delays_min == nullptr;
}

}  // namespace

const std::vector<std::unique_ptr<CompiledExceptions>>&
RefineContext::member_exceptions() const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  if (member_exceptions_.size() != modes.size()) {
    member_exceptions_.resize(modes.size());
    pool.parallel_for(modes.size(), [&](size_t m) {
      member_exceptions_[m] =
          std::make_unique<CompiledExceptions>(*graph, *modes[m]);
    });
  }
  return member_exceptions_;
}

std::shared_ptr<const std::vector<RelationMap>> RefineContext::member_relations(
    const PropagationOptions& opts) const {
  const bool memo = memoizable(opts);
  if (memo) {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    if (memo_.maps && memo_.compute_arrivals == opts.compute_arrivals &&
        memo_.analyze_hold == opts.analyze_hold) {
      return memo_.maps;
    }
  }

  const auto& excs = member_exceptions();
  auto maps = std::make_shared<std::vector<RelationMap>>(modes.size());
  pool.parallel_for(modes.size(), [&](size_t m) {
    Propagator prop(*mode_graphs[m], *excs[m]);
    prop.run(opts);
    (*maps)[m] = prop.release_relations();
  });

  if (memo) {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    memo_ = {opts.compute_arrivals, opts.analyze_hold, maps};
  }
  return maps;
}

void accumulate_mapped(const RelationMap& member, size_t m, const ClockMap& map,
                       RelationMap& out) {
  for (const auto& [key, data] : member) {
    timing::RelationKey mapped = key;
    if (mapped.launch.valid()) mapped.launch = map.merged_of(m, mapped.launch);
    if (mapped.capture.valid())
      mapped.capture = map.merged_of(m, mapped.capture);
    timing::RelationData& slot = out[mapped];
    slot.states.merge(data.states);
    slot.hold_states.merge(data.hold_states);
  }
}

}  // namespace mm::merge
