#include "merge/refine_context.h"

namespace mm::merge {

using timing::CompiledExceptions;
using timing::PropagationOptions;
using timing::Propagator;
using timing::RelationTable;

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

std::shared_ptr<const std::vector<RelationTable>>
RefineContext::member_relations(const PropagationOptions& opts,
                                const ClockMap& map,
                                const std::function<void()>& beside) const {
  const bool memo = memoizable(opts);
  if (memo) {
    std::unique_lock<std::mutex> lock(memo_mutex_);
    if (memo_.tables && memo_.compute_arrivals == opts.compute_arrivals &&
        memo_.analyze_hold == opts.analyze_hold && memo_.map == map) {
      auto tables = memo_.tables;
      lock.unlock();
      if (beside) beside();
      return tables;
    }
  }

  const auto& excs = member_exceptions();
  auto tables = std::make_shared<std::vector<RelationTable>>(modes.size());
  const size_t tasks = modes.size() + (beside ? 1 : 0);
  pool.parallel_for(tasks, [&](size_t m) {
    if (m == modes.size()) {
      beside();
      return;
    }
    Propagator prop(*mode_graphs[m], *excs[m]);
    prop.run(opts);
    RelationTable& table = (*tables)[m];
    table = prop.release_relations();
    table.rename_clocks([&](sdc::ClockId c) {
      return c.valid() ? map.merged_of(m, c) : c;
    });
  });

  if (memo) {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    memo_ = {opts.compute_arrivals, opts.analyze_hold, map, tables};
  }
  return tables;
}

}  // namespace mm::merge
