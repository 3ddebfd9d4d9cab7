#include "timing/sta.h"

#include <algorithm>

#include "obs/obs.h"
#include "timing/delay_calc.h"
#include "util/timer.h"

namespace mm::timing {

StaResult run_sta(const TimingGraph& graph, const Sdc& sdc,
                  bool analyze_hold) {
  MM_SPAN_HOT("sta/run");
  Stopwatch timer;
  StaResult result;

  ModeGraph mode(graph, sdc);
  // Delay calculation: the per-run, constraint-independent cost every mode
  // pays (wire-load slew/delay solve), then constraint-dependent
  // propagation on top.
  const DelayCalcResult delays = compute_delays(graph, sdc, 12);
  CompiledExceptions exceptions(graph, sdc);
  Propagator prop(mode, exceptions);
  PropagationOptions options;
  options.compute_arrivals = true;
  options.arc_delays = &delays.arc_delay;
  options.arc_delays_min = &delays.arc_delay_min;
  options.analyze_hold = analyze_hold;
  prop.run(options);

  result.endpoint_slack = prop.worst_slack_by_endpoint();
  result.num_endpoints = result.endpoint_slack.size();
  for (const auto& [ep, slack] : result.endpoint_slack) {
    if (slack < 0) {
      result.wns = std::min(result.wns, static_cast<double>(slack));
      result.tns += slack;
    }
  }
  if (analyze_hold) {
    result.endpoint_hold_slack = prop.worst_hold_slack_by_endpoint();
    for (const auto& [ep, slack] : result.endpoint_hold_slack) {
      if (slack < 0)
        result.whs = std::min(result.whs, static_cast<double>(slack));
    }
  }
  result.runtime_seconds = timer.elapsed_seconds();
  return result;
}

StaResult run_sta_multi(const TimingGraph& graph,
                        const std::vector<const Sdc*>& modes) {
  MM_SPAN("sta/multi");
  MM_COUNT("sta/modes_analyzed", modes.size());
  Stopwatch timer;
  StaResult combined;
  for (const Sdc* sdc : modes) {
    const StaResult one = run_sta(graph, *sdc);
    for (const auto& [ep, slack] : one.endpoint_slack) {
      auto [it, inserted] = combined.endpoint_slack.emplace(ep, slack);
      if (!inserted) it->second = std::min(it->second, slack);
    }
    for (const auto& [ep, slack] : one.endpoint_hold_slack) {
      auto [it, inserted] = combined.endpoint_hold_slack.emplace(ep, slack);
      if (!inserted) it->second = std::min(it->second, slack);
    }
  }
  combined.num_endpoints = combined.endpoint_slack.size();
  for (const auto& [ep, slack] : combined.endpoint_slack) {
    if (slack < 0) {
      combined.wns = std::min(combined.wns, static_cast<double>(slack));
      combined.tns += slack;
    }
  }
  combined.runtime_seconds = timer.elapsed_seconds();
  return combined;
}

double conformity(const StaResult& individual, const StaResult& merged,
                  const TimingGraph& graph, const Sdc& merged_sdc,
                  double tolerance_fraction) {
  if (individual.endpoint_slack.empty()) return 100.0;

  ModeGraph mode(graph, merged_sdc);
  size_t conforming = 0;
  size_t total = 0;
  for (const auto& [ep, indiv_slack] : individual.endpoint_slack) {
    ++total;
    auto it = merged.endpoint_slack.find(ep);
    if (it == merged.endpoint_slack.end()) continue;  // lost endpoint: fail

    // Tolerance: 1% of the endpoint's (smallest) capture clock period.
    double period = 0.0;
    for (const ClockArrival& ca : mode.capture_clocks_at(PinId(ep))) {
      const double p = merged_sdc.clock(ca.clock).period;
      if (period == 0.0 || p < period) period = p;
    }
    if (period == 0.0) period = 1.0;

    if (std::abs(it->second - indiv_slack) <= tolerance_fraction * period) {
      ++conforming;
    }
  }
  // Endpoints only in merged (extra pessimistic endpoints) also count
  // against conformity.
  for (const auto& [ep, slack] : merged.endpoint_slack) {
    if (!individual.endpoint_slack.count(ep)) ++total;
  }
  return total == 0 ? 100.0 : 100.0 * static_cast<double>(conforming) /
                                  static_cast<double>(total);
}

}  // namespace mm::timing
