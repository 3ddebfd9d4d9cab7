#pragma once
// Static timing analysis driver: run relationship propagation with arrivals
// over one mode and summarize per-endpoint worst setup slacks. This is the
// engine the Table-6 benchmark times in "individual modes" vs "merged mode"
// configuration.

#include <string>
#include <unordered_map>
#include <vector>

#include "timing/relationships.h"

namespace mm::timing {

struct StaResult {
  /// endpoint pin id -> worst setup slack.
  std::unordered_map<uint32_t, float> endpoint_slack;
  /// endpoint pin id -> worst hold slack (when hold analysis is enabled).
  std::unordered_map<uint32_t, float> endpoint_hold_slack;
  double wns = 0.0;         // worst negative setup slack (0 if all positive)
  double tns = 0.0;         // total negative setup slack
  double whs = 0.0;         // worst negative hold slack
  size_t num_endpoints = 0;
  double runtime_seconds = 0.0;
};

/// Run full STA on one mode. The TimingGraph must be built from sdc's
/// design. `analyze_hold` adds min-path (hold) analysis.
StaResult run_sta(const TimingGraph& graph, const Sdc& sdc,
                  bool analyze_hold = false);

/// Run STA for every mode and keep, per endpoint, the worst slack over all
/// modes — the reference QoR against which the merged mode is judged
/// (paper §4, "worst slacks on all the endpoints ... merged vs individual").
StaResult run_sta_multi(const TimingGraph& graph,
                        const std::vector<const Sdc*>& modes);

/// Conformity metric from Table 6: the percentage of endpoints whose merged
/// slack deviates from the individual worst slack by at most
/// `tolerance_fraction` of the endpoint's capture clock period.
/// Endpoints timed in only one of the two results count as non-conforming.
double conformity(const StaResult& individual, const StaResult& merged,
                  const TimingGraph& graph, const Sdc& merged_sdc,
                  double tolerance_fraction = 0.01);

}  // namespace mm::timing
