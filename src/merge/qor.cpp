#include "merge/qor.h"

#include <algorithm>
#include <unordered_map>

#include "obs/json.h"
#include "obs/obs.h"
#include "timing/sta.h"
#include "util/thread_pool.h"

namespace mm::merge {

QoRReport qor_report(const timing::TimingGraph& graph,
                     const std::vector<const Sdc*>& modes,
                     const MergedModeSet& merged, const MergeOptions& options,
                     double slack_eps) {
  std::vector<const Sdc*> merged_decks;
  merged_decks.reserve(merged.merged.size());
  for (const ValidatedMergeResult& r : merged.merged) {
    merged_decks.push_back(r.merge.merged.get());
  }
  return qor_report(graph, modes, merged_decks, merged.cliques, options,
                    slack_eps);
}

QoRReport qor_report(const timing::TimingGraph& graph,
                     const std::vector<const Sdc*>& modes,
                     const std::vector<const Sdc*>& merged_decks,
                     const std::vector<std::vector<size_t>>& cliques,
                     const MergeOptions& options, double slack_eps) {
  MM_SPAN("merge/qor_report");
  QoRReport out;
  out.policy = options.policy.name();
  out.pessimism_bound = options.policy.pessimism_bound();
  out.slack_eps = slack_eps;

  // Every deck of every multi-member clique, members first and the merged
  // deck last, timed by its own setup-only run_sta across the pool; each
  // index writes only its own slot.
  std::vector<size_t> first_deck(cliques.size() + 1, 0);
  std::vector<const Sdc*> decks;
  for (size_t c = 0; c < cliques.size(); ++c) {
    first_deck[c] = decks.size();
    if (cliques[c].size() < 2) continue;  // merged deck is the mode verbatim
    for (size_t m : cliques[c]) decks.push_back(modes[m]);
    decks.push_back(merged_decks[c]);
  }
  first_deck[cliques.size()] = decks.size();
  std::vector<timing::StaResult> sta(decks.size());
  ThreadPool pool(options.num_threads);
  pool.parallel_for(decks.size(), [&](size_t d) {
    sta[d] = timing::run_sta(graph, *decks[d], /*analyze_hold=*/false);
  });

  double pessimism_sum = 0.0;
  for (size_t c = 0; c < cliques.size(); ++c) {
    const std::vector<size_t>& clique = cliques[c];
    if (clique.size() < 2) continue;
    const size_t merged_index = first_deck[c + 1] - 1;
    const timing::StaResult& merged_sta = sta[merged_index];

    // Worst (minimum) individual slack per endpoint over the members.
    std::unordered_map<uint32_t, float> worst;
    for (size_t d = first_deck[c]; d < merged_index; ++d) {
      for (const auto& [ep, slack] : sta[d].endpoint_slack) {
        auto [it, inserted] = worst.emplace(ep, slack);
        if (!inserted) it->second = std::min(it->second, slack);
      }
    }

    CliqueQoR q;
    q.clique_index = c;
    q.num_members = clique.size();
    double clique_sum = 0.0;
    for (const auto& [ep, individual] : worst) {
      auto it = merged_sta.endpoint_slack.find(ep);
      if (it == merged_sta.endpoint_slack.end()) {
        ++q.missing_endpoints;
        continue;
      }
      ++q.endpoints_compared;
      const double delta =
          static_cast<double>(individual) - static_cast<double>(it->second);
      if (delta < -slack_eps) {
        ++q.optimism_violations;
        q.max_optimism = std::max(q.max_optimism, -delta);
      } else if (delta > 0.0) {
        q.max_pessimism = std::max(q.max_pessimism, delta);
        clique_sum += delta;
      }
    }
    if (q.endpoints_compared > 0) {
      q.mean_pessimism = clique_sum / static_cast<double>(q.endpoints_compared);
    }

    out.endpoints_compared += q.endpoints_compared;
    out.missing_endpoints += q.missing_endpoints;
    out.optimism_violations += q.optimism_violations;
    out.max_optimism = std::max(out.max_optimism, q.max_optimism);
    out.max_pessimism = std::max(out.max_pessimism, q.max_pessimism);
    pessimism_sum += clique_sum;
    out.cliques.push_back(q);
  }
  if (out.endpoints_compared > 0) {
    out.mean_pessimism =
        pessimism_sum / static_cast<double>(out.endpoints_compared);
  }
  MM_COUNT("merge/qor_cliques", out.cliques.size());
  MM_COUNT("merge/qor_optimism_violations", out.optimism_violations);
  return out;
}

std::string write_qor_json(const QoRReport& report) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mm.qor/1");
  json.key("policy").value(report.policy);
  json.key("pessimism_bound").value(report.pessimism_bound);
  json.key("slack_eps").value(report.slack_eps);
  json.key("never_optimistic").value(report.never_optimistic());
  json.key("endpoints_compared")
      .value(static_cast<uint64_t>(report.endpoints_compared));
  json.key("missing_endpoints")
      .value(static_cast<uint64_t>(report.missing_endpoints));
  json.key("optimism_violations")
      .value(static_cast<uint64_t>(report.optimism_violations));
  json.key("max_optimism").value(report.max_optimism);
  json.key("max_pessimism").value(report.max_pessimism);
  json.key("mean_pessimism").value(report.mean_pessimism);
  json.key("cliques").begin_array();
  for (const CliqueQoR& q : report.cliques) {
    json.begin_object();
    json.key("clique").value(static_cast<uint64_t>(q.clique_index));
    json.key("members").value(static_cast<uint64_t>(q.num_members));
    json.key("endpoints_compared")
        .value(static_cast<uint64_t>(q.endpoints_compared));
    json.key("missing_endpoints")
        .value(static_cast<uint64_t>(q.missing_endpoints));
    json.key("optimism_violations")
        .value(static_cast<uint64_t>(q.optimism_violations));
    json.key("max_optimism").value(q.max_optimism);
    json.key("max_pessimism").value(q.max_pessimism);
    json.key("mean_pessimism").value(q.mean_pessimism);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace mm::merge
