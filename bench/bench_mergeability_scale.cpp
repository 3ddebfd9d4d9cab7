// Mergeability-analysis scaling in mode count M (the pipeline's first
// superlinear wall: O(M^2) pairwise mock merges). Sweeps M ∈
// {8,16,32,64,128} and times
//
//   cold_ms     — the production MergeabilityGraph build in a fresh
//                 MergeContext: every mode's relationship set extracted,
//                 every pair checked,
//   recommit_ms — an edit commit: a MergeSession over the M modes
//                 (run_refinement off) is committed once, untimed; then
//                 mode 0 is updated with its own deck and the commit that
//                 follows is timed (one extraction, M-1 pair checks, the
//                 preliminary merge of mode 0's clique),
//
// plus, for M ≤ 64, the Sdc-level oracle (1 thread, check_mergeable on raw
// Sdc pairs — every pair re-derives both modes' keys and signatures). Each
// timed field is the minimum of 3 repetitions.
//
// Asserts the cold graph and the session's graph after every re-commit
// match the oracle's graph (edges, reason strings, clique cover) and writes
// BENCH_mergeability_scale.json (mm.bench/1) with the timings per row.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "merge/context.h"
#include "merge/mergeability.h"
#include "merge/session.h"
#include "obs/obs.h"
#include "sdc/parser.h"
#include "timing/graph.h"
#include "util/timer.h"
#include "workloads.h"

namespace {

bool graphs_identical(const mm::merge::MergeabilityGraph& a,
                      const mm::merge::MergeabilityGraph& b) {
  if (a.num_modes() != b.num_modes()) return false;
  for (size_t i = 0; i < a.num_modes(); ++i) {
    for (size_t j = 0; j < a.num_modes(); ++j) {
      if (a.edge(i, j) != b.edge(i, j)) return false;
      if (a.reason(i, j) != b.reason(i, j)) return false;
    }
  }
  return a.clique_cover() == b.clique_cover();
}

/// The graph the Sdc-level oracle defines: a serial i < j loop over
/// check_mergeable(const Sdc&, const Sdc&, options).
mm::merge::MergeabilityGraph oracle_graph(
    const std::vector<const mm::sdc::Sdc*>& ptrs) {
  const size_t n = ptrs.size();
  const mm::merge::MergeOptions options;
  std::vector<uint8_t> adj(n * n, 0);
  std::vector<std::string> reasons(n * n);
  for (size_t i = 0; i < n; ++i) adj[i * n + i] = 1;
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const mm::merge::PairVerdict v =
          mm::merge::check_mergeable(*ptrs[i], *ptrs[j], options);
      adj[i * n + j] = adj[j * n + i] = v.mergeable ? 1 : 0;
      if (!v.mergeable) reasons[i * n + j] = reasons[j * n + i] = v.reason;
    }
  }
  return mm::merge::MergeabilityGraph(n, std::move(adj), std::move(reasons));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mm;
  using namespace mm::bench;

  const uint64_t seed = bench_seed(argc, argv);
  const netlist::Library lib = netlist::Library::builtin();

  gen::DesignParams dp;
  dp.seed = seed;
  dp.num_regs = std::max<size_t>(100, static_cast<size_t>(2e5 * size_scale()));
  netlist::Design design = gen::generate_design(lib, dp);
  const timing::TimingGraph graph(design);

  std::printf("Mergeability analysis at scale (design %zu cells)\n",
              design.num_instances());
  std::printf("(host reports %u hardware thread(s))\n",
              std::thread::hardware_concurrency());
  std::printf("%8s %8s %12s %10s %12s %10s\n", "#modes", "pairs",
              "oracle(ms)", "cold(ms)", "recommit(ms)", "identical");

  obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mm.bench/1");
  json.key("bench").value("mergeability_scale");
  json.key("scale").value(size_scale());
  json.key("seed").value(seed);
  json.key("cells").value(design.num_instances());
  json.key("hardware_threads")
      .value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.key("rows").begin_array();

  bool all_identical = true;
  for (size_t m : {8, 16, 32, 64, 128}) {
    gen::ModeFamilyParams mp;
    mp.seed = seed;
    mp.num_modes = m;
    mp.target_groups = std::max<size_t>(1, m / 6);
    std::vector<std::unique_ptr<sdc::Sdc>> modes;
    std::vector<const sdc::Sdc*> ptrs;
    for (const auto& gm : gen::generate_mode_family(dp, mp)) {
      modes.push_back(
          std::make_unique<sdc::Sdc>(sdc::parse_sdc(gm.sdc_text, design)));
    }
    for (const auto& mode : modes) ptrs.push_back(mode.get());

    // Production path: a fresh context per cold build.
    double cold_ms = 0.0;
    std::unique_ptr<merge::MergeabilityGraph> cold;
    for (int rep = 0; rep < 3; ++rep) {
      merge::MergeContext ctx{merge::MergeOptions{}};
      Stopwatch timer;
      cold = std::make_unique<merge::MergeabilityGraph>(ptrs, ctx);
      const double ms = timer.elapsed_ms();
      cold_ms = rep == 0 ? ms : std::min(cold_ms, ms);
    }

    // The oracle (quadratic re-derivation) is timed up to M = 64 and, at
    // M = 128 where it would dominate the sweep, only run as the check.
    const bool time_oracle = m <= 64;
    double oracle_ms = 0.0;
    std::unique_ptr<merge::MergeabilityGraph> oracle;
    for (int rep = 0; rep < (time_oracle ? 3 : 1); ++rep) {
      Stopwatch timer;
      oracle = std::make_unique<merge::MergeabilityGraph>(oracle_graph(ptrs));
      const double ms = timer.elapsed_ms();
      oracle_ms = rep == 0 ? ms : std::min(oracle_ms, ms);
    }
    bool identical = graphs_identical(*oracle, *cold);

    // Edit commits: the session re-extracts only mode 0's set.
    merge::MergeOptions session_options;
    session_options.run_refinement = false;
    merge::MergeSession session(graph, session_options);
    std::vector<merge::MergeSession::ModeId> ids;
    for (const sdc::Sdc* mode : ptrs) {
      ids.push_back(session.add_mode("", mode));
    }
    session.commit();
    double recommit_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      session.update_mode(ids[0], ptrs[0]);
      Stopwatch timer;
      session.commit();
      const double ms = timer.elapsed_ms();
      recommit_ms = rep == 0 ? ms : std::min(recommit_ms, ms);
      identical = identical && graphs_identical(*oracle, session.graph());
    }
    all_identical = all_identical && identical;

    const size_t pairs = m * (m - 1) / 2;
    char oracle_buf[32];
    if (time_oracle)
      std::snprintf(oracle_buf, sizeof oracle_buf, "%.2f", oracle_ms);
    else
      std::snprintf(oracle_buf, sizeof oracle_buf, "-");
    std::printf("%8zu %8zu %12s %10.2f %12.2f %10s\n", m, pairs, oracle_buf,
                cold_ms, recommit_ms, identical ? "yes" : "NO!");

    json.begin_object();
    json.key("modes").value(m);
    json.key("pairs").value(pairs);
    json.key("cliques").value(oracle->clique_cover().size());
    if (time_oracle) json.key("oracle_ms").value(oracle_ms);
    json.key("cold_ms").value(cold_ms);
    json.key("recommit_ms").value(recommit_ms);
    json.key("identical").value(identical);
    json.end_object();
  }

  json.end_array();
  json.key("stats").raw(obs::stats_json());
  json.end_object();
  std::ofstream("BENCH_mergeability_scale.json") << json.str() << '\n';
  std::fprintf(stderr, "wrote BENCH_mergeability_scale.json\n");
  if (!all_identical) {
    std::fprintf(stderr, "[DETERMINISM VIOLATION] production mergeability "
                         "graph differs from the Sdc-level oracle\n");
    return 1;
  }
  return 0;
}
