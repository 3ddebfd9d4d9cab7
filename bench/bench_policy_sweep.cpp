// Windowed merge-policy sweep (docs/POLICIES.md): a near-miss mode family
// (gen/mode_gen.h — carrier gaps alternating around the window boundary)
// merged under MergePolicy::uniform(W) for a ladder of windows, W = 0
// being the exact baseline. Per window the bench records merge wall time,
// QoR wall time (one STA per deck of each multi-member clique), the clique
// count, and the mm.qor/1 pessimism aggregates.
//
// Acceptance (exit 1 on violation, visible in CI logs):
//   - W = 0 reproduces the exact cover (one clique per mode here);
//   - the family window merges strictly fewer cliques than exact;
//   - clique count is monotone non-increasing in W;
//   - every windowed row is never-optimistic with max pessimism within
//     MergePolicy::pessimism_bound().
//
// Results land in BENCH_policy_sweep.json (mm.bench/1, gated by
// scripts/bench_compare.py; "window" is a row-identity key).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "merge/merger.h"
#include "merge/qor.h"
#include "obs/obs.h"
#include "sdc/parser.h"
#include "util/timer.h"
#include "workloads.h"

namespace {

using namespace mm;
using namespace mm::bench;

struct RunResult {
  double merge_ms = 0.0;
  double qor_ms = 0.0;
  size_t cliques = 0;
  merge::QoRReport qor;
};

RunResult run_at(const timing::TimingGraph& graph,
                 const std::vector<const sdc::Sdc*>& ptrs, double window) {
  merge::MergeOptions opt;
  opt.validate = false;
  if (window > 0.0) opt.policy = merge::MergePolicy::uniform(window);

  RunResult out;
  merge::MergedModeSet merged;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch timer;
    merge::MergedModeSet r = merge::merge_mode_set(graph, ptrs, opt);
    const double ms = timer.elapsed_ms();
    out.merge_ms = rep == 0 ? ms : std::min(out.merge_ms, ms);
    if (rep == 0) merged = std::move(r);
  }
  out.cliques = merged.cliques.size();

  Stopwatch qor_timer;
  out.qor = merge::qor_report(graph, ptrs, merged, opt);
  out.qor_ms = qor_timer.elapsed_ms();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = bench_seed(argc, argv);
  const netlist::Library lib = netlist::Library::builtin();
  const double scale = size_scale();

  gen::DesignParams dp;
  dp.name = "policy_sweep";
  dp.num_regs =
      std::max<size_t>(60, static_cast<size_t>(0.2 * 1e6 * scale / 4.0));
  dp.num_domains = 2;
  dp.seed = seed;
  const netlist::Design design = gen::generate_design(lib, dp);
  const timing::TimingGraph graph(design);

  // 12 single-mode groups walking the 0.2 boundary: at W = 0.2 the even
  // pairs (gap 0.15) merge and the odd gaps (0.25) hold, halving the cover.
  gen::ModeFamilyParams mp;
  mp.seed = seed;
  mp.num_modes = 12;
  mp.target_groups = 12;
  mp.group_mcps = 3;
  mp.mode_fps = 0;
  mp.near_miss_window = 0.2;
  mp.near_miss_epsilon = 0.05;
  std::vector<std::unique_ptr<sdc::Sdc>> modes;
  std::vector<const sdc::Sdc*> ptrs;
  for (const auto& gm : gen::generate_mode_family(dp, mp)) {
    modes.push_back(
        std::make_unique<sdc::Sdc>(sdc::parse_sdc(gm.sdc_text, design)));
    ptrs.push_back(modes.back().get());
  }

  std::printf("Merge-policy window sweep: %zu cells, %zu modes "
              "(scale %.3f, %u hardware thread(s))\n",
              design.num_instances(), ptrs.size(), scale,
              std::thread::hardware_concurrency());
  std::printf("%8s %10s %8s %8s %10s %10s %7s %6s\n", "window", "merge(ms)",
              "qor(ms)", "cliques", "endpoints", "max_pess", "bound", "safe");

  obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mm.bench/1");
  json.key("bench").value("policy_sweep");
  json.key("scale").value(scale);
  json.key("seed").value(seed);
  json.key("hardware_threads")
      .value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.key("rows").begin_array();

  bool ok = true;
  size_t exact_cliques = 0;
  size_t family_window_cliques = 0;
  size_t prev_cliques = ptrs.size() + 1;
  for (const double w : {0.0, 0.1, 0.2, 0.4, 0.8}) {
    const RunResult r = run_at(graph, ptrs, w);
    const double bound =
        w > 0.0 ? merge::MergePolicy::uniform(w).pessimism_bound() : 0.0;
    const bool safe =
        r.qor.never_optimistic() &&
        (w == 0.0 || r.qor.max_pessimism <= bound + r.qor.slack_eps);
    if (w == 0.0) exact_cliques = r.cliques;
    if (w == mp.near_miss_window) family_window_cliques = r.cliques;
    ok = ok && safe && r.cliques <= prev_cliques;
    prev_cliques = r.cliques;

    std::printf("%8.2f %10.2f %8.2f %8zu %10zu %10.4f %7.2f %6s\n", w,
                r.merge_ms, r.qor_ms, r.cliques, r.qor.endpoints_compared,
                r.qor.max_pessimism, bound, safe ? "yes" : "NO");

    json.begin_object();
    json.key("cells").value(design.num_instances());
    json.key("modes").value(ptrs.size());
    json.key("window").value(w);
    json.key("merge_ms").value(r.merge_ms);
    json.key("qor_ms").value(r.qor_ms);
    json.key("cliques").value(r.cliques);
    json.key("endpoints_compared").value(r.qor.endpoints_compared);
    json.key("max_pessimism").value(r.qor.max_pessimism);
    json.key("mean_pessimism").value(r.qor.mean_pessimism);
    json.key("pessimism_bound").value(bound);
    json.key("never_optimistic").value(r.qor.never_optimistic());
    json.end_object();
  }
  json.end_array();
  json.key("stats").raw(obs::stats_json());
  json.end_object();

  // The headline claim: exact finds one clique per mode, the family window
  // strictly fewer.
  if (exact_cliques != ptrs.size()) {
    std::fprintf(stderr, "FAIL: exact cover %zu != %zu modes\n", exact_cliques,
                 ptrs.size());
    ok = false;
  }
  if (family_window_cliques >= exact_cliques) {
    std::fprintf(stderr, "FAIL: window %.2f cover %zu not below exact %zu\n",
                 mp.near_miss_window, family_window_cliques, exact_cliques);
    ok = false;
  }

  std::ofstream("BENCH_policy_sweep.json") << json.str() << '\n';
  std::printf("wrote BENCH_policy_sweep.json (acceptance %s)\n",
              ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
