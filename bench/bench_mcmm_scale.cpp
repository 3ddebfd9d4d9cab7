// MCMM matrix sweep (docs/MCMM.md): a generated mode family at M in {8, 32}
// crossed with a corner derate ladder at C in {1, 4, 16} through
// McmmSession. Per (M, C) the bench records
//
//   commit_ms    — add-all + commit wall time for the corner-aware engine
//                  (validation off, best of three, fresh context per rep),
//   flat_ms      — C independent flat merge_mode_set runs over each
//                  corner's decks, each in a fresh context (the M x C
//                  full-extraction cost model the skeleton/delta split
//                  replaces),
//   skeletons    — full extractions the session actually paid (must be
//                  exactly M: one skeleton per mode),
//   delta_fills  — value-only corner fills (must be exactly M * (C - 1)),
//   sharing      — M * C / skeletons, the skeleton-sharing factor,
//   shared_merges — (clique, corner) merges that took corner 0's fix list
//                  instead of refining (must be exactly cliques * (C - 1):
//                  the derate ladder changes values only, never timing
//                  state).
//
// Hard asserts, exit 1 on any failure: the cache counters must show
// M skeletons + M * (C - 1) delta fills (never M * C full extractions),
// every corner c > 0 merge must be shared (a deterministic count, not a
// timing gate),
// every corner's merged decks must be byte-identical to that corner's flat
// merge, and the flat cover must equal the shared MCMM cover (the derate
// ladder preserves exact-policy verdicts, so the combined cover loses
// nothing). Results land in BENCH_mcmm_scale.json (mm.bench/1, identity
// keys cells/modes/corners, gated by scripts/bench_compare.py).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/corner_gen.h"
#include "merge/mcmm_session.h"
#include "merge/merger.h"
#include "obs/obs.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include "util/timer.h"
#include "workloads.h"

namespace {

using namespace mm;
using namespace mm::bench;

struct Matrix {
  std::vector<std::string> names;
  std::vector<std::string> corner_names;
  /// decks[m][c], parsed once and shared by every rep.
  std::vector<std::vector<std::unique_ptr<sdc::Sdc>>> decks;
};

Matrix make_matrix(const netlist::Design& design, const gen::DesignParams& dp,
                   uint64_t seed, size_t num_modes, size_t num_corners) {
  gen::ModeFamilyParams mp;
  mp.seed = seed;
  mp.num_modes = num_modes;
  mp.target_groups = std::max<size_t>(2, num_modes / 4);
  mp.group_mcps = 6;
  mp.mode_fps = 8;
  gen::CornerFamilyParams cp;
  cp.num_corners = num_corners;
  const gen::CornerFamily fam = gen::generate_corner_family(dp, mp, cp);

  Matrix out;
  for (const gen::CornerSpec& spec : fam.corners) {
    out.corner_names.push_back(spec.name);
  }
  for (size_t m = 0; m < fam.modes.size(); ++m) {
    out.names.push_back(fam.modes[m].name);
    std::vector<std::unique_ptr<sdc::Sdc>> row;
    for (size_t c = 0; c < num_corners; ++c) {
      row.push_back(std::make_unique<sdc::Sdc>(
          sdc::parse_sdc(fam.sdc_texts[m][c], design)));
    }
    out.decks.push_back(std::move(row));
  }
  return out;
}

struct RunResult {
  std::vector<std::vector<size_t>> cliques;
  /// merged_sdc[c][k]: clique k's superset bytes in corner c.
  std::vector<std::vector<std::string>> merged_sdc;
  double commit_ms = 0.0;
  double flat_ms = 0.0;
  uint64_t skeletons = 0;
  uint64_t delta_fills = 0;
  uint64_t skeleton_mismatches = 0;
  size_t shared_merges = 0;
  bool parity = true;
};

RunResult run_at(const timing::TimingGraph& graph, const Matrix& matrix) {
  const size_t num_modes = matrix.decks.size();
  const size_t num_corners = matrix.corner_names.size();
  merge::MergeOptions opt;
  opt.validate = false;

  RunResult out;
  for (int rep = 0; rep < 3; ++rep) {
    merge::McmmSession session(graph, merge::CornerSet(matrix.corner_names),
                               opt);
    Stopwatch timer;
    for (size_t m = 0; m < num_modes; ++m) {
      std::vector<const sdc::Sdc*> decks;
      for (size_t c = 0; c < num_corners; ++c) {
        decks.push_back(matrix.decks[m][c].get());
      }
      session.add_mode(matrix.names[m], decks);
    }
    const merge::McmmSession::CommitResult& r = session.commit();
    const double ms = timer.elapsed_ms();
    out.commit_ms = rep == 0 ? ms : std::min(out.commit_ms, ms);
    if (rep > 0) continue;

    out.cliques = r.cliques;
    out.shared_merges = r.corner_shared_merges;
    out.merged_sdc.resize(num_corners);
    for (size_t c = 0; c < num_corners; ++c) {
      for (const auto& m : r.merged[c]) {
        out.merged_sdc[c].push_back(sdc::write_sdc(*m->merge.merged));
      }
    }
    const merge::RelationshipCache::Stats stats =
        session.context().cache().stats();
    out.delta_fills = stats.delta_fills;
    out.skeleton_mismatches = stats.skeleton_mismatches;
    out.skeletons =
        stats.misses - stats.delta_fills - stats.skeleton_mismatches;
  }

  // The flat cost model: C independent full-extraction merges, and the
  // per-corner byte-parity oracle in the same pass.
  merge::MergeOptions flat_opt;
  flat_opt.validate = false;
  for (int rep = 0; rep < 3; ++rep) {
    double total = 0.0;
    for (size_t c = 0; c < num_corners; ++c) {
      std::vector<const sdc::Sdc*> corner_ptrs;
      for (size_t m = 0; m < num_modes; ++m) {
        corner_ptrs.push_back(matrix.decks[m][c].get());
      }
      Stopwatch timer;
      const merge::MergedModeSet flat =
          merge::merge_mode_set(graph, corner_ptrs, flat_opt);
      total += timer.elapsed_ms();
      if (rep > 0) continue;

      if (flat.cliques != out.cliques) out.parity = false;
      for (size_t k = 0; out.parity && k < flat.merged.size(); ++k) {
        if (sdc::write_sdc(*flat.merged[k].merge.merged) !=
            out.merged_sdc[c][k]) {
          out.parity = false;
        }
      }
    }
    out.flat_ms = rep == 0 ? total : std::min(out.flat_ms, total);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = bench_seed(argc, argv);
  const netlist::Library lib = netlist::Library::builtin();
  const double scale = size_scale();

  gen::DesignParams dp;
  dp.name = "mcmm_scale";
  dp.num_regs =
      std::max<size_t>(60, static_cast<size_t>(0.1 * 1e6 * scale / 4.0));
  dp.num_domains = 4;
  dp.seed = seed;
  const netlist::Design design = gen::generate_design(lib, dp);
  const timing::TimingGraph graph(design);

  std::printf("MCMM matrix sweep: %zu cells (scale %.3f, %u hardware "
              "thread(s))\n",
              design.num_instances(), scale,
              std::thread::hardware_concurrency());
  std::printf("%6s %8s %11s %9s %10s %12s %8s %7s\n", "modes", "corners",
              "commit(ms)", "flat(ms)", "skeletons", "delta_fills",
              "sharing", "shared");

  obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mm.bench/1");
  json.key("bench").value("mcmm_scale");
  json.key("scale").value(scale);
  json.key("seed").value(seed);
  json.key("hardware_threads")
      .value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.key("rows").begin_array();

  bool ok = true;
  for (const size_t num_modes : {size_t{8}, size_t{32}}) {
    for (const size_t num_corners : {size_t{1}, size_t{4}, size_t{16}}) {
      const Matrix matrix =
          make_matrix(design, dp, seed, num_modes, num_corners);
      const RunResult r = run_at(graph, matrix);

      const bool counters_ok =
          r.skeletons == num_modes &&
          r.delta_fills == num_modes * (num_corners - 1) &&
          r.skeleton_mismatches == 0;
      const bool shared_ok =
          r.shared_merges == r.cliques.size() * (num_corners - 1);
      ok = ok && r.parity && counters_ok && shared_ok;
      const double sharing =
          r.skeletons > 0 ? static_cast<double>(num_modes * num_corners) /
                                static_cast<double>(r.skeletons)
                          : 0.0;

      std::printf("%6zu %8zu %11.2f %9.2f %10llu %12llu %7.1fx %7zu%s%s%s\n",
                  num_modes, num_corners, r.commit_ms, r.flat_ms,
                  static_cast<unsigned long long>(r.skeletons),
                  static_cast<unsigned long long>(r.delta_fills), sharing,
                  r.shared_merges, r.parity ? "" : "  PARITY MISMATCH",
                  counters_ok ? "" : "  COUNTER MISMATCH",
                  shared_ok ? "" : "  SHARING MISMATCH");

      json.begin_object();
      json.key("cells").value(design.num_instances());
      json.key("modes").value(num_modes);
      json.key("corners").value(num_corners);
      json.key("commit_ms").value(r.commit_ms);
      json.key("flat_ms").value(r.flat_ms);
      json.key("cliques").value(r.cliques.size());
      json.key("skeletons").value(r.skeletons);
      json.key("delta_fills").value(r.delta_fills);
      json.key("skeleton_mismatches").value(r.skeleton_mismatches);
      json.key("sharing_factor").value(sharing);
      json.key("shared_merges").value(r.shared_merges);
      json.key("parity").value(r.parity);
      json.end_object();
    }
  }
  json.end_array();
  json.key("stats").raw(obs::stats_json());
  json.end_object();

  std::ofstream("BENCH_mcmm_scale.json") << json.str() << '\n';
  std::printf("wrote BENCH_mcmm_scale.json (parity + counters + sharing %s)\n",
              ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
