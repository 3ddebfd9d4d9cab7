// Incremental MergeSession vs from-scratch rebuild (the tentpole claim of
// the delta-driven engine): after a single-mode edit at M ∈ {16,64,128},
// commit() must re-check at most M-1 pairs (obs `session/pairs_rechecked`)
// and re-merge only the dirty cliques, while a batch user pays the full
// O(M^2) pair sweep plus every clique's merge/refine/validate again.
//
// Per row: cold commit over an M-mode generated family, then two edits of
// the middle mode via update_mode: a deterministic SDC-text perturbation
// (the fuzz harness's mutator, retried until the mutant parses), then the
// original deck back. The first edit commit keeps a member view of every
// deck of the re-merged clique (the cold commit keeps none), so the second
// is the steady state of an edit stream:
//   incremental — session.commit() after the second edit
//   scratch     — merge_mode_set over the same final decks, fresh context
// The two outputs are asserted byte-identical (clique cover + merged SDC
// per clique). The bench fails (exit 1) on a mismatch, on a
// pairs_rechecked count above M-1, or unless the second edit commit builds
// exactly one member view (obs `session/member_views_built`): member walks
// per edit commit equal the number of edited decks. Timings and the
// speedup land in BENCH_incremental.json (mm.bench/1). The ≥5x acceptance
// floor at M=128 is recorded in the JSON and printed, not asserted, so a
// loaded CI host cannot flake the build.

#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "fuzz/fuzz.h"
#include "merge/merger.h"
#include "merge/session.h"
#include "obs/obs.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workloads.h"

namespace {

uint64_t counter(const char* name) {
  return mm::obs::MetricsRegistry::global().counter(name).value();
}

/// Deterministically mutate `text` until the mutant parses and differs
/// from the original (the fuzz mutator can no-op or break the SDC; both
/// retry with the next stream).
std::string perturb_parsable(const std::string& text,
                             const mm::netlist::Design& design,
                             uint64_t seed) {
  for (uint64_t attempt = 0; attempt < 64; ++attempt) {
    mm::util::Rng rng(mm::util::Rng::mix(seed, 0xbe0c + attempt));
    const std::string mutant = mm::fuzz::mutate_sdc_text(text, rng);
    if (mutant == text) continue;
    try {
      (void)mm::sdc::parse_sdc(mutant, design);
      return mutant;
    } catch (const mm::Error&) {
      continue;
    }
  }
  std::fprintf(stderr, "could not derive a parsable mutant in 64 tries\n");
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mm;
  using namespace mm::bench;

  const uint64_t seed = bench_seed(argc, argv);
  const netlist::Library lib = netlist::Library::builtin();

  // A modest fixed-size design: the point is the delta-vs-batch ratio in
  // mode count, not absolute cell-count scaling (bench_mergeability_scale
  // owns that axis).
  gen::DesignParams dp;
  dp.seed = seed;
  dp.num_regs = 80;
  netlist::Design design = gen::generate_design(lib, dp);
  const timing::TimingGraph graph(design);

  std::printf("Incremental commit vs from-scratch rebuild (design %zu "
              "cells, %u hardware thread(s))\n",
              design.num_instances(), std::thread::hardware_concurrency());
  std::printf("%8s %10s %10s %12s %10s %7s %12s %10s %9s %10s\n", "#modes",
              "cold(ms)", "edit1(ms)", "re-checked", "reused", "views",
              "incr(ms)", "scratch", "speedup", "identical");

  obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mm.bench/1");
  json.key("bench").value("incremental");
  json.key("seed").value(seed);
  json.key("cells").value(design.num_instances());
  json.key("hardware_threads")
      .value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.key("rows").begin_array();

  bool ok = true;
  for (size_t m : {16, 64, 128}) {
    gen::ModeFamilyParams mp;
    mp.seed = seed;
    mp.num_modes = m;
    mp.target_groups = std::max<size_t>(1, m / 6);
    std::vector<std::unique_ptr<sdc::Sdc>> modes;
    std::vector<gen::GeneratedMode> family = gen::generate_mode_family(dp, mp);
    for (const auto& gm : family) {
      modes.push_back(
          std::make_unique<sdc::Sdc>(sdc::parse_sdc(gm.sdc_text, design)));
    }

    merge::MergeOptions options;
    merge::MergeSession session(graph, options);
    std::vector<merge::MergeSession::ModeId> ids;
    for (size_t i = 0; i < modes.size(); ++i) {
      ids.push_back(session.add_mode(family[i].name, modes[i].get()));
    }

    Stopwatch timer;
    session.commit();
    const double cold_ms = timer.elapsed_ms();

    // The middle mode is edited, so it sits inside an established clique
    // rather than at the family's boundary: first perturbed, then back.
    const size_t victim = m / 2;
    const sdc::Sdc perturbed = sdc::parse_sdc(
        perturb_parsable(family[victim].sdc_text, design, seed), design);
    session.update_mode(ids[victim], &perturbed);
    timer.reset();
    session.commit();
    const double first_edit_ms = timer.elapsed_ms();

    const uint64_t rechecked_before = counter("session/pairs_rechecked");
    const uint64_t built_before = counter("session/member_views_built");
    const uint64_t reused_before = counter("session/member_views_reused");
    session.update_mode(ids[victim], modes[victim].get());
    timer.reset();
    const merge::MergeSession::CommitResult& incr = session.commit();
    const double incr_ms = timer.elapsed_ms();
    const uint64_t rechecked =
        counter("session/pairs_rechecked") - rechecked_before;
    const uint64_t views_built =
        counter("session/member_views_built") - built_before;
    const uint64_t views_reused =
        counter("session/member_views_reused") - reused_before;

    // What a batch user pays for the same edit: full rebuild, fresh
    // context (cold caches), same final decks.
    const std::vector<const sdc::Sdc*> final_modes = session.live_modes();
    timer.reset();
    const merge::MergedModeSet scratch =
        merge::merge_mode_set(graph, final_modes, options);
    const double scratch_ms = timer.elapsed_ms();

    bool identical = incr.cliques == scratch.cliques &&
                     incr.merged.size() == scratch.merged.size();
    for (size_t c = 0; identical && c < scratch.merged.size(); ++c) {
      identical = sdc::write_sdc(*incr.merged[c]->merge.merged) ==
                  sdc::write_sdc(*scratch.merged[c].merge.merged);
    }
    const bool bounded = rechecked <= m - 1;
    const bool one_view = views_built == 1;
    const double speedup = incr_ms > 0 ? scratch_ms / incr_ms : 0.0;
    ok = ok && identical && bounded && one_view;

    std::printf("%8zu %10.2f %10.2f %12llu %10zu %3llu/%-3llu %12.2f %10.2f "
                "%8.1fx %10s\n",
                m, cold_ms, first_edit_ms,
                static_cast<unsigned long long>(rechecked),
                incr.cliques_reused,
                static_cast<unsigned long long>(views_built),
                static_cast<unsigned long long>(views_reused), incr_ms,
                scratch_ms, speedup,
                !identical ? "NO!"
                : !bounded ? "UNBOUNDED"
                : !one_view ? "VIEWS"
                            : "yes");

    json.begin_object();
    json.key("modes").value(m);
    json.key("pairs_total").value(m * (m - 1) / 2);
    json.key("cliques").value(incr.cliques.size());
    json.key("cold_commit_ms").value(cold_ms);
    json.key("first_edit_commit_ms").value(first_edit_ms);
    json.key("pairs_rechecked").value(rechecked);
    json.key("pairs_rechecked_bounded").value(bounded);
    json.key("cliques_reused").value(incr.cliques_reused);
    json.key("cliques_merged").value(incr.cliques_merged);
    json.key("member_views_built").value(views_built);
    json.key("member_views_reused").value(views_reused);
    json.key("incremental_commit_ms").value(incr_ms);
    json.key("scratch_rebuild_ms").value(scratch_ms);
    json.key("speedup").value(speedup);
    json.key("identical").value(identical);
    json.end_object();

    if (m == 128 && speedup < 5.0) {
      std::fprintf(stderr,
                   "warning: M=128 speedup %.1fx below the 5x target\n",
                   speedup);
    }
  }

  json.end_array();
  json.key("stats").raw(obs::stats_json());
  json.end_object();
  std::ofstream("BENCH_incremental.json") << json.str() << '\n';
  std::fprintf(stderr, "wrote BENCH_incremental.json\n");
  if (!ok) {
    std::fprintf(stderr, "[INCREMENTAL VIOLATION] a delta commit diverged "
                         "from the batch rebuild, re-checked more than M-1 "
                         "pairs, or built other than one member view\n");
    return 1;
  }
  return 0;
}
