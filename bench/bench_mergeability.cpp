// Figure 2: the mergeability graph and its greedy clique cover.
//
// First prints a 7-mode example with planted cliques {M1: 3 modes,
// M2: 2 modes, M3: 2 modes} mirroring the figure, then sweeps the mode
// count to show mergeability-analysis + clique-cover runtime scaling.

#include <cstdio>

#include "merge/context.h"
#include "merge/mergeability.h"
#include "sdc/parser.h"
#include "util/timer.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace mm;
  using namespace mm::bench;

  const uint64_t seed = bench_seed(argc, argv);
  const netlist::Library lib = netlist::Library::builtin();

  // --- the Figure-2 style example -----------------------------------------
  {
    gen::DesignParams dp;
    dp.seed = seed;
    dp.num_regs = 100;
    netlist::Design design = gen::generate_design(lib, dp);

    gen::ModeFamilyParams mp;
    mp.seed = seed;
    mp.num_modes = 7;
    mp.target_groups = 3;
    std::vector<std::unique_ptr<sdc::Sdc>> modes;
    std::vector<const sdc::Sdc*> ptrs;
    std::vector<std::string> names;
    for (const auto& gm : gen::generate_mode_family(dp, mp)) {
      modes.push_back(
          std::make_unique<sdc::Sdc>(sdc::parse_sdc(gm.sdc_text, design)));
      names.push_back(gm.name);
    }
    for (const auto& m : modes) ptrs.push_back(m.get());

    merge::MergeContext ctx;
    merge::MergeabilityGraph graph(ptrs, ctx);
    std::printf("Figure 2: mergeability graph (7 modes)\n");
    std::printf("      ");
    for (const std::string& n : names) std::printf("%-10s", n.c_str());
    std::printf("\n");
    for (size_t i = 0; i < ptrs.size(); ++i) {
      std::printf("%-6s", names[i].c_str());
      for (size_t j = 0; j < ptrs.size(); ++j) {
        std::printf("%-10s", i == j ? "." : (graph.edge(i, j) ? "E" : "-"));
      }
      std::printf("\n");
    }
    std::printf("cliques (greedy cover):\n");
    size_t k = 1;
    for (const auto& clique : graph.clique_cover()) {
      std::printf("  M%zu = {", k++);
      for (size_t i = 0; i < clique.size(); ++i) {
        std::printf("%s%s", i ? ", " : "", names[clique[i]].c_str());
      }
      std::printf("}\n");
    }
    std::printf("\n");
  }

  // --- scaling sweep ---------------------------------------------------------
  std::printf("Mergeability analysis scaling (design ~2k cells):\n");
  std::printf("%8s %8s %10s %12s\n", "#modes", "groups", "cliques",
              "runtime(ms)");
  gen::DesignParams dp;
  dp.seed = seed;
  dp.num_regs = 500;
  netlist::Design design = gen::generate_design(lib, dp);
  for (size_t n : {8, 16, 32, 64, 96, 128}) {
    gen::ModeFamilyParams mp;
    mp.seed = seed;
    mp.num_modes = n;
    mp.target_groups = std::max<size_t>(1, n / 6);
    std::vector<std::unique_ptr<sdc::Sdc>> modes;
    std::vector<const sdc::Sdc*> ptrs;
    for (const auto& gm : gen::generate_mode_family(dp, mp)) {
      modes.push_back(
          std::make_unique<sdc::Sdc>(sdc::parse_sdc(gm.sdc_text, design)));
    }
    for (const auto& m : modes) ptrs.push_back(m.get());

    Stopwatch timer;
    merge::MergeContext ctx;
    merge::MergeabilityGraph graph(ptrs, ctx);
    const auto cliques = graph.clique_cover();
    std::printf("%8zu %8zu %10zu %12.2f\n", n, mp.target_groups, cliques.size(),
                timer.elapsed_ms());
  }
  return 0;
}
