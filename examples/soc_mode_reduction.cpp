// Scenario: a 12-mode SoC deck (4 mode families x func/scan/test variants)
// reduced with the complete flow — mergeability graph, greedy clique cover,
// one merged superset mode per clique — and the merged SDC decks written to
// disk, the way a sign-off team would consume them.
//
//   $ ./soc_mode_reduction [output_dir]

#include <cstdio>
#include <fstream>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "merge/merger.h"
#include "sdc/parser.h"
#include "sdc/writer.h"

int main(int argc, char** argv) {
  using namespace mm;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  const netlist::Library lib = netlist::Library::builtin();
  gen::DesignParams dp;
  dp.name = "soc";
  dp.num_regs = 400;
  dp.num_domains = 4;
  const netlist::Design design = gen::generate_design(lib, dp);
  const timing::TimingGraph graph(design);

  // 12 modes in 4 families (e.g. four voltage/feature configurations, each
  // with functional + scan + test decks).
  gen::ModeFamilyParams mp;
  mp.num_modes = 12;
  mp.target_groups = 4;
  std::vector<std::unique_ptr<sdc::Sdc>> modes;
  std::vector<const sdc::Sdc*> ptrs;
  std::vector<std::string> names;
  for (const auto& gm : gen::generate_mode_family(dp, mp)) {
    modes.push_back(
        std::make_unique<sdc::Sdc>(sdc::parse_sdc(gm.sdc_text, design)));
    names.push_back(gm.name);
  }
  for (const auto& m : modes) ptrs.push_back(m.get());

  // Mergeability graph (paper Figure 2) — print it before merging.
  merge::MergeContext ctx;
  merge::MergeabilityGraph mgraph(ptrs, ctx);
  std::printf("mergeability graph (12 modes):\n");
  for (size_t i = 0; i < ptrs.size(); ++i) {
    std::printf("  %-10s:", names[i].c_str());
    for (size_t j = 0; j < ptrs.size(); ++j) {
      if (i != j && mgraph.edge(i, j)) std::printf(" %s", names[j].c_str());
    }
    std::printf("\n");
  }

  // Full flow.
  const merge::MergedModeSet out = merge::merge_mode_set(graph, ptrs);
  std::printf("\n%zu modes -> %zu merged modes (%.1f%% reduction) in %.2fs\n",
              ptrs.size(), out.num_merged_modes(), out.reduction_percent(),
              out.total_seconds);

  bool safe = true;
  for (size_t c = 0; c < out.merged.size(); ++c) {
    const merge::ValidatedMergeResult& m = out.merged[c];
    std::printf("  merged mode %zu <- {", c);
    for (size_t k = 0; k < out.cliques[c].size(); ++k) {
      std::printf("%s%s", k ? ", " : "", names[out.cliques[c][k]].c_str());
    }
    std::printf("}: %s\n", m.equivalence.signoff_safe()
                               ? (m.equivalence.equivalent() ? "EQUIVALENT"
                                                             : "SIGNOFF-SAFE")
                               : "UNSAFE");
    safe &= m.equivalence.signoff_safe();

    // Emit the merged deck as real SDC.
    const std::string path =
        out_dir + "/merged_mode_" + std::to_string(c) + ".sdc";
    std::ofstream file(path);
    file << "# merged superset mode " << c << " of design " << design.name()
         << "\n"
         << sdc::write_sdc(*m.merge.merged);
    std::printf("    wrote %s\n", path.c_str());
  }
  return safe ? 0 : 1;
}
