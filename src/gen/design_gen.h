#pragma once
// Parameterized synthetic design generator — the stand-in for the paper's
// proprietary industrial designs A-F (see DESIGN.md, substitution table).
//
// Generated structure (mirrors the mode-merging-relevant anatomy of an SoC):
//   - D clock domain ports clk0..clk{D-1}, one test clock port tclk,
//     control ports test_mode / scan_en, domain enable ports en0..,
//     data ports di_* / do_*;
//   - per-domain clock mux  cmux_d = MUX2(clk_d, tclk, S=test_mode) so test
//     modes retarget every domain onto tclk (what makes merged clock
//     refinement non-trivial);
//   - optional per-domain clock gate icg_d driven by en_d;
//   - R registers (scan flops when `scan`), round-robin across domains,
//     scan-chained per domain (SI <- previous flop's Q, SE = scan_en);
//   - random feed-forward combinational clouds between register ranks,
//     fed from nearby registers' Q pins and data-in ports.
//
// Everything is deterministic in `seed`.

#include <cstdint>
#include <string>

#include "netlist/design.h"

namespace mm::gen {

struct DesignParams {
  std::string name = "synth";
  size_t num_regs = 1000;
  size_t num_domains = 4;
  size_t num_data_ports = 8;   // data inputs (same count of outputs)
  size_t comb_per_reg = 3;     // combinational gates per register (size knob)
  size_t fanin_span = 8;       // how far back a register's cone reaches
  bool scan = true;            // use scan flops + chains
  bool clock_gates = true;     // one ICG per domain, used by 1/3 of regs
  uint64_t seed = 1;

  size_t approx_cells() const { return num_regs * (1 + comb_per_reg); }
};

netlist::Design generate_design(const netlist::Library& lib,
                                const DesignParams& params);

}  // namespace mm::gen
