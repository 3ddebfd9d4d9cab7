#include "gen/design_gen.h"

#include <vector>

#include "netlist/builder.h"
#include "util/error.h"
#include "util/rng.h"

namespace mm::gen {

using netlist::Builder;
using netlist::Design;
using util::Rng;

namespace {

const char* kCombCells[] = {"INV", "AND2", "OR2", "XOR2", "NAND2", "NOR2"};

}  // namespace

Design generate_design(const netlist::Library& lib, const DesignParams& p) {
  MM_ASSERT(p.num_regs > 0 && p.num_domains > 0);
  Design design(p.name, &lib);
  Builder b(&design);
  Rng rng(p.seed);

  // --- ports ---------------------------------------------------------------
  std::vector<std::string> clk_nets;
  for (size_t d = 0; d < p.num_domains; ++d) {
    clk_nets.push_back("clk" + std::to_string(d));
    b.input(clk_nets.back());
  }
  b.input("tclk");
  b.input("test_mode");
  if (p.scan) b.input("scan_en");
  std::vector<std::string> en_nets;
  for (size_t d = 0; d < p.num_domains; ++d) {
    en_nets.push_back("en" + std::to_string(d));
    b.input(en_nets.back());
  }
  std::vector<std::string> din;
  for (size_t i = 0; i < p.num_data_ports; ++i) {
    din.push_back("di_" + std::to_string(i));
    b.input(din.back());
  }
  std::vector<std::string> dout;
  for (size_t i = 0; i < p.num_data_ports; ++i) {
    dout.push_back("do_" + std::to_string(i));
    b.output(dout.back());
  }

  // --- clock distribution ----------------------------------------------------
  // dclk_d = test_mode ? tclk : clk_d ; gdclk_d = ICG(dclk_d, en_d)
  std::vector<std::string> dclk(p.num_domains), gdclk(p.num_domains);
  for (size_t d = 0; d < p.num_domains; ++d) {
    dclk[d] = "dclk" + std::to_string(d);
    b.inst("MUX2", "cmux" + std::to_string(d),
           {{"A", clk_nets[d]}, {"B", "tclk"}, {"S", "test_mode"},
            {"Z", dclk[d]}});
    if (p.clock_gates) {
      gdclk[d] = "gdclk" + std::to_string(d);
      b.inst("ICG", "icg" + std::to_string(d),
             {{"CK", dclk[d]}, {"EN", en_nets[d]}, {"GCLK", gdclk[d]}});
    } else {
      gdclk[d] = dclk[d];
    }
  }

  // --- registers + combinational clouds ---------------------------------------
  // Register i: domain i % D; D input fed by a small random cloud over the
  // Q nets of registers [i - span, i) and data-in ports.
  std::vector<std::string> q_net(p.num_regs);
  std::vector<std::string> prev_q_in_domain(p.num_domains);

  size_t gate_counter = 0;
  for (size_t i = 0; i < p.num_regs; ++i) {
    const size_t d = i % p.num_domains;
    q_net[i] = "q" + std::to_string(i);

    // Sources for this register's cone.
    auto pick_source = [&]() -> std::string {
      if (i == 0 || rng.below(4) == 0) {
        return din[rng.below(din.size())];
      }
      const size_t lo = i > p.fanin_span ? i - p.fanin_span : 0;
      return q_net[lo + rng.below(i - lo)];
    };

    std::string data = pick_source();
    for (size_t g = 0; g < p.comb_per_reg; ++g) {
      const char* cell = kCombCells[rng.below(std::size(kCombCells))];
      const std::string id = std::to_string(gate_counter);
      const std::string gname = "g" + id;
      const std::string znet = "n" + id;
      ++gate_counter;
      if (cell[0] == 'I') {  // INV: single input
        b.inst(cell, gname, {{"A", data}, {"Z", znet}});
      } else {
        b.inst(cell, gname, {{"A", data}, {"B", pick_source()}, {"Z", znet}});
      }
      data = znet;
    }

    const bool gated = p.clock_gates && (i % 3 == 0);
    const std::string& cp = gated ? gdclk[d] : dclk[d];
    const std::string rname = "r" + std::to_string(i);
    if (p.scan) {
      // Chain within the domain; first flop of a chain loads from its own
      // D source via SI too (head of chain tied to a data port).
      const std::string si = prev_q_in_domain[d].empty()
                                 ? din[d % din.size()]
                                 : prev_q_in_domain[d];
      b.inst("SDFF", rname,
             {{"D", data}, {"SI", si}, {"SE", "scan_en"}, {"CP", cp},
              {"Q", q_net[i]}});
    } else {
      b.inst("DFF", rname, {{"D", data}, {"CP", cp}, {"Q", q_net[i]}});
    }
    prev_q_in_domain[d] = q_net[i];
  }

  // --- outputs -----------------------------------------------------------------
  for (size_t i = 0; i < p.num_data_ports; ++i) {
    const size_t src = p.num_regs - 1 - (i % p.num_regs);
    b.inst("BUF", "ob" + std::to_string(i), {{"A", q_net[src]}, {"Z", dout[i]}});
  }

  return design;
}

}  // namespace mm::gen
