// Generator tests: synthetic designs are structurally sound and
// deterministic; generated mode families parse, and their mergeability
// graph is exactly the planted block-diagonal structure.

#include <gtest/gtest.h>

#include <sstream>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "merge/context.h"
#include "merge/mergeability.h"
#include "sdc/parser.h"
#include "timing/graph.h"

namespace mm::gen {
namespace {

TEST(DesignGen, StructureAndDeterminism) {
  netlist::Library lib = netlist::Library::builtin();
  DesignParams p;
  p.num_regs = 100;
  p.num_domains = 3;
  netlist::Design d1 = generate_design(lib, p);
  netlist::Design d2 = generate_design(lib, p);
  EXPECT_EQ(d1.num_instances(), d2.num_instances());
  EXPECT_EQ(d1.num_nets(), d2.num_nets());

  // Every register exists and is clocked.
  for (size_t i = 0; i < p.num_regs; ++i) {
    std::string name = "r";
    name += std::to_string(i);
    const auto inst = d1.find_instance(name);
    ASSERT_TRUE(inst.valid()) << i;
  }
  // Clock muxes and gates per domain.
  for (size_t dmn = 0; dmn < p.num_domains; ++dmn) {
    EXPECT_TRUE(d1.find_instance("cmux" + std::to_string(dmn)).valid());
    EXPECT_TRUE(d1.find_instance("icg" + std::to_string(dmn)).valid());
  }
  const netlist::CheckReport report = check_design(d1);
  EXPECT_TRUE(report.ok());

  // Approximate size matches the size knob.
  EXPECT_NEAR(static_cast<double>(d1.num_instances()),
              static_cast<double>(p.approx_cells()), 0.3 * p.approx_cells());
}

TEST(DesignGen, DifferentSeedsDiffer) {
  netlist::Library lib = netlist::Library::builtin();
  DesignParams p1, p2;
  p1.num_regs = p2.num_regs = 50;
  p2.seed = 99;
  netlist::Design d1 = generate_design(lib, p1);
  netlist::Design d2 = generate_design(lib, p2);
  // Same counts, different wiring: compare a net's driver fanout shape.
  bool any_diff = false;
  for (size_t i = 0; i < d1.num_nets() && !any_diff; ++i) {
    const auto& n1 = d1.net(netlist::NetId(i));
    const auto& n2 = d2.net(netlist::NetId(i));
    if (n1.loads.size() != n2.loads.size()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(DesignGen, NoScanNoGates) {
  netlist::Library lib = netlist::Library::builtin();
  DesignParams p;
  p.num_regs = 30;
  p.scan = false;
  p.clock_gates = false;
  netlist::Design d = generate_design(lib, p);
  EXPECT_FALSE(d.find_instance("icg0").valid());
  EXPECT_FALSE(d.find_port("scan_en").valid());
  timing::TimingGraph g(d);
  EXPECT_GT(g.endpoints().size(), 30u);  // 30 D pins + output ports
}

TEST(ModeGen, FamilyParsesAndPlantsGroups) {
  netlist::Library lib = netlist::Library::builtin();
  DesignParams dp;
  dp.num_regs = 80;
  dp.num_domains = 3;
  netlist::Design design = generate_design(lib, dp);

  ModeFamilyParams mp;
  mp.num_modes = 9;
  mp.target_groups = 3;
  const auto family = generate_mode_family(dp, mp);
  ASSERT_EQ(family.size(), 9u);

  std::vector<sdc::Sdc> modes;
  std::vector<const sdc::Sdc*> ptrs;
  for (const GeneratedMode& gm : family) {
    SCOPED_TRACE(gm.name);
    ASSERT_NO_THROW(modes.push_back(sdc::parse_sdc(gm.sdc_text, design)))
        << gm.sdc_text;
  }
  for (const auto& m : modes) ptrs.push_back(&m);

  // Planted block-diagonal mergeability.
  merge::MergeContext ctx;
  merge::MergeabilityGraph graph(ptrs, ctx);
  for (size_t i = 0; i < family.size(); ++i) {
    for (size_t j = i + 1; j < family.size(); ++j) {
      EXPECT_EQ(graph.edge(i, j), family[i].group == family[j].group)
          << family[i].name << " vs " << family[j].name << ": "
          << graph.reason(i, j);
    }
  }
  EXPECT_EQ(graph.clique_cover().size(), 3u);
}

TEST(ModeGen, KindsWithinGroup) {
  DesignParams dp;
  ModeFamilyParams mp;
  mp.num_modes = 5;
  mp.target_groups = 1;
  const auto family = generate_mode_family(dp, mp);
  EXPECT_EQ(family[0].name, "func0_0");
  EXPECT_EQ(family[1].name, "scan0");
  EXPECT_EQ(family[2].name, "test0");
  EXPECT_EQ(family[3].name.substr(0, 4), "func");
  EXPECT_EQ(family[4].name.substr(0, 4), "func");
}

TEST(ModeGen, ScanModeUsesTestClock) {
  DesignParams dp;
  ModeFamilyParams mp;
  mp.num_modes = 2;
  mp.target_groups = 1;
  const auto family = generate_mode_family(dp, mp);
  EXPECT_NE(family[1].sdc_text.find("create_clock -name TCLK"),
            std::string::npos);
  EXPECT_NE(family[1].sdc_text.find("set_case_analysis 1 test_mode"),
            std::string::npos);
  EXPECT_EQ(family[1].sdc_text.find("CLK0"), std::string::npos);
}

TEST(ModeGen, NearMissWalksWindowBoundary) {
  netlist::Library lib = netlist::Library::builtin();
  DesignParams dp;
  dp.num_regs = 60;
  dp.num_domains = 2;
  netlist::Design design = generate_design(lib, dp);

  ModeFamilyParams mp;
  mp.num_modes = 6;
  mp.target_groups = 6;  // one functional mode per group
  mp.near_miss_window = 0.2;
  mp.near_miss_epsilon = 0.05;
  const auto family = generate_mode_family(dp, mp);
  ASSERT_EQ(family.size(), 6u);

  std::vector<sdc::Sdc> modes;
  std::vector<const sdc::Sdc*> ptrs;
  for (const GeneratedMode& gm : family) {
    SCOPED_TRACE(gm.name);
    ASSERT_NO_THROW(modes.push_back(sdc::parse_sdc(gm.sdc_text, design)))
        << gm.sdc_text;
  }
  for (const auto& m : modes) ptrs.push_back(&m);

  // Exact policy: every carrier gap is out of tolerance -> 6 singletons.
  merge::MergeContext exact_ctx;
  merge::MergeabilityGraph exact(ptrs, exact_ctx);
  EXPECT_EQ(exact.clique_cover().size(), 6u);

  // Windowed with the family's window: even->odd gaps are W - eps
  // (accepted), odd->even gaps are W + eps (rejected), distance >= 2 gaps
  // accumulate to >= 2W. Adjacency is exactly the even-start pairs.
  merge::MergeOptions wopt;
  wopt.policy = merge::MergePolicy::uniform(mp.near_miss_window);
  merge::MergeContext windowed_ctx(wopt);
  merge::MergeabilityGraph windowed(ptrs, windowed_ctx);
  for (size_t i = 0; i < family.size(); ++i) {
    for (size_t j = i + 1; j < family.size(); ++j) {
      const bool expect_edge = (j == i + 1) && (i % 2 == 0);
      EXPECT_EQ(windowed.edge(i, j), expect_edge)
          << family[i].name << " vs " << family[j].name << ": "
          << windowed.reason(i, j);
    }
  }
  EXPECT_EQ(windowed.clique_cover().size(), 3u);
}

TEST(ModeGen, NearMissCarriersAndCommonMcps) {
  DesignParams dp;
  dp.num_domains = 2;
  ModeFamilyParams mp;
  mp.num_modes = 4;
  mp.target_groups = 4;
  mp.near_miss_window = 0.1;
  mp.near_miss_epsilon = 0.02;
  const auto family = generate_mode_family(dp, mp);
  ASSERT_EQ(family.size(), 4u);

  // Latency carrier sits on the non-I/O clock in every functional mode.
  for (const auto& gm : family) {
    SCOPED_TRACE(gm.name);
    EXPECT_NE(gm.sdc_text.find("set_clock_latency"), std::string::npos);
    EXPECT_EQ(gm.sdc_text.find("set_clock_latency 2 [get_clocks CLK0]"),
              std::string::npos);
  }

  // MCPs are family-common in near-miss mode (a one-sided MCP would block
  // the cross-group merges the family exists to exercise).
  auto mcp_lines = [](const std::string& text) {
    std::string out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
      if (line.rfind("set_multicycle_path", 0) == 0) out += line + "\n";
    }
    return out;
  };
  EXPECT_FALSE(mcp_lines(family[0].sdc_text).empty());
  for (size_t i = 1; i < family.size(); ++i) {
    EXPECT_EQ(mcp_lines(family[i].sdc_text), mcp_lines(family[0].sdc_text));
  }

  // Inactive near-miss (window 0) reproduces the seed family byte-for-byte,
  // epsilon ignored.
  ModeFamilyParams seed_mp;
  seed_mp.num_modes = 4;
  seed_mp.target_groups = 4;
  ModeFamilyParams zero_mp = seed_mp;
  zero_mp.near_miss_window = 0.0;
  zero_mp.near_miss_epsilon = 0.5;
  const auto a = generate_mode_family(dp, seed_mp);
  const auto b = generate_mode_family(dp, zero_mp);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sdc_text, b[i].sdc_text) << a[i].name;
  }
}

TEST(ModeGen, GroupCountBoundsRespected) {
  DesignParams dp;
  ModeFamilyParams mp;
  mp.num_modes = 95;
  mp.target_groups = 16;  // Table 5 design A configuration
  const auto family = generate_mode_family(dp, mp);
  ASSERT_EQ(family.size(), 95u);
  size_t max_group = 0;
  for (const auto& gm : family) max_group = std::max(max_group, gm.group);
  EXPECT_EQ(max_group, 15u);
}

}  // namespace
}  // namespace mm::gen
