// mm::fuzz unit tests: generator determinism, the widened gen::mode_gen
// space (incl. duplicate-clock-name canonicalization), the SDC text
// mutator, the oracle's mutation-testing teeth, the delta-debugging
// minimizer, and corpus round-trips.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include "fuzz/corpus.h"
#include "fuzz/fuzz.h"
#include "gen/mode_gen.h"
#include "util/rng.h"

namespace mm::fuzz {
namespace {

// --- determinism ------------------------------------------------------------

TEST(FuzzGenerate, SameCaseSeedSameCase) {
  FuzzOptions opt;
  const uint64_t cs = case_seed_for(7, 3);
  const FuzzCase a = generate_case(opt, cs);
  const FuzzCase b = generate_case(opt, cs);
  EXPECT_EQ(a.case_seed, b.case_seed);
  EXPECT_EQ(a.design.num_regs, b.design.num_regs);
  EXPECT_EQ(a.mode_names, b.mode_names);
  EXPECT_EQ(a.mode_sdc, b.mode_sdc);
}

TEST(FuzzGenerate, DifferentIterationsDiffer) {
  FuzzOptions opt;
  const FuzzCase a = generate_case(opt, case_seed_for(1, 0));
  const FuzzCase b = generate_case(opt, case_seed_for(1, 1));
  EXPECT_NE(a.mode_sdc, b.mode_sdc);
}

TEST(FuzzMutate, DeterministicInRng) {
  const std::string text =
      "create_clock -name CLK0 -period 10 [get_ports clk0]\n"
      "set_multicycle_path 2 -setup -to [get_pins r1/D]\n"
      "set_false_path -to [get_pins r2/D]\n"
      "set_max_delay 5 -to [get_pins r3/D]\n";
  util::Rng r1(42), r2(42), r3(43);
  const std::string a = mutate_sdc_text(text, r1);
  EXPECT_EQ(a, mutate_sdc_text(text, r2));
  // Not a strict guarantee for every seed pair, but a fixed regression
  // seed pair that must keep producing distinct mutants.
  EXPECT_NE(a, mutate_sdc_text(text, r3));
}

// --- widened gen::mode_gen space --------------------------------------------

TEST(ModeGenWidened, NoDuplicateClockNamesAcrossWidenedSpace) {
  // The widened space (generated clocks especially) used to be able to
  // pick the same (domain, divisor) twice within one mode, which made the
  // deck unparsable (duplicate create_generated_clock name) and the family
  // trivially unmergeable. mode_gen now canonicalizes: each clock name is
  // emitted at most once per mode.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    gen::DesignParams dp;
    dp.num_regs = 40;
    dp.num_domains = 3;
    dp.seed = seed;
    gen::ModeFamilyParams mp;
    mp.seed = seed;
    mp.num_modes = 4;
    mp.target_groups = 2;
    mp.gen_clocks = 3;  // > domains: duplicates would be inevitable
    mp.min_max_delays = 2;
    mp.disabled_arcs = 1;
    mp.randomize_case = true;
    mp.clock_group_style = seed % 4;
    for (const auto& gm : gen::generate_mode_family(dp, mp)) {
      std::map<std::string, int> names;
      std::istringstream is(gm.sdc_text);
      std::string line;
      while (std::getline(is, line)) {
        if (line.rfind("create_clock", 0) != 0 &&
            line.rfind("create_generated_clock", 0) != 0) {
          continue;
        }
        const size_t at = line.find("-name ");
        ASSERT_NE(at, std::string::npos) << line;
        std::istringstream rest(line.substr(at + 6));
        std::string name;
        rest >> name;
        EXPECT_EQ(++names[name], 1)
            << "mode " << gm.name << " seed " << seed
            << " emits duplicate clock " << name;
      }
    }
  }
}

TEST(ModeGenWidened, DefaultsUnchanged) {
  // The widened knobs default off; the historical Table-5 family must stay
  // byte-identical so benches and planted-clique tests keep their meaning.
  gen::DesignParams dp;
  dp.num_regs = 60;
  gen::ModeFamilyParams base;
  base.num_modes = 3;
  gen::ModeFamilyParams widened = base;  // all widened fields at defaults
  const auto a = gen::generate_mode_family(dp, base);
  const auto b = gen::generate_mode_family(dp, widened);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].sdc_text, b[i].sdc_text);
}

// --- the oracle -------------------------------------------------------------

TEST(FuzzOracle, CleanPipelinePassesSmoke) {
  FuzzOptions opt;
  opt.seed = 1;
  opt.iters = 10;
  const FuzzReport report = run_fuzz(opt);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.iterations, 10u);
  EXPECT_GT(report.cliques_checked, 0u);
}

TEST(FuzzOracle, CatchesInjectedOptimism) {
  FuzzOptions opt;
  opt.seed = 1;
  opt.iters = 50;
  opt.inject = merge::DebugMutation::kFalsifyMcp;
  // This test pins the *equivalence* oracle's catch + minimization bar; P7
  // also catches a falsified MCP (missing QoR endpoints) on earlier cases
  // and would steal the first finding.
  opt.check_policy = false;
  const FuzzReport report = run_fuzz(opt);
  ASSERT_FALSE(report.findings.empty());
  const Finding& f = report.findings.front();
  EXPECT_EQ(f.violation.property, "equivalence");
  // The acceptance bar: minimized to <= 3 modes and <= 10 constraint lines.
  EXPECT_LE(f.repro.mode_sdc.size(), 3u);
  size_t lines = 0;
  for (const std::string& text : f.repro.mode_sdc) {
    for (char ch : text) lines += ch == '\n';
  }
  EXPECT_LE(lines, 10u);
  // The minimized case still violates, and only under the injection.
  FuzzOptions replay = opt;
  replay.minimize = false;
  EXPECT_FALSE(check_case(f.repro, replay).ok());
  replay.inject = merge::DebugMutation::kNone;
  EXPECT_TRUE(check_case(f.repro, replay).ok());
}

TEST(FuzzOracle, CatchesInjectedParityBreak) {
  FuzzOptions opt;
  opt.seed = 1;
  opt.iters = 50;
  opt.inject = merge::DebugMutation::kShuffleThreaded;
  const FuzzReport report = run_fuzz(opt);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings.front().violation.property, "parity");
  // The detail names the thread counts P2 compared.
  EXPECT_NE(report.findings.front().violation.detail.find("num_threads"),
            std::string::npos);
}

TEST(FuzzMinimize, ShrinksWhilePreservingViolation) {
  FuzzOptions opt;
  opt.seed = 1;
  opt.inject = merge::DebugMutation::kDropExceptions;
  opt.minimize = false;
  // Find a violating case first.
  FuzzCase found;
  bool have = false;
  for (uint64_t i = 0; i < 50 && !have; ++i) {
    const FuzzCase c = generate_case(opt, case_seed_for(opt.seed, i));
    const CheckResult r = check_case(c, opt);
    if (r.parsed && !r.violations.empty()) {
      found = c;
      have = true;
    }
  }
  ASSERT_TRUE(have);
  size_t runs = 0;
  const FuzzCase small = minimize_case(found, opt, "equivalence", &runs);
  EXPECT_GT(runs, 0u);
  EXPECT_LE(small.mode_sdc.size(), found.mode_sdc.size());
  const CheckResult r = check_case(small, opt);
  ASSERT_TRUE(r.parsed);
  EXPECT_FALSE(r.violations.empty());
}

// --- corpus -----------------------------------------------------------------

TEST(FuzzCorpus, WriteReadReplayRoundTrip) {
  FuzzOptions opt;
  opt.seed = 1;
  opt.iters = 50;
  opt.inject = merge::DebugMutation::kFalsifyMcp;
  // Round-trips an equivalence finding specifically (P7 would catch the
  // falsified MCP first, see FuzzOracle.CatchesInjectedOptimism).
  opt.check_policy = false;
  const FuzzReport report = run_fuzz(opt);
  ASSERT_FALSE(report.findings.empty());

  const std::string dir =
      (std::filesystem::temp_directory_path() / "mm_fuzz_corpus_test" /
       "case_000")
          .string();
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "mm_fuzz_corpus_test");
  write_corpus_case(dir, report.findings.front());

  const Finding back = read_corpus_case(dir);
  EXPECT_EQ(back.repro.case_seed, report.findings.front().repro.case_seed);
  EXPECT_EQ(back.repro.mode_sdc, report.findings.front().repro.mode_sdc);
  EXPECT_EQ(back.violation.property, "equivalence");
  EXPECT_EQ(back.inject, merge::DebugMutation::kFalsifyMcp);

  const auto dirs = list_corpus(
      (std::filesystem::temp_directory_path() / "mm_fuzz_corpus_test")
          .string());
  ASSERT_EQ(dirs.size(), 1u);

  // Clean replay passes; injected replay is still caught.
  const ReplayResult r = replay_corpus_case(dir);
  EXPECT_TRUE(r.ok()) << r.detail;
}

TEST(FuzzCorpus, MutationNamesRoundTrip) {
  using merge::DebugMutation;
  for (DebugMutation m :
       {DebugMutation::kNone, DebugMutation::kFalsifyMcp,
        DebugMutation::kDropExceptions, DebugMutation::kShuffleThreaded}) {
    DebugMutation out = DebugMutation::kNone;
    EXPECT_TRUE(parse_mutation(mutation_name(m), &out));
    EXPECT_EQ(out, m);
  }
  DebugMutation out;
  EXPECT_FALSE(parse_mutation("bogus", &out));
}

}  // namespace
}  // namespace mm::fuzz
