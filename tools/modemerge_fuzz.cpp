// modemerge_fuzz — property-based differential fuzzing of the merge
// pipeline (mm::fuzz).
//
//   modemerge_fuzz --seed 1 --iters 200            # hunt
//   modemerge_fuzz --case-seed 123456789           # replay one case
//   modemerge_fuzz --replay tests/fuzz_corpus      # regression corpus
//   modemerge_fuzz --seed 1 --iters 50 --inject falsify-mcp
//                                                  # mutation-test the oracle
//
// Every run prints its effective seed; every violation prints the single
// --case-seed integer that replays it and (with --corpus-dir) writes the
// delta-debugged minimal repro. Exit status: 0 clean, 1 violations (or a
// failed replay), 2 bad usage.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fuzz/corpus.h"
#include "fuzz/fuzz.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/logger.h"

namespace {

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: modemerge_fuzz [options]\n"
      "\n"
      "fuzzing:\n"
      "  --seed N             run seed (default 1); every case derives from it\n"
      "  --iters N            iterations (default 100)\n"
      "  --max-modes N        modes per generated family, 2..N (default 6)\n"
      "  --max-regs N         design size cap in registers (default 90)\n"
      "  --threads N          worker threads for the baseline config's whole\n"
      "                       merge pipeline (extraction, pair checks,\n"
      "                       refinement, validation; 0 = hardware)\n"
      "  --corners N          corner cap for P8's generated MCMM matrix;\n"
      "                       cases draw 2..N corners (default 4, min 2)\n"
      "  --max-violations N   stop after N minimized findings (default 1)\n"
      "  --corpus-dir DIR     write minimized repros under DIR\n"
      "  --no-mutate          skip the SDC text-mutation stage\n"
      "  --no-batched-sta     validate with the serial STA\n"
      "                       reference instead of the batched engine\n"
      "  --no-minimize        report raw cases without delta-debugging\n"
      "\n"
      "properties (all on by default):\n"
      "  --no-equiv           skip P1 two-sided equivalence per clique\n"
      "  --no-parity          skip P2 config byte-parity\n"
      "  --no-idempotence     skip P3 merge(S,S) fixpoint\n"
      "  --no-cover           skip P4 clique-cover validity/maximality\n"
      "  --no-incremental     skip P5 MergeSession delta-vs-batch parity\n"
      "  --no-policy          skip P7 windowed-policy never-optimistic +\n"
      "                       bounded-pessimism oracle\n"
      "  --no-mcmm            skip P8 corner-aware MCMM flat-parity oracle\n"
      "\n"
      "oracle mutation testing:\n"
      "  --inject KIND        none | falsify-mcp | drop-exceptions |\n"
      "                       shuffle-threaded (injects a known merge bug;\n"
      "                       a healthy oracle must catch it)\n"
      "\n"
      "replay:\n"
      "  --case-seed N        check exactly one generated case\n"
      "  --replay DIR         replay a corpus case dir, or a root of case\n"
      "                       dirs (clean pass + injected re-catch)\n"
      "\n"
      "observability:\n"
      "  --stats-out FILE     write machine-readable run stats JSON\n"
      "  --journal-out FILE   write the mm.journal/1 decision journal for the\n"
      "                       whole run (per-repro journals are skipped)\n"
      "  --verbose            log at info level\n"
      "  --help, -h           this help (exit 0)\n");
}

[[noreturn]] void bad_arg(const char* flag, const char* text,
                          const char* expected) {
  std::fprintf(stderr,
               "modemerge_fuzz: invalid value for %s: '%s' (expected %s)\n",
               flag, text, expected);
  std::exit(2);
}

uint64_t parse_u64_arg(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      std::strchr(text, '-') != nullptr) {
    bad_arg(flag, text, "a non-negative integer");
  }
  return static_cast<uint64_t>(v);
}

void print_finding(const mm::fuzz::Finding& f, const mm::fuzz::FuzzOptions& opt) {
  size_t lines = 0;
  for (const std::string& text : f.repro.mode_sdc) {
    for (char ch : text) lines += ch == '\n';
  }
  std::printf("VIOLATION property=%s case_seed=%llu\n  %s\n",
              f.violation.property.c_str(),
              static_cast<unsigned long long>(f.repro.case_seed),
              f.violation.detail.c_str());
  std::printf("  minimized: %zu mode(s), %zu constraint line(s), %zu runs\n",
              f.repro.mode_sdc.size(), lines, f.minimize_runs);
  std::printf("  replay: modemerge_fuzz --case-seed %llu%s%s\n",
              static_cast<unsigned long long>(f.repro.case_seed),
              opt.inject == mm::merge::DebugMutation::kNone ? "" : " --inject ",
              opt.inject == mm::merge::DebugMutation::kNone
                  ? ""
                  : mm::fuzz::mutation_name(opt.inject));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mm;

  fuzz::FuzzOptions opt;
  std::string replay_dir;
  std::string stats_out;
  std::string journal_out;
  uint64_t case_seed = 0;
  bool have_case_seed = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "modemerge_fuzz: %s requires a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") opt.seed = parse_u64_arg("--seed", value());
    else if (arg == "--iters")
      opt.iters = static_cast<size_t>(parse_u64_arg("--iters", value()));
    else if (arg == "--max-modes")
      opt.max_modes = static_cast<size_t>(parse_u64_arg("--max-modes", value()));
    else if (arg == "--max-regs")
      opt.max_regs = static_cast<size_t>(parse_u64_arg("--max-regs", value()));
    else if (arg == "--threads")
      opt.threads = static_cast<size_t>(parse_u64_arg("--threads", value()));
    else if (arg == "--corners") {
      const char* text = value();
      opt.max_corners = static_cast<size_t>(parse_u64_arg("--corners", text));
      if (opt.max_corners < 2) bad_arg("--corners", text, "an integer >= 2");
    }
    else if (arg == "--max-violations")
      opt.max_violations =
          static_cast<size_t>(parse_u64_arg("--max-violations", value()));
    else if (arg == "--corpus-dir") opt.corpus_dir = value();
    else if (arg == "--no-mutate") opt.mutate_sdc = false;
    else if (arg == "--no-batched-sta") opt.use_batched_sta = false;
    else if (arg == "--no-minimize") opt.minimize = false;
    else if (arg == "--no-equiv") opt.check_equiv = false;
    else if (arg == "--no-parity") opt.check_parity = false;
    else if (arg == "--no-idempotence") opt.check_idempotence = false;
    else if (arg == "--no-cover") opt.check_cover = false;
    else if (arg == "--no-incremental") opt.check_incremental = false;
    else if (arg == "--no-policy") opt.check_policy = false;
    else if (arg == "--no-mcmm") opt.check_mcmm = false;
    else if (arg == "--inject") {
      const char* name = value();
      if (!fuzz::parse_mutation(name, &opt.inject)) {
        bad_arg("--inject", name,
                "none|falsify-mcp|drop-exceptions|shuffle-threaded");
      }
    } else if (arg == "--case-seed") {
      case_seed = parse_u64_arg("--case-seed", value());
      have_case_seed = true;
    } else if (arg == "--replay") replay_dir = value();
    else if (arg == "--stats-out") stats_out = value();
    else if (arg == "--journal-out") journal_out = value();
    else if (arg == "--verbose") Logger::set_level(LogLevel::kInfo);
    else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (!journal_out.empty() && !obs::Journal::open(journal_out)) {
    std::fprintf(stderr, "error: cannot write %s\n", journal_out.c_str());
    return 1;
  }

  obs::StatsMeta meta;
  meta.strings["tool"] = "modemerge_fuzz";
  // Runs on every exit path (including caught errors) so failed runs keep
  // their decision trail.
  auto emit_stats = [&]() {
    if (!journal_out.empty()) {
      obs::Journal::close();
      std::fprintf(stderr, "wrote journal to %s (%llu events)\n",
                   journal_out.c_str(),
                   static_cast<unsigned long long>(
                       obs::Journal::events_appended()));
    }
    if (stats_out.empty()) return;
    if (obs::write_stats_json(stats_out, meta)) {
      std::fprintf(stderr, "wrote stats to %s\n", stats_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", stats_out.c_str());
    }
  };

  try {
    // --- corpus replay ----------------------------------------------------
    if (!replay_dir.empty()) {
      std::vector<std::string> dirs = fuzz::list_corpus(replay_dir);
      if (dirs.empty()) dirs.push_back(replay_dir);  // a single case dir
      size_t failed = 0;
      for (const std::string& dir : dirs) {
        const fuzz::ReplayResult r = fuzz::replay_corpus_case(dir, opt.threads);
        std::printf("%-50s %s\n", dir.c_str(),
                    r.ok() ? "ok" : ("FAIL: " + r.detail).c_str());
        failed += r.ok() ? 0 : 1;
      }
      std::printf("replayed %zu corpus case(s), %zu failure(s)\n", dirs.size(),
                  failed);
      meta.numbers["corpus_cases"] = static_cast<double>(dirs.size());
      meta.numbers["corpus_failures"] = static_cast<double>(failed);
      emit_stats();
      return failed == 0 ? 0 : 1;
    }

    // --- single-case replay ----------------------------------------------
    if (have_case_seed) {
      std::printf("case_seed: %llu (inject: %s)\n",
                  static_cast<unsigned long long>(case_seed),
                  fuzz::mutation_name(opt.inject));
      const fuzz::FuzzCase c = fuzz::generate_case(opt, case_seed);
      const fuzz::CheckResult res = fuzz::check_case(c, opt);
      if (!res.parsed) {
        std::printf("case rejected (unparsable after mutation): %s\n",
                    res.parse_error.c_str());
        emit_stats();
        return 0;
      }
      std::printf("%zu mode(s), %zu clique(s), %zu violation(s)\n",
                  c.mode_sdc.size(), res.cliques, res.violations.size());
      for (const fuzz::Violation& v : res.violations) {
        std::printf("VIOLATION property=%s\n  %s\n", v.property.c_str(),
                    v.detail.c_str());
      }
      emit_stats();
      return res.violations.empty() ? 0 : 1;
    }

    // --- the fuzz loop ----------------------------------------------------
    std::printf("seed: %llu (replay: modemerge_fuzz --seed %llu --iters %zu)\n",
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(opt.seed), opt.iters);
    if (opt.inject != merge::DebugMutation::kNone) {
      std::printf("injected mutation: %s (oracle self-test — violations are "
                  "the expected outcome)\n",
                  fuzz::mutation_name(opt.inject));
    }
    const fuzz::FuzzReport report = fuzz::run_fuzz(opt);
    std::printf(
        "%zu iteration(s) in %.1fs: %zu rejected, %zu mode(s) generated, "
        "%zu clique(s) checked, %zu violation(s)\n",
        report.iterations, report.seconds, report.rejected,
        report.modes_generated, report.cliques_checked,
        report.findings.size());
    for (const fuzz::Finding& f : report.findings) print_finding(f, opt);

    meta.numbers["seed"] = static_cast<double>(opt.seed);
    meta.numbers["iterations"] = static_cast<double>(report.iterations);
    meta.numbers["rejected"] = static_cast<double>(report.rejected);
    meta.numbers["violations"] = static_cast<double>(report.findings.size());
    meta.numbers["fuzz_seconds"] = report.seconds;
    emit_stats();
    return report.ok() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    meta.strings["error"] = e.what();
    emit_stats();
    return 1;
  }
}
