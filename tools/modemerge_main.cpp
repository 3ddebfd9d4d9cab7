// modemerge — command-line mode merging.
//
//   modemerge --netlist design.v --mode func.sdc --mode scan.sdc ...
//             [--out DIR] [--tolerance X] [--threads N] [--sta]
//             [--no-refine] [--no-validate] [--no-hold]
//             [--stats-out FILE.json] [--trace-out FILE.json] [--profile]
//   modemerge --netlist design.v --script deltas.txt [--out DIR] ...
//
// Reads a structural Verilog netlist (built-in cell library) and N SDC mode
// decks, runs mergeability analysis + clique cover + per-clique merging,
// writes one merged SDC per clique into DIR (default .), and prints the
// merge reports. With --sta it also runs STA on individual vs merged modes
// and reports the runtime reduction and slack conformity. Exit status is
// non-zero if any merged mode fails sign-off validation; bad command-line
// input exits 2.
//
// --script drives the incremental MergeSession instead of the one-shot
// batch: the file holds one command per line (add NAME FILE.sdc /
// update NAME FILE.sdc / remove NAME / commit, '#' comments), relative
// SDC paths resolve against the script's directory, each commit prints a
// delta summary (pairs re-checked, cliques reused vs re-merged), and the
// final commit's merged_<k>.sdc files are written to --out.
//
// Observability: --stats-out dumps the mm::obs metrics registry (per-phase
// wall time, peak RSS, counters) as JSON, --trace-out writes a Chrome
// trace_event file loadable in chrome://tracing / Perfetto, and --profile
// prints the per-phase table at the end of the run.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "merge/mcmm_session.h"
#include "merge/merger.h"
#include "merge/qor.h"
#include "merge/session.h"
#include "netlist/liberty.h"
#include "netlist/verilog.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include "timing/report.h"
#include "timing/sta.h"
#include "util/logger.h"
#include "util/timer.h"

namespace {

constexpr const char* kVersion = "modemerge 1.1.0";

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw mm::Error("cannot open: " + path);
  std::ostringstream os;
  os << file.rdbuf();
  return os.str();
}

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: modemerge --netlist FILE.v [--liberty FILE.lib] --mode FILE.sdc "
      "[--mode FILE.sdc ...]\n"
      "       modemerge --netlist FILE.v --script FILE [--out DIR]\n"
      "\n"
      "merging:\n"
      "  --out DIR            output directory for merged_<k>.sdc (default .)\n"
      "  --script FILE        incremental session driver: one command per\n"
      "                       line (add NAME FILE.sdc | update NAME FILE.sdc\n"
      "                       | remove NAME | commit); relative SDC paths\n"
      "                       resolve against the script's directory\n"
      "  --tolerance X        relative constraint-value merge tolerance (>= 0)\n"
      "  --threads N          worker threads for the whole merge pipeline:\n"
      "                       relationship extraction, pair mergeability\n"
      "                       checks, refinement, and validation all share\n"
      "                       one pool (0 = hardware concurrency)\n"
      "  --no-refine          preliminary merge only (skip 3-pass refinement)\n"
      "  --no-validate        skip the final equivalence validation\n"
      "  --no-hold            setup-side analysis only\n"
      "  --corners C          multi-corner (MCMM) batch merge: the --mode\n"
      "                       list is an M x C deck matrix in mode-major\n"
      "                       order (mode 0 corner 0, mode 0 corner 1, ...);\n"
      "                       modes merge only when mergeable in EVERY\n"
      "                       corner, one clique cover is shared across\n"
      "                       corners, and each clique writes one\n"
      "                       merged_<k>_corner<c>.sdc per corner\n"
      "                       (docs/MCMM.md; default 1 = today's flat merge)\n"
      "\n"
      "merge policy (docs/POLICIES.md):\n"
      "  --merge-policy P     exact (default: byte-identical decks only) |\n"
      "                       windowed (accept per-field disagreement within\n"
      "                       the window budgets below; merged deck keeps the\n"
      "                       worst-case envelope, never optimistic)\n"
      "  --window X           set all four window budgets to X and select\n"
      "                       the windowed policy\n"
      "  --window-latency X      clock source/network latency budget\n"
      "  --window-uncertainty X  clock uncertainty budget\n"
      "  --window-transition X   input transition (slew) budget\n"
      "  --window-drive-load X   driving-cell / port-load budget\n"
      "  --qor-out FILE       write the mm.qor/1 conformity report (merged vs\n"
      "                       worst-member slack per endpoint; batch mode\n"
      "                       only, runs one STA per deck of each\n"
      "                       multi-mode clique)\n"
      "\n"
      "analysis / reports:\n"
      "  --sta                run STA individual-vs-merged and report reduction\n"
      "  --report-timing N    print the N worst paths per merged mode\n"
      "  --report-clocks      print the clock report per merged mode\n"
      "\n"
      "observability:\n"
      "  --seed N             deterministic run seed, printed and recorded in\n"
      "                       stats (replay handle for fuzz/triage workflows)\n"
      "  --stats-out FILE     write machine-readable run stats JSON\n"
      "  --trace-out FILE     write Chrome trace_event JSON (chrome://tracing)\n"
      "  --journal-out FILE   write the mm.journal/1 merge decision journal\n"
      "                       (JSONL; query with mmreport explain/timeline);\n"
      "                       with --script, one segment per commit\n"
      "  --profile            print the per-phase wall-time table at exit\n"
      "  --verbose            log at info level\n"
      "  --log-timestamps     prefix log lines with wall clock + thread id\n"
      "\n"
      "  --help, -h           this help (exit 0)\n"
      "  --version            print version (exit 0)\n");
}

[[noreturn]] void bad_arg(const char* flag, const char* text,
                          const char* expected) {
  std::fprintf(stderr, "modemerge: invalid value for %s: '%s' (expected %s)\n",
               flag, text, expected);
  std::exit(2);
}

/// Strictly parse a non-negative finite double; exits 2 with a clear
/// message on garbage, trailing junk, or negative values.
double parse_double_arg(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    bad_arg(flag, text, "a finite number");
  }
  if (v < 0) bad_arg(flag, text, "a non-negative number");
  return v;
}

/// Strictly parse a non-negative integer; exits 2 on anything else.
size_t parse_size_arg(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      std::strchr(text, '-') != nullptr) {
    bad_arg(flag, text, "a non-negative integer");
  }
  return static_cast<size_t>(v);
}

/// Write one merged deck to `out_dir` (created if missing). Returns false
/// with a stderr message when the file cannot be written — "wrote" is only
/// ever printed for bytes actually on disk.
bool write_merged(const std::string& out_dir, size_t clique,
                  const mm::sdc::Sdc& merged) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string out_path =
      out_dir + "/merged_" + std::to_string(clique) + ".sdc";
  std::ofstream file(out_path);
  file << mm::sdc::write_sdc(merged);
  file.close();
  if (!file) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return false;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return true;
}

/// Execute a --script delta file against a long-lived MergeSession.
/// Returns the process exit status. Script syntax errors exit 2 directly
/// (same contract as bad command-line input).
int run_script(const std::string& script_path,
               const mm::timing::TimingGraph& graph,
               const mm::netlist::Design& design,
               const mm::merge::MergeOptions& options,
               const std::string& out_dir, mm::obs::StatsMeta& meta) {
  using namespace mm;

  const std::string text = read_file(script_path);
  const size_t slash = script_path.find_last_of('/');
  const std::string script_dir =
      slash == std::string::npos ? "" : script_path.substr(0, slash + 1);
  auto resolve = [&](const std::string& p) {
    return (!p.empty() && p.front() == '/') ? p : script_dir + p;
  };

  merge::MergeSession session(graph, options);
  struct LiveMode {
    merge::MergeSession::ModeId id;
    std::unique_ptr<sdc::Sdc> sdc;  // session borrows; must outlive the entry
  };
  std::map<std::string, LiveMode> live;
  size_t commits = 0;
  bool safe = true;
  bool wrote_ok = true;

  std::istringstream is(text);
  std::string line;
  size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string cmd, name, path;
    ls >> cmd;
    if (cmd.empty()) continue;
    auto fail = [&](const char* msg) {
      std::fprintf(stderr, "modemerge: %s:%zu: %s\n", script_path.c_str(),
                   lineno, msg);
      std::exit(2);
    };

    if (cmd == "add" || cmd == "update") {
      ls >> name >> path;
      if (name.empty() || path.empty()) {
        fail("expected: add|update NAME FILE.sdc");
      }
      auto sdc = std::make_unique<sdc::Sdc>(
          sdc::parse_sdc(read_file(resolve(path)), design));
      std::printf("%s %-20s: %zu clocks, %zu exceptions\n", cmd.c_str(),
                  name.c_str(), sdc->num_clocks(), sdc->exceptions().size());
      if (cmd == "add") {
        if (live.count(name)) fail("mode name already live");
        const merge::MergeSession::ModeId id =
            session.add_mode(name, sdc.get());
        live.emplace(name, LiveMode{id, std::move(sdc)});
      } else {
        auto it = live.find(name);
        if (it == live.end()) fail("update of unknown mode name");
        session.update_mode(it->second.id, sdc.get());
        it->second.sdc = std::move(sdc);
      }
    } else if (cmd == "remove") {
      ls >> name;
      auto it = live.find(name);
      if (it == live.end()) fail("remove of unknown mode name");
      session.remove_mode(it->second.id);
      live.erase(it);
      std::printf("remove %s\n", name.c_str());
    } else if (cmd == "commit") {
      const merge::MergeSession::CommitResult& r = session.commit();
      ++commits;
      std::printf(
          "commit %zu: %zu modes -> %zu merged (%zu reused, %zu re-merged), "
          "%zu pairs re-checked, %zu clean, %.3fs\n",
          commits, r.num_input_modes, r.num_merged_modes(), r.cliques_reused,
          r.cliques_merged, r.pairs_rechecked, r.pairs_skipped_clean,
          r.total_seconds);
    } else {
      fail("unknown command (expected add/update/remove/commit)");
    }
  }

  // A trailing commit is implied so every script yields output; with no
  // deltas since the last explicit commit this reuses everything.
  const merge::MergeSession::CommitResult& out = session.commit();
  ++commits;
  std::printf("\nfinal: %zu modes -> %zu merged (%.1f%% reduction), "
              "%zu commits\n",
              out.num_input_modes, out.num_merged_modes(),
              out.reduction_percent(), commits);
  meta.numbers["num_input_modes"] = static_cast<double>(out.num_input_modes);
  meta.numbers["num_merged_modes"] =
      static_cast<double>(out.num_merged_modes());
  meta.numbers["reduction_percent"] = out.reduction_percent();
  meta.numbers["session_commits"] = static_cast<double>(commits);

  for (size_t c = 0; c < out.merged.size(); ++c) {
    const merge::ValidatedMergeResult& m = *out.merged[c];
    std::printf("\n--- merged mode %zu <- {", c);
    for (size_t k = 0; k < out.clique_ids[c].size(); ++k) {
      std::printf("%s%s", k ? ", " : "",
                  session.mode_name(out.clique_ids[c][k]).c_str());
    }
    std::printf("} ---\n%s",
                merge::report_merge(m.merge, m.equivalence).c_str());
    safe &= !options.validate || m.equivalence.signoff_safe();

    wrote_ok &= write_merged(out_dir, c, *m.merge.merged);
  }

  if (!safe) {
    std::fprintf(stderr,
                 "\nFAIL: at least one merged mode is not sign-off safe\n");
    return 1;
  }
  return wrote_ok ? 0 : 1;
}

/// Multi-corner batch (--corners C > 1): `modes` is an M x C deck matrix
/// in mode-major order. Runs one McmmSession commit — one shared clique
/// cover, per-corner merges — and writes one merged_<k>_corner<c>.sdc per
/// (clique, corner). With --qor-out, the per-corner conformity reports
/// land in <qor_out>.<corner>; every corner must be never-optimistic for
/// a zero exit.
int run_mcmm(const mm::timing::TimingGraph& graph,
             const std::vector<std::string>& mode_paths,
             const std::vector<mm::sdc::Sdc>& modes, size_t num_corners,
             const mm::merge::MergeOptions& options, const std::string& out_dir,
             const std::string& qor_out, mm::obs::StatsMeta& meta) {
  using namespace mm;

  const size_t num_modes = modes.size() / num_corners;
  std::vector<std::string> corner_names;
  corner_names.reserve(num_corners);
  for (size_t c = 0; c < num_corners; ++c) {
    corner_names.push_back("corner" + std::to_string(c));
  }
  merge::McmmSession session(graph, merge::CornerSet(corner_names), options);
  for (size_t m = 0; m < num_modes; ++m) {
    std::vector<const sdc::Sdc*> decks;
    decks.reserve(num_corners);
    for (size_t c = 0; c < num_corners; ++c) {
      decks.push_back(&modes[m * num_corners + c]);
    }
    session.add_mode(mode_paths[m * num_corners], std::move(decks));
  }
  const merge::McmmSession::CommitResult& out = session.commit();

  const merge::RelationshipBuilder::Stats built =
      session.context().builder().stats();
  std::printf(
      "\nmcmm: %zu modes x %zu corners -> %zu merged (%.1f%% reduction) in "
      "%.2fs\n"
      "mcmm: %zu pair-corner checks (%zu reused), %zu skeleton extractions, "
      "%zu corner delta fills, %zu skeleton mismatches\n",
      num_modes, num_corners, out.num_merged_modes(), out.reduction_percent(),
      out.total_seconds, out.pair_corner_checks, out.pair_corner_reuses,
      static_cast<size_t>(built.misses - built.delta_fills -
                          built.skeleton_mismatches),
      static_cast<size_t>(built.delta_fills),
      static_cast<size_t>(built.skeleton_mismatches));
  meta.numbers["corners"] = static_cast<double>(num_corners);
  meta.numbers["num_input_modes"] = static_cast<double>(num_modes);
  meta.numbers["num_merged_modes"] = static_cast<double>(out.num_merged_modes());
  meta.numbers["reduction_percent"] = out.reduction_percent();
  meta.numbers["merge_seconds"] = out.total_seconds;
  meta.numbers["mcmm_pair_corner_checks"] =
      static_cast<double>(out.pair_corner_checks);
  meta.numbers["mcmm_delta_fills"] = static_cast<double>(built.delta_fills);

  bool safe = true;
  bool wrote_ok = true;
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  for (size_t k = 0; k < out.cliques.size(); ++k) {
    std::printf("\n--- merged mode %zu <- {", k);
    for (size_t i = 0; i < out.clique_ids[k].size(); ++i) {
      std::printf("%s%s", i ? ", " : "",
                  session.mode_name(out.clique_ids[k][i]).c_str());
    }
    std::printf("} ---\n");
    for (size_t c = 0; c < num_corners; ++c) {
      const merge::ValidatedMergeResult& m = *out.merged[c][k];
      safe &= !options.validate || m.equivalence.signoff_safe();
      const std::string out_path = out_dir + "/merged_" + std::to_string(k) +
                                   "_" + corner_names[c] + ".sdc";
      std::ofstream file(out_path);
      file << sdc::write_sdc(*m.merge.merged);
      file.close();
      if (!file) {
        std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
        wrote_ok = false;
      } else {
        std::printf("wrote %s\n", out_path.c_str());
      }
    }
  }

  if (!qor_out.empty()) {
    for (size_t c = 0; c < num_corners; ++c) {
      const merge::QoRReport qor =
          session.qor(static_cast<merge::CornerId>(c));
      std::printf(
          "QoR %s: %zu clique(s), %zu endpoint(s); max pessimism %.4f, "
          "optimism violations %zu -> %s\n",
          corner_names[c].c_str(), qor.cliques.size(), qor.endpoints_compared,
          qor.max_pessimism, qor.optimism_violations,
          qor.never_optimistic() ? "never optimistic" : "OPTIMISTIC");
      const std::string path = qor_out + "." + corner_names[c];
      std::ofstream file(path);
      file << merge::write_qor_json(qor);
      file.close();
      if (!file) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        wrote_ok = false;
      } else {
        std::fprintf(stderr, "wrote QoR report to %s\n", path.c_str());
      }
      safe &= qor.never_optimistic();
    }
  }

  if (!safe) {
    std::fprintf(stderr,
                 "\nFAIL: at least one merged mode is not sign-off safe\n");
    return 1;
  }
  return wrote_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mm;

  std::string netlist_path;
  std::string liberty_path;
  std::vector<std::string> mode_paths;
  std::string script_path;
  std::string out_dir = ".";
  std::string stats_out;
  std::string trace_out;
  std::string journal_out;
  bool profile_flag = false;
  merge::MergeOptions options;
  std::string qor_out;
  bool policy_level_set = false;  // explicit --merge-policy wins over the
  bool window_flag_seen = false;  // windowed default a --window* flag implies
  bool run_sta_flag = false;
  size_t report_paths = 0;
  bool report_clocks_flag = false;
  uint64_t seed = 1;
  size_t num_corners = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "modemerge: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--netlist") netlist_path = value();
    else if (arg == "--liberty") liberty_path = value();
    else if (arg == "--mode") mode_paths.push_back(value());
    else if (arg == "--script") script_path = value();
    else if (arg == "--out") out_dir = value();
    else if (arg == "--tolerance")
      options.value_tolerance = parse_double_arg("--tolerance", value());
    else if (arg == "--threads")
      options.num_threads = parse_size_arg("--threads", value());
    else if (arg == "--sta") run_sta_flag = true;
    else if (arg == "--report-timing")
      report_paths = parse_size_arg("--report-timing", value());
    else if (arg == "--report-clocks") report_clocks_flag = true;
    else if (arg == "--no-refine") options.run_refinement = false;
    else if (arg == "--no-validate") options.validate = false;
    else if (arg == "--no-hold") options.analyze_hold = false;
    else if (arg == "--corners") {
      num_corners = parse_size_arg("--corners", value());
      if (num_corners == 0) bad_arg("--corners", "0", "a positive integer");
    }
    else if (arg == "--merge-policy") {
      const char* name = value();
      if (!merge::parse_policy_level(name, &options.policy.level)) {
        bad_arg("--merge-policy", name, "exact|windowed");
      }
      policy_level_set = true;
    } else if (arg == "--window") {
      const double w = parse_double_arg("--window", value());
      options.policy.window_latency = w;
      options.policy.window_uncertainty = w;
      options.policy.window_transition = w;
      options.policy.window_drive_load = w;
      window_flag_seen = true;
    } else if (arg == "--window-latency") {
      options.policy.window_latency =
          parse_double_arg("--window-latency", value());
      window_flag_seen = true;
    } else if (arg == "--window-uncertainty") {
      options.policy.window_uncertainty =
          parse_double_arg("--window-uncertainty", value());
      window_flag_seen = true;
    } else if (arg == "--window-transition") {
      options.policy.window_transition =
          parse_double_arg("--window-transition", value());
      window_flag_seen = true;
    } else if (arg == "--window-drive-load") {
      options.policy.window_drive_load =
          parse_double_arg("--window-drive-load", value());
      window_flag_seen = true;
    } else if (arg == "--qor-out") qor_out = value();
    else if (arg == "--seed")
      seed = static_cast<uint64_t>(parse_size_arg("--seed", value()));
    else if (arg == "--stats-out") stats_out = value();
    else if (arg == "--trace-out") trace_out = value();
    else if (arg == "--journal-out") journal_out = value();
    else if (arg == "--profile") profile_flag = true;
    else if (arg == "--verbose") Logger::set_level(LogLevel::kInfo);
    else if (arg == "--log-timestamps")
      Logger::set_prefix_style(LogPrefixStyle::kTimestamped);
    else if (arg == "--version") {
      std::printf("%s\n", kVersion);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (netlist_path.empty() || (mode_paths.empty() == script_path.empty())) {
    usage(stderr);
    return 2;
  }
  // A window budget without --merge-policy implies the windowed level; an
  // explicit --merge-policy always wins (e.g. exact + budgets = budgets
  // parked for a later run).
  if (window_flag_seen && !policy_level_set) {
    options.policy.level = merge::PolicyLevel::kWindowed;
  }
  if (!qor_out.empty() && !script_path.empty()) {
    std::fprintf(stderr,
                 "modemerge: --qor-out is batch-mode only (not --script)\n");
    return 2;
  }
  if (num_corners > 1) {
    if (!script_path.empty() || run_sta_flag ||
        report_paths > 0 || report_clocks_flag) {
      std::fprintf(stderr,
                   "modemerge: --corners is batch-mode only and composes with "
                   "--qor-out, not --script/--sta/--report-*\n");
      return 2;
    }
    if (mode_paths.size() % num_corners != 0) {
      std::fprintf(stderr,
                   "modemerge: --corners %zu needs a mode count divisible by "
                   "the corner count (got %zu decks)\n",
                   num_corners, mode_paths.size());
      return 2;
    }
  }
  if (options.policy.windowed()) {
    std::printf("merge policy: windowed (latency %g, uncertainty %g, "
                "transition %g, drive/load %g; pessimism bound %g)\n",
                options.policy.window_latency,
                options.policy.window_uncertainty,
                options.policy.window_transition,
                options.policy.window_drive_load,
                options.policy.pessimism_bound());
  }

  if (!trace_out.empty()) obs::Trace::set_enabled(true);
  if (!journal_out.empty() && !obs::Journal::open(journal_out)) {
    std::fprintf(stderr, "error: cannot write %s\n", journal_out.c_str());
    return 1;
  }

  std::printf("seed: %llu\n", static_cast<unsigned long long>(seed));

  obs::StatsMeta meta;
  meta.strings["tool"] = kVersion;
  meta.strings["netlist"] = netlist_path;
  meta.numbers["num_input_modes"] = static_cast<double>(mode_paths.size());
  meta.numbers["seed"] = static_cast<double>(seed);

  // Emit whatever observability artifacts were requested, even on the
  // error path, so failed runs stay diagnosable.
  // Returns false if a requested artifact could not be written.
  auto emit_observability = [&]() {
    bool ok = true;
    if (!journal_out.empty()) {
      // Flushes every buffered event — the error path keeps its decision
      // trail up to the point of failure.
      obs::Journal::close();
      std::fprintf(stderr, "wrote journal to %s (%llu events)\n",
                   journal_out.c_str(),
                   static_cast<unsigned long long>(
                       obs::Journal::events_appended()));
    }
    if (!stats_out.empty()) {
      if (obs::write_stats_json(stats_out, meta)) {
        std::fprintf(stderr, "wrote stats to %s\n", stats_out.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", stats_out.c_str());
        ok = false;
      }
    }
    if (!trace_out.empty()) {
      if (obs::Trace::write_chrome_json(trace_out)) {
        std::fprintf(stderr, "wrote trace to %s\n", trace_out.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        ok = false;
      }
    }
    if (profile_flag) {
      std::printf("\n=== phase profile ===\n%s", obs::profile_table().c_str());
    }
    return ok;
  };

  try {
    const netlist::Library lib =
        liberty_path.empty() ? netlist::Library::builtin()
                             : netlist::read_liberty(read_file(liberty_path));
    if (!liberty_path.empty()) {
      std::printf("library %s: %zu cells\n", liberty_path.c_str(),
                  lib.num_cells());
    }
    const netlist::Design design =
        netlist::read_verilog(read_file(netlist_path), lib);
    const netlist::CheckReport check = netlist::check_design(design);
    for (const std::string& w : check.warnings) {
      MM_WARN("netlist: %s", w.c_str());
    }
    std::printf("netlist %s: %zu cells, %zu nets, %zu ports\n",
                design.name().c_str(), design.num_instances(),
                design.num_nets(), design.num_ports());

    const timing::TimingGraph graph(design);

    if (!script_path.empty()) {
      const int status =
          run_script(script_path, graph, design, options, out_dir, meta);
      const bool artifacts_ok = emit_observability();
      return status != 0 ? status : (artifacts_ok ? 0 : 1);
    }

    std::vector<sdc::Sdc> modes;
    std::vector<const sdc::Sdc*> ptrs;
    modes.reserve(mode_paths.size());
    for (const std::string& path : mode_paths) {
      modes.push_back(sdc::parse_sdc(read_file(path), design));
      std::printf("mode %-30s: %zu clocks, %zu exceptions, %zu case pins\n",
                  path.c_str(), modes.back().num_clocks(),
                  modes.back().exceptions().size(),
                  modes.back().case_analysis().size());
    }
    for (const sdc::Sdc& m : modes) ptrs.push_back(&m);

    if (num_corners > 1) {
      const int status = run_mcmm(graph, mode_paths, modes, num_corners,
                                  options, out_dir, qor_out, meta);
      const bool artifacts_ok = emit_observability();
      return status != 0 ? status : (artifacts_ok ? 0 : 1);
    }

    const merge::MergedModeSet out =
        merge::merge_mode_set(graph, ptrs, options);
    std::printf("\n%zu modes -> %zu merged (%.1f%% reduction) in %.2fs\n",
                ptrs.size(), out.num_merged_modes(), out.reduction_percent(),
                out.total_seconds);
    meta.numbers["num_merged_modes"] =
        static_cast<double>(out.num_merged_modes());
    meta.numbers["reduction_percent"] = out.reduction_percent();
    meta.numbers["merge_seconds"] = out.total_seconds;

    bool safe = true;
    bool wrote_ok = true;
    for (size_t c = 0; c < out.merged.size(); ++c) {
      const merge::ValidatedMergeResult& m = out.merged[c];
      std::printf("\n--- merged mode %zu <- {", c);
      for (size_t k = 0; k < out.cliques[c].size(); ++k) {
        std::printf("%s%s", k ? ", " : "",
                    mode_paths[out.cliques[c][k]].c_str());
      }
      std::printf("} ---\n%s", report_merge(m.merge, m.equivalence).c_str());
      safe &= !options.validate || m.equivalence.signoff_safe();

      wrote_ok &= write_merged(out_dir, c, *m.merge.merged);
    }

    for (size_t c = 0; c < out.merged.size(); ++c) {
      const sdc::Sdc& merged = *out.merged[c].merge.merged;
      if (report_clocks_flag) {
        std::printf("\n=== merged mode %zu clocks ===\n%s", c,
                    timing::report_clocks(graph, merged).c_str());
      }
      if (report_paths > 0) {
        timing::ReportTimingOptions ro;
        ro.max_paths = report_paths;
        std::printf("\n=== merged mode %zu worst paths ===\n%s", c,
                    timing::report_timing(graph, merged, ro).c_str());
      }
    }

    if (!qor_out.empty()) {
      const merge::QoRReport qor = merge::qor_report(graph, ptrs, out, options);
      std::printf(
          "\nQoR: %zu clique(s) compared, %zu endpoint(s); max pessimism "
          "%.4f (bound %.4f), optimism violations %zu, missing endpoints "
          "%zu -> %s\n",
          qor.cliques.size(), qor.endpoints_compared, qor.max_pessimism,
          qor.pessimism_bound, qor.optimism_violations, qor.missing_endpoints,
          qor.never_optimistic() ? "never optimistic" : "OPTIMISTIC");
      std::ofstream file(qor_out);
      file << merge::write_qor_json(qor);
      file.close();
      if (!file) {
        std::fprintf(stderr, "error: cannot write %s\n", qor_out.c_str());
        wrote_ok = false;
      } else {
        std::fprintf(stderr, "wrote QoR report to %s\n", qor_out.c_str());
      }
      meta.numbers["qor_max_pessimism"] = qor.max_pessimism;
      meta.numbers["qor_optimism_violations"] =
          static_cast<double>(qor.optimism_violations);
      safe &= qor.never_optimistic();
    }

    if (run_sta_flag) {
      Stopwatch t1;
      const timing::StaResult indiv = timing::run_sta_multi(graph, ptrs);
      const double t_indiv = t1.elapsed_seconds();
      std::vector<const sdc::Sdc*> merged_ptrs;
      for (const auto& m : out.merged)
        merged_ptrs.push_back(m.merge.merged.get());
      Stopwatch t2;
      const timing::StaResult merged_sta =
          timing::run_sta_multi(graph, merged_ptrs);
      const double t_merged = t2.elapsed_seconds();
      std::printf(
          "\nSTA: individual %.3fs (%zu runs), merged %.3fs (%zu runs), "
          "%.1f%% reduction\n",
          t_indiv, ptrs.size(), t_merged, merged_ptrs.size(),
          t_indiv > 0 ? 100.0 * (1.0 - t_merged / t_indiv) : 0.0);
      std::printf("WNS individual %.4f, merged %.4f\n", indiv.wns,
                  merged_sta.wns);
      meta.numbers["sta_individual_seconds"] = t_indiv;
      meta.numbers["sta_merged_seconds"] = t_merged;
      meta.numbers["wns_individual"] = indiv.wns;
      meta.numbers["wns_merged"] = merged_sta.wns;
    }

    const bool artifacts_ok = emit_observability();
    if (!safe) {
      std::fprintf(stderr, "\nFAIL: at least one merged mode is not sign-off safe\n");
      return 1;
    }
    return artifacts_ok && wrote_ok ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    meta.strings["error"] = e.what();
    emit_observability();
    return 1;
  }
}
