#pragma once
// Shared pieces of the benchmark program: run configuration, the fixed
// amount of work each workload does, and the result it reports.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "merge/types.h"

namespace mmbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 1;
  size_t threads = 1;  // merge pool size: min(4, nproc), never 0
  size_t nproc = 1;
  std::string span_out;  // traced run: where the span file goes
};

/// The work one run does. It is a fixed function of (workload, seconds),
/// sized so the timed work lasts about 1 to 1.5 x `seconds` on a 4-core
/// host; no loop is bounded by a clock, so every count repeats exactly at
/// one seed.
struct Plan {
  size_t setup_loads = 0;  // front-end loads timed for setup_s
  size_t cold_ops = 0;     // cold merges of the whole mode set, for merge_ref
  size_t edit_rounds = 0;  // warm edits, each round edits every mode once
  size_t traced_loads = 0;
  size_t traced_ops = 0;  // cold merges the traced run replays
};
Plan plan_for(const Config& cfg);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Run facts for the info line: counts, digests, sample sizes.
  std::vector<std::pair<std::string, std::string>> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  /// Count one operation; a false `ok` marks it failed.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Merge options every workload uses: defaults, with an explicit pool size.
mm::merge::MergeOptions merge_options(const Config& cfg);

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100] (0 gives the minimum); 0 when
/// `v` is empty.
double percentile(std::vector<double> v, double p);
/// The statistic behind the timed end-to-end metrics other than setup_s:
/// the 10th percentile of the run's samples (merge_ref and commit_p10_ref
/// divide it by the reference kernel's). Contention from other tenants of
/// the host only ever adds time and comes and goes within seconds, so a
/// run's faster samples track the program while its median tracks the host.
double fast(const std::vector<double>& v);
double peak_rss_mb();
/// Process CPU time (user + system, every thread) in seconds.
double cpu_seconds();
std::string hex64(uint64_t v);
/// "min p10 p25 p50 p75 p90 max" of a sample set, for the info line (all 0
/// when the set is empty).
std::string quantiles(const std::vector<double>& v);

Outcome run_untraced(const Config& cfg);
Outcome run_traced(const Config& cfg);

}  // namespace mmbench
