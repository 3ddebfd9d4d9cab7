// mmbench: the repository's end-to-end benchmark program.
//
//   mmbench --workload table5|mcmm --seed N --seconds S --trace 0|1
//           [--span-out FILE]
//
// Builds the workload's text inputs from the seed (untimed), loads them
// through the front end, drives the merge engine through its public API,
// checks every output, and prints one info line ("mmbench-info {...}")
// followed by the result line {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// replays the same work one layer call at a time (replay.cpp) and reports
// per-layer metrics. See README.md for the workloads and metrics.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "merge/mcmm_session.h"
#include "merge/merger.h"
#include "merge/session.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include "util/timer.h"

#ifndef MMBENCH_BUILD_TYPE
#define MMBENCH_BUILD_TYPE "unknown"
#endif

namespace mmbench {

Plan plan_for(const Config& cfg) {
  const double s = cfg.seconds;
  auto scaled = [s](size_t floor, double per_second) {
    return std::max<size_t>(floor,
                            static_cast<size_t>(std::lround(s * per_second)));
  };
  // Nominal costs at 4 threads: a table5 pass ~3.7 s and one load of its
  // six designs ~0.45 s; an mcmm cold commit ~0.35 s; an edit ~55 ms (mcmm
  // ~85 ms); an mcmm load ~7 ms, so it takes one load per edit. An edit
  // round edits every mode once (table5 95 edits, mcmm 16). At --seconds 40
  // a run lasts ~42 s (table5) or ~33 s (mcmm), and every stream has at
  // least 95 edits, so its p10 has at least nine samples below it.
  Plan p;
  if (cfg.workload == "table5") {
    p.setup_loads = 12;
    p.cold_ops = scaled(3, 1 / 8.0);
    p.edit_rounds = scaled(1, 1 / 20.0);
  } else {
    p.cold_ops = scaled(9, 1.0);
    p.edit_rounds = scaled(6, 0.3);
    p.setup_loads = p.edit_rounds * 16;
  }
  p.traced_loads = std::max<size_t>(3, p.setup_loads / 4);
  // At least five replayed operations, so per-layer medians are not one
  // sample (table5 has only a few cold passes).
  p.traced_ops = std::max<size_t>(5, p.cold_ops / 3);
  return p;
}

mm::merge::MergeOptions merge_options(const Config& cfg) {
  mm::merge::MergeOptions o;
  o.num_threads = cfg.threads;
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double fast(const std::vector<double>& v) { return percentile(v, 10); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::string quantiles(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0}) {
    std::snprintf(buf, sizeof buf, "%s%.6g", out.empty() ? "" : " ",
                  percentile(v, p));
    out += buf;
  }
  return out;
}

std::string hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

using mm::Stopwatch;
using mm::merge::CornerId;
using mm::merge::McmmSession;
using mm::merge::MergeContext;
using mm::merge::MergeSession;
using mm::sdc::Sdc;

/// The setup_s samples: timed front-end loads of all the workload's designs.
class SetupSampler {
 public:
  explicit SetupSampler(const Inputs& in) : in_(in) {}

  void sample() {
    std::vector<Loaded> cur;  // freed after the sample, untimed
    cur.reserve(in_.designs.size());
    Stopwatch t;
    for (const DesignText& d : in_.designs) cur.push_back(load(d));
    samples_.push_back(t.elapsed_seconds());
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  const Inputs& in_;
  std::vector<double> samples_;
};

bool all_signoff_safe(const mm::merge::MergedModeSet& s) {
  for (const auto& m : s.merged) {
    if (!m.equivalence.signoff_safe()) return false;
  }
  return true;
}

uint64_t digest_of(const mm::merge::MergedModeSet& s,
                   uint64_t h = 0xcbf29ce484222325ull) {
  for (const auto& m : s.merged) h = fnv1a(mm::sdc::write_sdc(*m.merge.merged), h);
  return h;
}

/// A batch merge with a fresh context, as a batch modemerge run has;
/// returns its wall time in seconds.
double timed_batch(const Config& cfg, const Loaded& l,
                   mm::merge::MergedModeSet& result) {
  Stopwatch t;
  MergeContext ctx(merge_options(cfg));
  result = mm::merge::merge_mode_set(*l.graph, l.corner_decks(0), ctx);
  return t.elapsed_seconds();
}

/// What a warm edit stream measured.
struct EditRun {
  std::vector<double> ms;
  uint64_t digest = 0xcbf29ce484222325ull;  // bytes of every re-merge
  size_t pairs = 0, merged = 0, reused = 0;
  double reduction = 0.0;
  double ref_s = 0.0;  // fast() of the Reference samples taken between edits
};

/// The flat warm edit stream: a MergeSession over its own load of the edit
/// design, committed once untimed; each edit is one update_mode + commit,
/// timed together. finish() checks, untimed, that the session matches a
/// from-scratch batch merge of its final decks byte for byte.
class FlatEdits {
 public:
  FlatEdits(const Config& cfg, const Inputs& in, Outcome& out)
      : cfg_(cfg),
        in_(in),
        text_(in.designs[in.edit_design]),
        l_(load(text_)),
        session_(*l_.graph, merge_options(cfg)),
        toggled_(l_.decks.size(), false) {
    // The session borrows each live deck; `live_` owns them.
    for (auto& row : l_.decks) live_.push_back(std::move(row[0]));
    for (size_t m = 0; m < live_.size(); ++m) {
      ids_.push_back(session_.add_mode(text_.mode_names[m], live_[m].get()));
    }
    bool ok = false;
    try {
      ok = commit_ok(session_.commit());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cold commit: %s\n", e.what());
    }
    out.op(ok);
  }

  void edit(size_t e, Outcome& out) {
    const size_t v = in_.victims[e];
    toggled_[v] = !toggled_[v];
    bool ok = false;
    try {
      auto deck = std::make_unique<Sdc>(mm::sdc::parse_sdc(
          toggled_[v] ? in_.toggled[v][0] : text_.decks[v][0], *l_.design));
      Stopwatch t;
      session_.update_mode(ids_[v], deck.get());
      live_[v].swap(deck);  // `deck` now holds the old one, freed untimed
      const MergeSession::CommitResult& r = session_.commit();
      run_.ms.push_back(t.elapsed_ms());
      ok = commit_ok(r);
      run_.pairs += r.pairs_rechecked;
      run_.merged += r.cliques_merged;
      run_.reused += r.cliques_reused;
      for (size_t k = 0; k < r.merged.size(); ++k) {
        if (!r.reused[k]) {
          run_.digest = fnv1a(mm::sdc::write_sdc(*r.merged[k]->merge.merged),
                              run_.digest);
        }
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "edit %zu: %s\n", e, ex.what());
    }
    out.op(ok);
  }

  EditRun finish(Outcome& out) {
    const MergeSession::CommitResult& last = session_.last_commit();
    run_.reduction = last.reduction_percent();
    bool ok = false;
    try {
      const mm::merge::MergedModeSet fresh = mm::merge::merge_mode_set(
          *l_.graph, session_.live_modes(), merge_options(cfg_));
      ok = fresh.cliques == last.cliques &&
           fresh.merged.size() == last.merged.size();
      for (size_t k = 0; ok && k < fresh.merged.size(); ++k) {
        ok = mm::sdc::write_sdc(*fresh.merged[k].merge.merged) ==
             mm::sdc::write_sdc(*last.merged[k]->merge.merged);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "edit stream parity: %s\n", e.what());
    }
    out.op(ok);
    return run_;
  }

 private:
  bool commit_ok(const MergeSession::CommitResult& r) const {
    if (!cover_matches_groups(r.cliques, text_.groups)) return false;
    for (size_t k = 0; k < r.merged.size(); ++k) {
      if (!r.reused[k] && !r.merged[k]->equivalence.signoff_safe()) {
        return false;
      }
    }
    return true;
  }

  const Config& cfg_;
  const Inputs& in_;
  const DesignText& text_;
  Loaded l_;
  std::vector<std::unique_ptr<Sdc>> live_;
  MergeSession session_;  // after l_ and live_: it borrows both
  std::vector<MergeSession::ModeId> ids_;
  std::vector<bool> toggled_;
  EditRun run_;
};

/// Untimed: each corner's merged decks of `r` must equal an independent
/// flat batch merge of that corner's decks.
bool matches_flat_merges(const Config& cfg, const mm::timing::TimingGraph& g,
                         const McmmSession& session,
                         const McmmSession::CommitResult& r) {
  try {
    for (size_t c = 0; c < r.merged.size(); ++c) {
      const mm::merge::MergedModeSet flat = mm::merge::merge_mode_set(
          g, session.corner_modes(static_cast<CornerId>(c)),
          merge_options(cfg));
      if (flat.cliques != r.cliques || flat.merged.size() != r.merged[c].size()) {
        return false;
      }
      for (size_t k = 0; k < flat.merged.size(); ++k) {
        if (mm::sdc::write_sdc(*flat.merged[k].merge.merged) !=
            mm::sdc::write_sdc(*r.merged[c][k]->merge.merged)) {
          return false;
        }
      }
    }
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flat parity: %s\n", e.what());
    return false;
  }
}

bool mcmm_commit_ok(const McmmSession::CommitResult& r,
                    const std::vector<size_t>& groups) {
  if (!cover_matches_groups(r.cliques, groups)) return false;
  for (size_t c = 0; c < r.merged.size(); ++c) {
    for (size_t k = 0; k < r.merged[c].size(); ++k) {
      if (!r.reused[c][k] && !r.merged[c][k]->equivalence.signoff_safe()) {
        return false;
      }
    }
  }
  return true;
}

std::unique_ptr<McmmSession> mcmm_session(
    const DesignText& text, const Loaded& l,
    const std::vector<std::vector<std::unique_ptr<Sdc>>>& decks,
    MergeContext& ctx, std::vector<McmmSession::ModeId>* ids = nullptr) {
  auto session = std::make_unique<McmmSession>(
      *l.graph, mm::merge::CornerSet(text.corner_names), ctx);
  for (size_t m = 0; m < decks.size(); ++m) {
    std::vector<const Sdc*> row;
    for (const auto& d : decks[m]) row.push_back(d.get());
    const McmmSession::ModeId id =
        session->add_mode(text.mode_names[m], std::move(row));
    if (ids) ids->push_back(id);
  }
  return session;
}

/// The MCMM warm edit stream: each edit toggles one per-mode false path in
/// every corner deck of one mode (update_mode per corner, then commit, all
/// timed together), so the corners keep sharing the mode's skeleton.
/// finish() checks, untimed, that each corner matches a flat batch merge.
class McmmEdits {
 public:
  McmmEdits(const Config& cfg, const Inputs& in, Outcome& out)
      : cfg_(cfg),
        in_(in),
        text_(in.designs[0]),
        l_(load(text_)),
        ctx_(merge_options(cfg)),
        session_(mcmm_session(text_, l_, l_.decks, ctx_, &ids_)),
        toggled_(l_.decks.size(), false) {
    bool ok = false;
    try {
      ok = mcmm_commit_ok(session_->commit(), text_.groups);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mcmm cold commit: %s\n", e.what());
    }
    out.op(ok);
  }

  void edit(size_t e, Outcome& out) {
    const size_t v = in_.victims[e];
    toggled_[v] = !toggled_[v];
    bool ok = false;
    try {
      std::vector<std::unique_ptr<Sdc>> decks;
      for (size_t c = 0; c < text_.corner_names.size(); ++c) {
        decks.push_back(std::make_unique<Sdc>(mm::sdc::parse_sdc(
            toggled_[v] ? in_.toggled[v][c] : text_.decks[v][c], *l_.design)));
      }
      Stopwatch t;
      for (size_t c = 0; c < decks.size(); ++c) {
        session_->update_mode(ids_[v], static_cast<CornerId>(c),
                              decks[c].get());
      }
      l_.decks[v].swap(decks);  // `decks` now holds the old ones, freed untimed
      const McmmSession::CommitResult& r = session_->commit();
      run_.ms.push_back(t.elapsed_ms());
      ok = mcmm_commit_ok(r, text_.groups);
      run_.pairs += r.pairs_rechecked;
      run_.merged += r.cliques_merged;
      run_.reused += r.cliques_reused;
      for (size_t c = 0; c < r.merged.size(); ++c) {
        for (size_t k = 0; k < r.merged[c].size(); ++k) {
          if (!r.reused[c][k]) {
            run_.digest = fnv1a(
                mm::sdc::write_sdc(*r.merged[c][k]->merge.merged), run_.digest);
          }
        }
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "mcmm edit %zu: %s\n", e, ex.what());
    }
    out.op(ok);
  }

  EditRun finish(Outcome& out) {
    run_.reduction = session_->last_commit().reduction_percent();
    out.op(matches_flat_merges(cfg_, *l_.graph, *session_,
                               session_->last_commit()));
    return run_;
  }

 private:
  const Config& cfg_;
  const Inputs& in_;
  const DesignText& text_;
  Loaded l_;  // the session borrows its decks
  MergeContext ctx_;
  std::vector<McmmSession::ModeId> ids_;
  std::unique_ptr<McmmSession> session_;
  std::vector<bool> toggled_;
  EditRun run_;
};

/// A fixed piece of work that uses none of the library: a dependent walk
/// over a 4 MiB permutation plus a floating-point loop, ~4 ms. Timed after
/// every edit, it measures how fast the shared host runs at that moment;
/// the gated merge and commit metrics are in units of its fast() time.
class Reference {
 public:
  Reference() : next_(1u << 20) {
    // Sattolo's algorithm: one cycle through every slot, fixed seed.
    for (uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = static_cast<uint32_t>(next_.size()) - 1; i > 0; --i) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }
  void sample() {
    Stopwatch t;
    uint32_t at = 0;
    for (int k = 0; k < 20000; ++k) at = next_[at];
    double acc = at;
    for (int k = 0; k < 400000; ++k) acc = acc * 0.999999 + k * 1e-9;
    samples_.push_back(t.elapsed_seconds());
    sink_ += acc;
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<uint32_t> next_;
  std::vector<double> samples_;
  double sink_ = 0.0;  // takes each sample's result, so its loops are used
};

/// Runs the cold operations, the edit stream, the Reference samples and the
/// setup samples interleaved: cold op i is followed by its share of the
/// edits, each edit by a Reference sample, and the setup loads are spread
/// evenly between the edits. So every metric is sampled across the whole
/// run and sees the same host conditions, and no metric's samples are
/// bunched into a few moments of it.
template <typename Stream, typename Cold>
EditRun interleave(const Plan& plan, Cold&& cold, SetupSampler& setup,
                   Stream& stream, size_t edits, Outcome& out) {
  const size_t cold_ops = plan.cold_ops, loads = plan.setup_loads;
  size_t k = 0;  // setup loads taken
  Reference ref;
  for (size_t i = 0; i < cold_ops; ++i) {
    cold(i);
    for (size_t e = i * edits / cold_ops; e < (i + 1) * edits / cold_ops; ++e) {
      stream.edit(e, out);
      ref.sample();
      // Setup load k follows edit floor(k * edits / loads).
      for (; k < loads && k * edits / loads <= e; ++k) setup.sample();
    }
  }
  EditRun run = stream.finish(out);
  run.ref_s = fast(ref.samples());
  out.note("ref_samples", std::to_string(ref.samples().size()));
  out.note("ref_s_quantiles", quantiles(ref.samples()));
  return run;
}

void report_edits(const EditRun& run, Outcome& out) {
  out.add("commit_p10_ref", fast(run.ms) / 1e3 / run.ref_s, "ref");
  out.note("commit_ms_p10", std::to_string(fast(run.ms)));
  out.note("commit_samples", std::to_string(run.ms.size()));
  out.note("commit_ms_quantiles", quantiles(run.ms));
  out.note("edit_pairs_rechecked", std::to_string(run.pairs));
  out.note("edit_cliques_merged", std::to_string(run.merged));
  out.note("edit_cliques_reused", std::to_string(run.reused));
  out.note("edit_digest", hex64(run.digest));
}

/// `merge_s` is `fast(samples)`, except for table5 (see run_table5);
/// `ref_s` is the run's Reference time.
void report_cold(double merge_s, double ref_s,
                 const std::vector<double>& samples, uint64_t digest,
                 Outcome& out) {
  out.add("merge_ref", merge_s / ref_s, "ref");
  out.note("merge_s", std::to_string(merge_s));
  out.note("merge_samples", std::to_string(samples.size()));
  out.note("merge_s_quantiles", quantiles(samples));
  out.note("digest", hex64(digest));
}

/// table5: batch passes over designs A-F (a fresh context per design),
/// interleaved with the warm edit stream on design A. merge_s sums each
/// design's fast() time over the passes, so each design's figure comes from
/// its own quietest passes.
void run_table5(const Config& cfg, const Plan& plan, const Inputs& in,
                SetupSampler& setup, const std::vector<Loaded>& loaded,
                Outcome& out) {
  std::vector<double> pass_s;
  std::vector<std::vector<double>> design_s(in.designs.size());
  std::vector<double> reductions(in.designs.size(), 0.0);
  uint64_t first_digest = 0;
  auto pass = [&](size_t i) {
    double total = 0.0;
    uint64_t digest = 0xcbf29ce484222325ull;
    for (size_t d = 0; d < in.designs.size(); ++d) {
      bool ok = false;
      try {
        mm::merge::MergedModeSet r;
        design_s[d].push_back(timed_batch(cfg, loaded[d], r));
        total += design_s[d].back();
        ok = all_signoff_safe(r) &&
             cover_matches_groups(r.cliques, in.designs[d].groups);
        digest = digest_of(r, digest);
        reductions[d] = r.reduction_percent();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "table5 %s: %s\n", in.designs[d].name.c_str(),
                     e.what());
      }
      out.op(ok);
    }
    if (i == 0) first_digest = digest;
    // Every pass must reproduce the first pass's merged bytes.
    if (digest != first_digest) out.op(false);
    pass_s.push_back(total);
  };
  FlatEdits edits(cfg, in, out);
  const EditRun run =
      interleave(plan, pass, setup, edits, in.victims.size(), out);
  double mean_reduction = 0.0, merge_s = 0.0;
  for (double r : reductions) mean_reduction += r / reductions.size();
  for (const auto& s : design_s) merge_s += fast(s);
  report_cold(merge_s, run.ref_s, pass_s, first_digest, out);
  out.add("reduction_pct", mean_reduction, "%");
  report_edits(run, out);
}

/// mcmm: cold 16x4 McmmSession commits (a fresh session and context each),
/// interleaved with the warm corner-wide edit stream.
void run_mcmm(const Config& cfg, const Plan& plan, const Inputs& in,
              SetupSampler& setup, const std::vector<Loaded>& loaded,
              Outcome& out) {
  const DesignText& text = in.designs[0];
  const Loaded& l = loaded[0];
  std::vector<double> merge_s;
  uint64_t first_digest = 0;
  double reduction = 0.0;
  auto cold = [&](size_t i) {
    bool ok = false;
    try {
      Stopwatch t;
      MergeContext ctx(merge_options(cfg));
      std::unique_ptr<McmmSession> session =
          mcmm_session(text, l, l.decks, ctx);
      const McmmSession::CommitResult& r = session->commit();
      merge_s.push_back(t.elapsed_seconds());
      ok = mcmm_commit_ok(r, text.groups);
      uint64_t digest = 0xcbf29ce484222325ull;
      for (const auto& corner : r.merged) {
        for (const auto& m : corner) {
          digest = fnv1a(mm::sdc::write_sdc(*m->merge.merged), digest);
        }
      }
      if (i == 0) {
        first_digest = digest;
        reduction = r.reduction_percent();
        ok = ok && matches_flat_merges(cfg, *l.graph, *session, r);
      }
      ok = ok && digest == first_digest;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mcmm commit %zu: %s\n", i, e.what());
    }
    out.op(ok);
  };
  McmmEdits edits(cfg, in, out);
  const EditRun run =
      interleave(plan, cold, setup, edits, in.victims.size(), out);
  report_cold(fast(merge_s), run.ref_s, merge_s, first_digest, out);
  out.add("reduction_pct", reduction, "%");
  report_edits(run, out);
}

}  // namespace

Outcome run_untraced(const Config& cfg) {
  const Plan plan = plan_for(cfg);
  const Inputs in = make_inputs(cfg.workload, cfg.seed, plan.edit_rounds);
  Outcome out;
  std::vector<Loaded> loaded;  // what the cold merges run on
  for (const DesignText& d : in.designs) loaded.push_back(load(d));
  SetupSampler setup(in);

  if (cfg.workload == "table5") {
    run_table5(cfg, plan, in, setup, loaded, out);
  } else {
    run_mcmm(cfg, plan, in, setup, loaded, out);
  }
  out.add("setup_s", median(setup.samples()), "s");
  out.note("setup_samples", std::to_string(setup.samples().size()));
  out.note("setup_s_quantiles", quantiles(setup.samples()));
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace mmbench

namespace {

[[noreturn]] void usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload table5|mcmm --seed N "
               "--seconds S --trace 0|1 [--span-out FILE]\n",
               argv0, why, argv0);
  std::exit(2);
}

uint64_t parse_u64(const char* argv0, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || std::strchr(s, '-')) {
    usage(argv0, "expected a non-negative integer");
  }
  return v;
}

size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

void print_result(const mmbench::Config& cfg, const mmbench::Outcome& out,
                  bool traced) {
  std::string info = "mmbench-info {\"workload\": \"" + cfg.workload +
                     "\", \"seed\": " + std::to_string(cfg.seed) +
                     ", \"seconds\": " + std::to_string(cfg.seconds) +
                     ", \"trace\": " + (traced ? "1" : "0") +
                     ", \"threads\": " + std::to_string(cfg.threads) +
                     ", \"nproc\": " + std::to_string(cfg.nproc) +
                     ", \"build_type\": \"" MMBENCH_BUILD_TYPE "\"";
  for (const auto& [k, v] : out.info) info += ", \"" + k + "\": \"" + v + "\"";
  std::printf("%s}\n", info.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (out.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const mmbench::Metric& m = out.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  mmbench::Config cfg;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0], ("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = parse_u64(argv[0], v);
      have_seed = true;
    } else if (a == "--seconds") {
      const uint64_t s = parse_u64(argv[0], v);
      if (s < 1 || s > 600) usage(argv[0], "--seconds must be 1..600");
      cfg.seconds = static_cast<int>(s);
      have_seconds = true;
    } else if (a == "--trace") {
      trace = static_cast<int>(parse_u64(argv[0], v));
      if (trace > 1) usage(argv[0], "--trace must be 0 or 1");
    } else if (a == "--span-out") {
      cfg.span_out = v;
    } else {
      usage(argv[0], ("unknown option " + a).c_str());
    }
  }
  if (!mmbench::known_workload(cfg.workload)) {
    usage(argv[0], "unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || trace < 0) {
    usage(argv[0], "--seed, --seconds and --trace are required");
  }
  cfg.nproc = online_cpus();
  cfg.threads = std::min<size_t>(4, cfg.nproc);

  try {
    const mmbench::Outcome out =
        trace ? mmbench::run_traced(cfg) : mmbench::run_untraced(cfg);
    print_result(cfg, out, trace != 0);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mmbench: %s\n", e.what());
    return 1;
  }
}
