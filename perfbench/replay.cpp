// The traced run (--trace 1): the same work as the untraced run, replayed
// one public layer call at a time so each layer's self time and work counts
// can be read off. Each replayed operation is paired with the real,
// untraced operation on the same inputs; every replayed clique's merged
// bytes must equal the real path's, or the replay would be measuring a
// different program.
//
// Layer calls replayed, in the order MergeSession / McmmSession::commit()
// makes them: MergeContext::relationships (and RelationshipCache::get_corner
// for MCMM corner fills), check_mergeable*, MergeabilityGraph::clique_cover,
// then per dirty clique preliminary_merge, RefineContext (the per-member
// ModeGraph builds), refine_clock_network, refine_data_network,
// check_equivalence and write_sdc.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "merge/clock_refine.h"
#include "merge/data_refine.h"
#include "merge/equivalence.h"
#include "merge/mcmm_session.h"
#include "merge/merger.h"
#include "merge/preliminary.h"
#include "merge/refine_context.h"
#include "obs/metrics.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include "trace.h"
#include "util/timer.h"

namespace mmbench {

namespace {

using mm::Stopwatch;
using mm::merge::McmmSession;
using mm::merge::MergeContext;
using mm::merge::ModeRelationships;
using mm::merge::PairVerdict;
using mm::sdc::Sdc;
using Scope = Tracer::Scope;
using Rels = std::shared_ptr<const ModeRelationships>;

/// Work counts of one replayed operation.
struct OpCounts {
  double keys_compared = 0;
  double mode_graph_builds = 0;
  double propagations = 0;
  double decks_merged = 0;  // member decks + merged decks of merged cliques
  double extractions = 0;
  double delta_fills = 0;
  double pairs_checked = 0;
  double cliques_merged = 0;
};

uint64_t propagation_counter() {
  auto& reg = mm::obs::MetricsRegistry::global();
  return reg.counter("timing/propagations").value() +
         reg.counter("sta/batch_propagations").value();
}

/// Cache counters of a context, for per-operation deltas.
struct CacheMark {
  explicit CacheMark(MergeContext& ctx) : ctx_(ctx) {
    const auto s = ctx.cache().stats();
    misses_ = s.misses;
    fills_ = s.delta_fills;
  }
  void add_to(OpCounts& c) const {
    const auto s = ctx_.cache().stats();
    c.delta_fills += static_cast<double>(s.delta_fills - fills_);
    c.extractions += static_cast<double>((s.misses - misses_) -
                                         (s.delta_fills - fills_));
  }

 private:
  MergeContext& ctx_;
  uint64_t misses_ = 0;
  uint64_t fills_ = 0;
};

struct CliqueReplay {
  std::string bytes;
  bool signoff_safe = true;
};

/// merge_modes(), one layer call at a time.
CliqueReplay replay_clique(Tracer& tr, const mm::timing::TimingGraph& graph,
                           const std::vector<const Sdc*>& members,
                           MergeContext& ctx, OpCounts& counts) {
  Scope clique(tr, "clique");
  const mm::merge::MergeOptions& o = ctx.options();
  mm::merge::MergeResult r;
  {
    Scope s(tr, "merge.preliminary");
    r = mm::merge::preliminary_merge(members, ctx);
  }
  CliqueReplay out;
  if (o.run_refinement) {
    std::optional<mm::merge::RefineContext> rc;
    {
      Scope s(tr, "timing.mode_graph");
      rc.emplace(graph, members, ctx);
    }
    counts.mode_graph_builds += static_cast<double>(members.size());
    {
      Scope s(tr, "merge.clock_refine");
      mm::merge::refine_clock_network(*rc, r, o);
    }
    {
      Scope s(tr, "merge.data_refine");
      mm::merge::refine_data_network(*rc, r, o);
    }
    if (o.validate) {
      Scope s(tr, "merge.equivalence");
      const mm::merge::EquivalenceReport eq = mm::merge::check_equivalence(
          *rc, *r.merged, r.clock_map, /*startpoint_level=*/false,
          o.num_threads, o.use_batched_sta);
      counts.keys_compared += static_cast<double>(eq.keys_compared);
      out.signoff_safe = eq.signoff_safe();
    }
  }
  {
    Scope s(tr, "sdc.write");
    out.bytes = mm::sdc::write_sdc(*r.merged);
  }
  counts.cliques_merged += 1;
  counts.decks_merged += static_cast<double>(members.size() + 1);
  return out;
}

/// The session's pair re-check: verdicts for `pairs`, fanned over the pool
/// with the session's grain.
std::vector<PairVerdict> check_pairs(
    Tracer& tr, MergeContext& ctx, const std::vector<Rels>& rels,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    OpCounts& counts) {
  Scope s(tr, "merge.mergeability");
  std::vector<PairVerdict> out(pairs.size());
  ctx.pool().parallel_for(pairs.size(), /*min_grain=*/16, [&](size_t p) {
    out[p] = mm::merge::check_mergeable(*rels[pairs[p].first],
                                        *rels[pairs[p].second], ctx.options());
  });
  counts.pairs_checked += static_cast<double>(pairs.size());
  return out;
}

/// Greedy clique cover over a full verdict matrix, as commit() builds it.
std::vector<std::vector<size_t>> cover(Tracer& tr, size_t n,
                                       const std::vector<PairVerdict>& v) {
  Scope s(tr, "merge.cover");
  std::vector<uint8_t> adj(n * n, 0);
  std::vector<std::string> reasons(n * n);
  for (size_t i = 0; i < n; ++i) adj[i * n + i] = 1;
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const PairVerdict& pv = v[i * n + j];
      adj[i * n + j] = adj[j * n + i] = pv.mergeable ? 1 : 0;
      if (!pv.mergeable) reasons[i * n + j] = reasons[j * n + i] = pv.reason;
    }
  }
  return mm::merge::MergeabilityGraph(n, std::move(adj), std::move(reasons))
      .clique_cover();
}

std::vector<std::pair<uint32_t, uint32_t>> all_pairs(size_t n) {
  std::vector<std::pair<uint32_t, uint32_t>> p;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) p.emplace_back(i, j);
  }
  return p;
}

/// What the traced run collects besides spans.
struct Collector {
  std::vector<OpCounts> counts;     // per replayed "merge" operation
  std::vector<double> real_ms;      // paired real (untraced) operation
  std::vector<double> replay_ms;    // the replayed operation's wall time
  double real_cpu_s = 0.0;
  double real_wall_s = 0.0;
  uint64_t mismatches = 0;          // replayed cliques whose bytes differ
  uint64_t cliques_compared = 0;

  /// Time one real operation, for overhead and pool utilization.
  template <typename Fn>
  void real(Fn&& fn) {
    const double cpu0 = cpu_seconds();
    Stopwatch t;
    fn();
    const double wall = t.elapsed_seconds();
    real_cpu_s += cpu_seconds() - cpu0;
    real_wall_s += wall;
    real_ms.push_back(wall * 1e3);
  }
  void compare(const std::string& replayed, const std::string& real_bytes) {
    ++cliques_compared;
    if (replayed != real_bytes) ++mismatches;
  }
};

/// One replayed operation: a root span plus its counters.
class ReplayOp {
 public:
  ReplayOp(Tracer& tr, Collector& col) : col_(col), prop0_(propagation_counter()) {
    tr.begin_op("merge");
    root_.emplace(tr, "op");
  }
  ~ReplayOp() {
    root_.reset();
    counts.propagations =
        static_cast<double>(propagation_counter() - prop0_);
    col_.replay_ms.push_back(timer_.elapsed_ms());
    col_.counts.push_back(counts);
  }
  ReplayOp(const ReplayOp&) = delete;
  ReplayOp& operator=(const ReplayOp&) = delete;

  OpCounts counts;

 private:
  Collector& col_;
  uint64_t prop0_;
  Stopwatch timer_;
  std::optional<Scope> root_;
};

void replay_table5(const Config& cfg, const Plan& plan, const Inputs& in,
                   const std::vector<Loaded>& loaded, Tracer& tr,
                   Collector& col, Outcome& out) {
  const mm::merge::MergeOptions opts = merge_options(cfg);
  for (size_t pass = 0; pass < plan.traced_ops; ++pass) {
    std::vector<std::vector<std::string>> real_bytes(in.designs.size());
    std::vector<std::vector<std::vector<size_t>>> real_cliques(
        in.designs.size());
    col.real([&] {
      for (size_t d = 0; d < in.designs.size(); ++d) {
        MergeContext ctx(opts);
        const mm::merge::MergedModeSet r = mm::merge::merge_mode_set(
            *loaded[d].graph, loaded[d].corner_decks(0), ctx);
        real_cliques[d] = r.cliques;
        for (const auto& m : r.merged) {
          real_bytes[d].push_back(mm::sdc::write_sdc(*m.merge.merged));
        }
      }
    });
    bool ok = true;
    ReplayOp op(tr, col);
    for (size_t d = 0; d < in.designs.size(); ++d) {
      Scope design(tr, "design");
      const std::vector<const Sdc*> modes = loaded[d].corner_decks(0);
      const size_t n = modes.size();
      MergeContext ctx(opts);
      const CacheMark mark(ctx);
      std::vector<Rels> rels(n);
      {
        Scope s(tr, "merge.relationships");
        ctx.pool().parallel_for(
            n, [&](size_t k) { rels[k] = ctx.relationships(*modes[k]); });
      }
      const auto pairs = all_pairs(n);
      const std::vector<PairVerdict> fresh =
          check_pairs(tr, ctx, rels, pairs, op.counts);
      std::vector<PairVerdict> matrix(n * n);
      for (size_t p = 0; p < pairs.size(); ++p) {
        matrix[pairs[p].first * n + pairs[p].second] = fresh[p];
      }
      const auto cliques = cover(tr, n, matrix);
      ok = ok && cliques == real_cliques[d] &&
           cover_matches_groups(cliques, in.designs[d].groups);
      for (size_t k = 0; k < cliques.size(); ++k) {
        std::vector<const Sdc*> members;
        for (size_t m : cliques[k]) members.push_back(modes[m]);
        const CliqueReplay c =
            replay_clique(tr, *loaded[d].graph, members, ctx, op.counts);
        ok = ok && c.signoff_safe;
        col.compare(c.bytes, k < real_bytes[d].size() ? real_bytes[d][k] : "");
      }
      mark.add_to(op.counts);
    }
    out.op(ok);
  }
}

void replay_mcmm(const Config& cfg, const Plan& plan, const Inputs& in,
                 const std::vector<Loaded>& loaded, Tracer& tr, Collector& col,
                 Outcome& out) {
  const DesignText& text = in.designs[0];
  const Loaded& l = loaded[0];
  const size_t n = l.decks.size();
  const size_t num_corners = text.corner_names.size();
  const mm::merge::MergeOptions opts = merge_options(cfg);
  for (size_t rep = 0; rep < plan.traced_ops; ++rep) {
    std::vector<std::vector<std::string>> real_bytes(num_corners);
    std::vector<std::vector<size_t>> real_cliques;
    col.real([&] {
      McmmSession session(*l.graph, mm::merge::CornerSet(text.corner_names),
                          opts);
      for (size_t m = 0; m < n; ++m) {
        std::vector<const Sdc*> decks;
        for (const auto& d : l.decks[m]) decks.push_back(d.get());
        session.add_mode(text.mode_names[m], std::move(decks));
      }
      const McmmSession::CommitResult& r = session.commit();
      real_cliques = r.cliques;
      for (size_t c = 0; c < num_corners; ++c) {
        for (const auto& m : r.merged[c]) {
          real_bytes[c].push_back(mm::sdc::write_sdc(*m->merge.merged));
        }
      }
    });

    bool ok = true;
    ReplayOp op(tr, col);
    MergeContext ctx(opts);
    const CacheMark mark(ctx);
    // rels[m][c]: skeleton extraction on corner 0, value fills elsewhere.
    std::vector<std::vector<Rels>> rels(n, std::vector<Rels>(num_corners));
    {
      Scope s(tr, "merge.relationships");
      ctx.pool().parallel_for(n, [&](size_t m) {
        rels[m][0] = ctx.relationships(*l.decks[m][0]);
      });
      ctx.pool().parallel_for(n * (num_corners - 1), [&](size_t k) {
        const size_t m = k / (num_corners - 1);
        const size_t c = 1 + k % (num_corners - 1);
        rels[m][c] = ctx.cache().get_corner(*l.decks[m][c], *rels[m][0]);
      });
    }
    // Every pair through the MCMM accept rule, as commit() checks it.
    std::vector<std::vector<const ModeRelationships*>> rows(n);
    for (size_t m = 0; m < n; ++m) {
      for (const Rels& r : rels[m]) rows[m].push_back(r.get());
    }
    const mm::merge::CornerSet corners(text.corner_names);
    const auto pairs = all_pairs(n);
    std::vector<PairVerdict> combined(pairs.size());
    {
      Scope s(tr, "merge.mergeability");
      ctx.pool().parallel_for(pairs.size(), /*min_grain=*/16, [&](size_t p) {
        combined[p] = mm::merge::check_mergeable_corners(
            rows[pairs[p].first], rows[pairs[p].second], corners, opts);
      });
    }
    for (const PairVerdict& v : combined) {
      op.counts.pairs_checked += v.corners_checked;
    }
    std::vector<PairVerdict> matrix(n * n);
    for (size_t p = 0; p < pairs.size(); ++p) {
      matrix[pairs[p].first * n + pairs[p].second] = combined[p];
    }
    const auto cliques = cover(tr, n, matrix);
    ok = cliques == real_cliques && cover_matches_groups(cliques, text.groups);
    for (size_t c = 0; ok && c < num_corners; ++c) {
      for (size_t k = 0; k < cliques.size(); ++k) {
        std::vector<const Sdc*> members;
        for (size_t m : cliques[k]) members.push_back(l.decks[m][c].get());
        const CliqueReplay r =
            replay_clique(tr, *l.graph, members, ctx, op.counts);
        ok = ok && r.signoff_safe;
        col.compare(r.bytes, real_bytes[c][k]);
      }
    }
    mark.add_to(op.counts);
    out.op(ok);
  }
}

/// Median over operations of one OpCounts field.
template <typename Field>
double median_of(const std::vector<OpCounts>& v, Field f) {
  std::vector<double> xs;
  for (const OpCounts& c : v) xs.push_back(c.*f);
  return median(xs);
}

}  // namespace

Outcome run_traced(const Config& cfg) {
  const Plan plan = plan_for(cfg);
  const Inputs in = make_inputs(cfg.workload, cfg.seed, plan.edit_rounds);
  Outcome out;
  Tracer tr;

  std::vector<Loaded> loaded;
  for (size_t i = 0; i < plan.traced_loads; ++i) {
    loaded.clear();
    tr.begin_op("setup");
    Scope root(tr, "op");
    for (const DesignText& d : in.designs) loaded.push_back(load(d, &tr));
  }
  uint64_t bytes = 0;
  for (const DesignText& d : in.designs) bytes += sdc_bytes(d);

  Collector col;
  if (cfg.workload == "table5") {
    replay_table5(cfg, plan, in, loaded, tr, col, out);
  } else {
    replay_mcmm(cfg, plan, in, loaded, tr, col, out);
  }
  // Byte parity between replay and real path: one check per clique.
  for (uint64_t i = 0; i < col.cliques_compared; ++i) {
    out.op(i >= col.mismatches);
  }

  const auto setup = tr.self_by_op("setup");
  const auto merge = tr.self_by_op("merge");
  auto layer = [](const std::map<std::string, std::vector<double>>& m,
                  const char* name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : median(it->second);
  };
  out.add("netlist.read_verilog_s", layer(setup, "netlist.read_verilog"), "s");
  out.add("timing.graph_build_s", layer(setup, "timing.graph_build"), "s");
  out.add("sdc.parse_s", layer(setup, "sdc.parse"), "s");
  out.add("sdc.bytes_parsed", static_cast<double>(bytes), "bytes");
  out.add("merge.relationships_s", layer(merge, "merge.relationships"), "s");
  out.add("merge.mergeability_s", layer(merge, "merge.mergeability"), "s");
  out.add("merge.cover_s", layer(merge, "merge.cover"), "s");
  out.add("merge.preliminary_s", layer(merge, "merge.preliminary"), "s");
  out.add("timing.mode_graph_s", layer(merge, "timing.mode_graph"), "s");
  out.add("merge.clock_refine_s", layer(merge, "merge.clock_refine"), "s");
  out.add("merge.data_refine_s", layer(merge, "merge.data_refine"), "s");
  out.add("merge.equivalence_s", layer(merge, "merge.equivalence"), "s");
  out.add("sdc.write_s", layer(merge, "sdc.write"), "s");

  const auto& c = col.counts;
  out.add("merge.keys_compared", median_of(c, &OpCounts::keys_compared),
          "count");
  out.add("timing.mode_graph_builds",
          median_of(c, &OpCounts::mode_graph_builds), "count");
  out.add("timing.propagations", median_of(c, &OpCounts::propagations),
          "count");
  std::vector<double> per_deck;
  for (const OpCounts& k : c) {
    per_deck.push_back(k.decks_merged > 0 ? k.propagations / k.decks_merged
                                          : 0.0);
  }
  out.add("timing.propagations_per_deck", median(per_deck), "ratio");
  out.add("merge.relationship_extractions",
          median_of(c, &OpCounts::extractions), "count");
  out.add("merge.delta_fills", median_of(c, &OpCounts::delta_fills), "count");
  out.add("merge.pairs_checked", median_of(c, &OpCounts::pairs_checked),
          "count");
  out.add("merge.cliques_merged", median_of(c, &OpCounts::cliques_merged),
          "count");

  // Session self time: the real operation's wall time minus the self time
  // of the layer spans that replayed it.
  std::vector<double> session_self;
  for (size_t k = 0; k < col.real_ms.size(); ++k) {
    double layers_s = 0.0;
    for (const auto& [name, per_op] : merge) {
      if (name.find('.') != std::string::npos) layers_s += per_op[k];
    }
    session_self.push_back(col.real_ms[k] - layers_s * 1e3);
  }
  out.add("merge.session_self_ms", median(session_self), "ms");
  out.add("pool.cpu_per_wall",
          col.real_wall_s > 0 ? col.real_cpu_s / col.real_wall_s : 0.0,
          "ratio");
  double real_total = 0.0, replay_total = 0.0;
  for (double x : col.real_ms) real_total += x;
  for (double x : col.replay_ms) replay_total += x;
  out.add("trace.overhead_pct",
          real_total > 0 ? 100.0 * (replay_total - real_total) / real_total
                         : 0.0,
          "%");

  out.note("traced_ops", std::to_string(col.real_ms.size()));
  out.note("cliques_compared", std::to_string(col.cliques_compared));
  out.note("byte_mismatches", std::to_string(col.mismatches));
  if (!cfg.span_out.empty()) {
    std::ofstream f(cfg.span_out);
    f << tr.to_json();
    if (!f) {
      throw std::runtime_error("cannot write span file " + cfg.span_out);
    }
    out.note("span_file", cfg.span_out);
  }
  return out;
}

}  // namespace mmbench
