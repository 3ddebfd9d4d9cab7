// Merge-policy tests (docs/POLICIES.md): the exact policy stays
// byte-identical across every engine (batch and session) and
// equals a zero-width windowed policy; the windowed policy is monotone in
// its window, takes the worst-case envelope per field, records window
// provenance on its verdicts, and passes the mm.qor/1 never-optimistic
// oracle with pessimism inside MergePolicy::pessimism_bound().

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "gen/paper_circuit.h"
#include "merge/mergeability.h"
#include "merge/merger.h"
#include "merge/policy.h"
#include "merge/preliminary.h"
#include "merge/qor.h"
#include "merge/session.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include "timing/graph.h"
#include "timing/sta.h"

namespace mm::merge {
namespace {

std::vector<std::string> merged_bytes(const MergedModeSet& out) {
  std::vector<std::string> bytes;
  for (const ValidatedMergeResult& m : out.merged) {
    bytes.push_back(sdc::write_sdc(*m.merge.merged));
  }
  return bytes;
}

/// Generated-family fixture: a 60-register two-domain design, with helpers
/// for the 10/64-mode paper-style families and the near-miss policy family
/// (gen/mode_gen.h).
class PolicyFamilyTest : public ::testing::Test {
 protected:
  PolicyFamilyTest() {
    dp_.seed = 11;
    dp_.num_regs = 60;
    dp_.num_domains = 2;
    design_ = std::make_unique<netlist::Design>(gen::generate_design(lib_, dp_));
    graph_ = std::make_unique<timing::TimingGraph>(*design_);
  }

  std::vector<const sdc::Sdc*> family(const gen::ModeFamilyParams& mp) {
    storage_.clear();
    std::vector<const sdc::Sdc*> ptrs;
    for (const gen::GeneratedMode& gm : gen::generate_mode_family(dp_, mp)) {
      storage_.push_back(std::make_unique<sdc::Sdc>(
          sdc::parse_sdc(gm.sdc_text, *design_)));
      ptrs.push_back(storage_.back().get());
    }
    return ptrs;
  }

  static gen::ModeFamilyParams paper(size_t modes, size_t groups) {
    gen::ModeFamilyParams mp;
    mp.seed = 11;
    mp.num_modes = modes;
    mp.target_groups = groups;
    return mp;
  }

  static gen::ModeFamilyParams near_miss(size_t groups, double w, double eps) {
    gen::ModeFamilyParams mp;
    mp.seed = 11;
    mp.num_modes = groups;
    mp.target_groups = groups;
    mp.near_miss_window = w;
    mp.near_miss_epsilon = eps;
    return mp;
  }

  netlist::Library lib_ = netlist::Library::builtin();
  gen::DesignParams dp_;
  std::unique_ptr<netlist::Design> design_;
  std::unique_ptr<timing::TimingGraph> graph_;
  std::vector<std::unique_ptr<sdc::Sdc>> storage_;
};

/// The exact policy is the zero value: zero pessimism bound, and
/// byte-identical output whether it is the default, stated explicitly, or
/// approximated by a zero-width window.
TEST_F(PolicyFamilyTest, ExactEqualsZeroWidthWindowOnPaperFamily) {
  const std::vector<const sdc::Sdc*> ptrs = family(paper(10, 2));

  EXPECT_EQ(MergePolicy().pessimism_bound(), 0.0);

  MergeOptions exact;
  exact.validate = false;
  const MergedModeSet base = merge_mode_set(*graph_, ptrs, exact);
  ASSERT_EQ(base.cliques.size(), 2u);

  MergeOptions zero = exact;
  zero.policy = MergePolicy::uniform(0.0);
  ASSERT_TRUE(zero.policy.windowed());
  const MergedModeSet win = merge_mode_set(*graph_, ptrs, zero);
  EXPECT_EQ(win.cliques, base.cliques);
  EXPECT_EQ(merged_bytes(win), merged_bytes(base));
}

/// Under the exact policy, every engine — flat batch and incremental
/// session — produces the same clique cover and merged bytes on the
/// 10-mode paper family (the policy plumbing must not perturb any path).
TEST_F(PolicyFamilyTest, ExactBytesIdenticalAcrossEngines) {
  const std::vector<const sdc::Sdc*> ptrs = family(paper(10, 2));
  MergeOptions opt;
  opt.validate = false;
  const MergedModeSet base = merge_mode_set(*graph_, ptrs, opt);
  const std::vector<std::string> bytes = merged_bytes(base);

  MergeSession session(*graph_, opt);
  for (size_t i = 0; i < ptrs.size(); ++i) {
    const std::string id = std::to_string(i);
    session.add_mode("m" + id, ptrs[i]);
  }
  const MergeSession::CommitResult& r = session.commit();
  ASSERT_EQ(r.cliques, base.cliques);
  for (size_t i = 0; i < r.merged.size(); ++i) {
    EXPECT_EQ(sdc::write_sdc(*r.merged[i]->merge.merged), bytes[i]) << i;
  }
}

/// Same engine parity at the 64-mode Table-5 scale (8 planted groups).
TEST_F(PolicyFamilyTest, SixtyFourModeExactParity) {
  const std::vector<const sdc::Sdc*> ptrs = family(paper(64, 8));
  MergeOptions opt;
  opt.validate = false;
  const MergedModeSet base = merge_mode_set(*graph_, ptrs, opt);
  ASSERT_EQ(base.cliques.size(), 8u);

  MergeOptions zero = opt;
  zero.policy = MergePolicy::uniform(0.0);
  const MergedModeSet win = merge_mode_set(*graph_, ptrs, zero);
  EXPECT_EQ(win.cliques, base.cliques);
  EXPECT_EQ(merged_bytes(win), merged_bytes(base));

  MergeSession session(*graph_, opt);
  for (size_t i = 0; i < ptrs.size(); ++i) {
    const std::string id = std::to_string(i);
    session.add_mode("m" + id, ptrs[i]);
  }
  const MergeSession::CommitResult& r = session.commit();
  ASSERT_EQ(r.cliques, base.cliques);
  for (size_t i = 0; i < r.merged.size(); ++i) {
    EXPECT_EQ(sdc::write_sdc(*r.merged[i]->merge.merged),
              sdc::write_sdc(*base.merged[i].merge.merged))
        << i;
  }
}

/// Metamorphic window monotonicity: widening the window never removes a
/// mergeability edge and never grows the clique cover. On the 6-group
/// near-miss family the cover walks 6 -> 3 -> 1 as the window passes each
/// boundary, and every intermediate count is non-increasing.
TEST_F(PolicyFamilyTest, WindowMonotonicity) {
  const std::vector<const sdc::Sdc*> ptrs = family(near_miss(6, 0.2, 0.05));
  const double windows[] = {0.0, 0.1, 0.2, 0.45, 1.0};

  std::vector<std::vector<bool>> prev_edges;
  size_t prev_cover = ptrs.size() + 1;
  for (const double w : windows) {
    MergeOptions opt;
    opt.policy = MergePolicy::uniform(w);
    MergeContext ctx(opt);
    MergeabilityGraph g(ptrs, ctx);
    std::vector<std::vector<bool>> edges(ptrs.size(),
                                         std::vector<bool>(ptrs.size()));
    for (size_t i = 0; i < ptrs.size(); ++i) {
      for (size_t j = i + 1; j < ptrs.size(); ++j) {
        edges[i][j] = g.edge(i, j);
        if (!prev_edges.empty()) {
          // Monotone: an edge present at the smaller window survives.
          EXPECT_LE(prev_edges[i][j], edges[i][j])
              << "window " << w << " lost edge (" << i << "," << j << ")";
        }
      }
    }
    const size_t cover = g.clique_cover().size();
    EXPECT_LE(cover, prev_cover) << "window " << w;
    prev_edges = std::move(edges);
    prev_cover = cover;
  }
  EXPECT_EQ(prev_cover, 1u);  // the widest window merges everything

  MergeOptions tight;
  tight.policy = MergePolicy::uniform(0.1);
  MergeContext tight_ctx(tight);
  EXPECT_EQ(MergeabilityGraph(ptrs, tight_ctx).clique_cover().size(), 6u);
  MergeOptions at_boundary;
  at_boundary.policy = MergePolicy::uniform(0.2);
  MergeContext boundary_ctx(at_boundary);
  EXPECT_EQ(MergeabilityGraph(ptrs, boundary_ctx).clique_cover().size(), 3u);
}

/// The windowed merge of the near-miss family passes the QoR oracle: never
/// optimistic, pessimism within the policy bound, serialized as mm.qor/1.
TEST_F(PolicyFamilyTest, NearMissQoRNeverOptimisticAndBounded) {
  const std::vector<const sdc::Sdc*> ptrs = family(near_miss(6, 0.2, 0.05));
  MergeOptions opt;
  opt.validate = false;
  opt.policy = MergePolicy::uniform(0.2);
  const MergedModeSet out = merge_mode_set(*graph_, ptrs, opt);
  ASSERT_EQ(out.cliques.size(), 3u);

  const QoRReport qor = qor_report(*graph_, ptrs, out, opt);
  EXPECT_EQ(qor.policy, "windowed");
  EXPECT_EQ(qor.cliques.size(), 3u);  // every clique here is a pair
  EXPECT_GT(qor.endpoints_compared, 0u);
  EXPECT_TRUE(qor.never_optimistic());
  EXPECT_LE(qor.max_pessimism, opt.policy.pessimism_bound() + qor.slack_eps);

  const std::string json = write_qor_json(qor);
  EXPECT_NE(json.find("\"schema\":\"mm.qor/1\""), std::string::npos);
  EXPECT_NE(json.find("\"never_optimistic\":true"), std::string::npos);
}

/// qor_report fans one run_sta per deck over its pool: the report must not
/// depend on the thread count, and must equal the deltas computed by hand
/// from serial per-deck run_sta calls.
TEST_F(PolicyFamilyTest, QoRFanOutMatchesSerialPerDeckSta) {
  struct Family {
    gen::ModeFamilyParams params;
    MergePolicy policy;
  };
  for (const Family& f : {Family{paper(12, 3), MergePolicy::exact()},
                          Family{near_miss(8, 0.2, 0.05),
                                 MergePolicy::uniform(0.2)}}) {
    const std::vector<const sdc::Sdc*> ptrs = family(f.params);
    MergeOptions opt;
    opt.validate = false;
    opt.policy = f.policy;
    const MergedModeSet out = merge_mode_set(*graph_, ptrs, opt);

    opt.num_threads = 1;
    const QoRReport one = qor_report(*graph_, ptrs, out, opt);
    opt.num_threads = 4;
    const QoRReport four = qor_report(*graph_, ptrs, out, opt);
    ASSERT_GE(one.cliques.size(), 2u);
    ASSERT_EQ(one.cliques.size(), four.cliques.size());
    for (size_t i = 0; i < one.cliques.size(); ++i) {
      const CliqueQoR& a = one.cliques[i];
      const CliqueQoR& b = four.cliques[i];
      EXPECT_EQ(a.clique_index, b.clique_index);
      EXPECT_EQ(a.num_members, b.num_members);
      EXPECT_EQ(a.endpoints_compared, b.endpoints_compared);
      EXPECT_EQ(a.missing_endpoints, b.missing_endpoints);
      EXPECT_EQ(a.optimism_violations, b.optimism_violations);
      EXPECT_EQ(a.max_pessimism, b.max_pessimism);
      EXPECT_EQ(a.mean_pessimism, b.mean_pessimism);
    }
    EXPECT_EQ(one.endpoints_compared, four.endpoints_compared);
    EXPECT_EQ(one.max_pessimism, four.max_pessimism);
    EXPECT_EQ(one.mean_pessimism, four.mean_pessimism);

    // By hand: worst member slack vs the merged deck's slack per endpoint.
    size_t compared = 0;
    double max_pessimism = 0.0;
    double pessimism_sum = 0.0;
    for (const CliqueQoR& q : one.cliques) {
      const std::vector<size_t>& clique = out.cliques[q.clique_index];
      std::map<uint32_t, float> worst;
      for (size_t m : clique) {
        for (const auto& [ep, slack] :
             timing::run_sta(*graph_, *ptrs[m]).endpoint_slack) {
          auto [it, inserted] = worst.emplace(ep, slack);
          if (!inserted) it->second = std::min(it->second, slack);
        }
      }
      const timing::StaResult merged = timing::run_sta(
          *graph_, *out.merged[q.clique_index].merge.merged);
      size_t clique_compared = 0;
      size_t missing = 0;
      double clique_max = 0.0;
      double clique_sum = 0.0;
      for (const auto& [ep, individual] : worst) {
        const auto it = merged.endpoint_slack.find(ep);
        if (it == merged.endpoint_slack.end()) {
          ++missing;
          continue;
        }
        ++clique_compared;
        const double delta =
            static_cast<double>(individual) - static_cast<double>(it->second);
        if (delta > 0.0) {
          clique_max = std::max(clique_max, delta);
          clique_sum += delta;
        }
      }
      EXPECT_EQ(q.num_members, clique.size());
      EXPECT_EQ(q.endpoints_compared, clique_compared);
      EXPECT_EQ(q.missing_endpoints, missing);
      EXPECT_EQ(q.max_pessimism, clique_max);
      if (clique_compared > 0) {
        EXPECT_DOUBLE_EQ(q.mean_pessimism,
                         clique_sum / static_cast<double>(clique_compared));
      }
      compared += clique_compared;
      max_pessimism = std::max(max_pessimism, clique_max);
      pessimism_sum += clique_sum;
    }
    EXPECT_EQ(one.endpoints_compared, compared);
    EXPECT_GT(compared, 0u);
    EXPECT_EQ(one.max_pessimism, max_pessimism);
    EXPECT_DOUBLE_EQ(one.mean_pessimism,
                     pessimism_sum / static_cast<double>(compared));
  }
}

/// Hand-built decks on the paper circuit: per-field envelope + provenance.
class PolicyEnvelopeTest : public ::testing::Test {
 protected:
  sdc::Sdc parse(const std::string& text) {
    return sdc::parse_sdc(text, design_);
  }

  static MergeOptions windowed(double w) {
    MergeOptions opt;
    opt.policy = MergePolicy::uniform(w);
    return opt;
  }

  netlist::Library lib_ = netlist::Library::builtin();
  netlist::Design design_ = gen::paper_circuit(lib_);
  const std::string clock_ = "create_clock -name c -period 10 [get_ports clk1]\n";
};

TEST_F(PolicyEnvelopeTest, LatencyEnvelopeKeepsSpanEdges) {
  sdc::Sdc a = parse(clock_ + "set_clock_latency 1.0 [get_clocks c]\n");
  sdc::Sdc b = parse(clock_ + "set_clock_latency 1.2 [get_clocks c]\n");

  // Exact: 0.2 apart is a conflict. Windowed 0.3: accepted with provenance.
  EXPECT_FALSE(check_mergeable(a, b, MergeOptions{}).mergeable);
  const PairVerdict v = check_mergeable(a, b, windowed(0.3));
  ASSERT_TRUE(v.mergeable) << v.reason;
  EXPECT_EQ(v.policy, "windowed");
  EXPECT_EQ(v.window_field, "clock_latency");
  EXPECT_NEAR(v.window_used, 0.2, 1e-9);
  EXPECT_DOUBLE_EQ(v.window_budget, 0.3);

  // Merged deck: worst-case envelope — max flavour at the max over modes,
  // min flavour at the min (a plain set_clock_latency carries both flags).
  const MergeResult r = preliminary_merge({&a, &b}, windowed(0.3));
  ASSERT_EQ(r.merged->clock_latencies().size(), 2u);
  for (const sdc::ClockLatency& lat : r.merged->clock_latencies()) {
    EXPECT_DOUBLE_EQ(lat.value, lat.minmax.max ? 1.2 : 1.0);
  }
}

TEST_F(PolicyEnvelopeTest, UncertaintyEnvelopeKeepsMax) {
  sdc::Sdc a =
      parse(clock_ + "set_clock_uncertainty -setup 0.30 [get_clocks c]\n");
  sdc::Sdc b =
      parse(clock_ + "set_clock_uncertainty -setup 0.45 [get_clocks c]\n");

  EXPECT_FALSE(check_mergeable(a, b, MergeOptions{}).mergeable);
  const PairVerdict v = check_mergeable(a, b, windowed(0.3));
  ASSERT_TRUE(v.mergeable) << v.reason;
  EXPECT_EQ(v.window_field, "clock_uncertainty");
  EXPECT_NEAR(v.window_used, 0.15, 1e-9);

  const MergeResult r = preliminary_merge({&a, &b}, windowed(0.3));
  ASSERT_EQ(r.merged->clock_uncertainties().size(), 1u);
  EXPECT_DOUBLE_EQ(r.merged->clock_uncertainties()[0].value, 0.45);
}

TEST_F(PolicyEnvelopeTest, TransitionEnvelopeKeepsSpanEdges) {
  sdc::Sdc a = parse(clock_ + "set_clock_transition 0.10 [get_clocks c]\n");
  sdc::Sdc b = parse(clock_ + "set_clock_transition 0.18 [get_clocks c]\n");

  EXPECT_FALSE(check_mergeable(a, b, MergeOptions{}).mergeable);
  const PairVerdict v = check_mergeable(a, b, windowed(0.3));
  ASSERT_TRUE(v.mergeable) << v.reason;
  EXPECT_EQ(v.window_field, "clock_transition");

  const MergeResult r = preliminary_merge({&a, &b}, windowed(0.3));
  ASSERT_EQ(r.merged->clock_transitions().size(), 2u);
  for (const sdc::ClockTransition& tr : r.merged->clock_transitions()) {
    EXPECT_DOUBLE_EQ(tr.value, tr.minmax.max ? 0.18 : 0.10);
  }
}

TEST_F(PolicyEnvelopeTest, DriveLoadWindowKeepsWorst) {
  sdc::Sdc a = parse(
      "set_input_transition 0.30 [get_ports in1]\n"
      "set_load 2.0 [get_ports out1]\n");
  sdc::Sdc b = parse(
      "set_input_transition 0.55 [get_ports in1]\n"
      "set_load 2.25 [get_ports out1]\n");

  // Exact drops both (out of tolerance); the window keeps the worst value.
  const MergeResult exact = preliminary_merge({&a, &b}, MergeOptions{});
  EXPECT_TRUE(exact.merged->drives().empty());
  EXPECT_TRUE(exact.merged->loads().empty());
  EXPECT_EQ(exact.stats.drive_load_dropped, 2u);

  const MergeResult win = preliminary_merge({&a, &b}, windowed(0.3));
  ASSERT_EQ(win.merged->drives().size(), 1u);
  EXPECT_DOUBLE_EQ(win.merged->drives()[0].value, 0.55);
  ASSERT_EQ(win.merged->loads().size(), 1u);
  EXPECT_DOUBLE_EQ(win.merged->loads()[0].value, 2.25);

  const PairVerdict v = check_mergeable(a, b, windowed(0.3));
  ASSERT_TRUE(v.mergeable) << v.reason;
  EXPECT_TRUE(v.window_field == "drive" || v.window_field == "load")
      << v.window_field;
}

TEST_F(PolicyEnvelopeTest, ExactVerdictCarriesExactProvenance) {
  sdc::Sdc a = parse(clock_);
  sdc::Sdc b = parse(clock_);
  const PairVerdict v = check_mergeable(a, b, MergeOptions{});
  ASSERT_TRUE(v.mergeable);
  EXPECT_EQ(v.policy, "exact");
  EXPECT_TRUE(v.window_field.empty());
  EXPECT_DOUBLE_EQ(v.window_used, 0.0);
  EXPECT_DOUBLE_EQ(v.window_budget, 0.0);
}

/// A disagreement past the window is still a conflict — and the verdict
/// says which policy rejected it.
TEST_F(PolicyEnvelopeTest, PastWindowStaysConflict) {
  sdc::Sdc a =
      parse(clock_ + "set_clock_uncertainty -setup 0.30 [get_clocks c]\n");
  sdc::Sdc b =
      parse(clock_ + "set_clock_uncertainty -setup 0.75 [get_clocks c]\n");
  const PairVerdict v = check_mergeable(a, b, windowed(0.3));
  EXPECT_FALSE(v.mergeable);
  EXPECT_EQ(v.policy, "windowed");
}

}  // namespace
}  // namespace mm::merge
