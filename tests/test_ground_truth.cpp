// Ground-truth cross-validation: the Propagator's timing-relationship sets
// must EXACTLY equal what exhaustive path enumeration produces, on
// randomized designs with randomized constraints, for both analysis sides
// and at both endpoint and startpoint granularity.
//
// The enumeration walks every path and resolves its state with the same
// CompiledExceptions matcher, but independently of the tag machinery —
// validating tag deduplication, progress interning, launch-arc gating and
// per-key set accumulation against first principles.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "gen/design_gen.h"
#include "sdc/parser.h"
#include "timing/relationships.h"

namespace mm::timing {
namespace {

struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed + 0x9e3779b97f4a7c15ull) {}
  uint64_t next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t below(size_t n) { return n == 0 ? 0 : next() % n; }
  bool chance(int percent) { return below(100) < static_cast<size_t>(percent); }
};

std::string random_constraints(const gen::DesignParams& dp, Rng& rng) {
  std::ostringstream os;
  os << "create_clock -name K0 -period 6 [get_ports clk0]\n";
  if (dp.num_domains > 1 && rng.chance(70)) {
    os << "create_clock -name K1 -period 9 [get_ports clk1]\n";
  }
  os << "set_case_analysis " << rng.below(2) << " test_mode\n";
  if (dp.scan) os << "set_case_analysis " << rng.below(2) << " scan_en\n";
  for (size_t d = 0; d < dp.num_domains; ++d) {
    if (rng.chance(60)) os << "set_case_analysis 1 en" << d << "\n";
  }
  const size_t gates = dp.num_regs * dp.comb_per_reg;
  for (size_t i = 0, n = 1 + rng.below(5); i < n; ++i) {
    switch (rng.below(6)) {
      case 0:
        os << "set_false_path -through [get_pins g" << rng.below(gates) << "/Z]\n";
        break;
      case 1:
        os << "set_false_path -from [get_pins r" << rng.below(dp.num_regs)
           << "/CP]\n";
        break;
      case 2:
        os << "set_multicycle_path 2 -through [get_pins r"
           << rng.below(dp.num_regs) << "/Q] -to [get_pins r"
           << rng.below(dp.num_regs) << "/D]\n";
        break;
      case 3:
        os << "set_max_delay 3 -to [get_pins r" << rng.below(dp.num_regs)
           << "/D]\n";
        break;
      case 4:
        os << "set_false_path -hold -to [get_pins r" << rng.below(dp.num_regs)
           << "/D]\n";
        break;
      default:
        os << "set_false_path -through [get_pins g" << rng.below(gates)
           << "/Z] -through [get_pins g" << rng.below(gates) << "/Z]\n";
        break;
    }
  }
  if (rng.chance(50)) {
    os << "set_input_delay 1 -clock K0 [get_ports di_*]\n";
    os << "set_output_delay 1 -clock K0 [get_ports do_*]\n";
  }
  return os.str();
}

/// Exhaustive per-path relationship map (states only).
std::map<RelationKey, RelationData> enumerate_ground_truth(const TimingGraph& graph,
                                   const ModeGraph& mode,
                                   const CompiledExceptions& exceptions,
                                   bool track_startpoints) {
  const netlist::Design& d = graph.design();
  std::map<RelationKey, RelationData> truth;

  for (PinId sp : mode.active_startpoints()) {
    // Launch clocks at this startpoint.
    std::vector<sdc::ClockId> launches;
    if (d.pin(sp).is_port()) {
      for (const sdc::PortDelay& pd : mode.sdc().port_delays()) {
        if (pd.is_input && pd.port_pin == sp) {
          bool seen = false;
          for (sdc::ClockId c : launches) seen |= (c == pd.clock);
          if (!seen) launches.push_back(pd.clock);
        }
      }
    } else {
      for (const ClockArrival& ca : mode.clocks_on(sp)) {
        launches.push_back(ca.clock);
      }
    }

    // DFS over enabled arcs; at every endpoint visit, resolve the walked
    // path for every (launch, capture) pair and both sides.
    struct Frame {
      PinId pin;
      size_t next = 0;
    };
    std::vector<Frame> stack{{sp, 0}};
    std::vector<PinId> path{sp};

    auto record = [&](PinId endpoint) {
      for (sdc::ClockId launch : launches) {
        std::vector<uint8_t> progress =
            exceptions.initial_progress(sp, launch);
        for (size_t i = 1; i < path.size(); ++i) {
          if (!progress.empty()) exceptions.advance(progress, path[i]);
        }
        for (const ClockArrival& cap : mode.capture_clocks_at(endpoint)) {
          RelationKey key;
          key.endpoint = endpoint;
          key.startpoint = track_startpoints ? sp : PinId();
          key.launch = launch;
          key.capture = cap.clock;

          const bool excl =
              launch.valid() &&
              (mode.sdc().clocks_exclusive(launch, cap.clock) ||
               mode.sdc().clocks_async(launch, cap.clock));
          const PathState setup =
              excl ? PathState::false_path()
                   : exceptions.resolve(progress, launch, endpoint, cap.clock,
                                        true);
          const PathState hold =
              excl ? PathState::false_path()
                   : exceptions.resolve(progress, launch, endpoint, cap.clock,
                                        false);
          truth[key].states.insert(setup);
          truth[key].hold_states.insert(hold);
        }
      }
    };

    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (graph.is_endpoint(frame.pin) && stack.size() > 1) {
        record(frame.pin);
        stack.pop_back();
        path.pop_back();
        continue;
      }
      const auto& outs = graph.fanout(frame.pin);
      bool has_launch = false;
      for (ArcId aid : outs) {
        if (graph.arc(aid).kind == ArcKind::kLaunch) has_launch = true;
      }
      bool descended = false;
      while (frame.next < outs.size()) {
        const ArcId aid = outs[frame.next++];
        if (!mode.arc_enabled(aid)) continue;
        const Arc& arc = graph.arc(aid);
        if (has_launch && arc.kind != ArcKind::kLaunch) continue;
        path.push_back(arc.to);
        stack.push_back({arc.to, 0});
        descended = true;
        break;
      }
      if (!descended) {
        stack.pop_back();
        path.pop_back();
      }
    }
  }
  return truth;
}

class GroundTruthTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroundTruthTest, PropagatorMatchesPathEnumeration) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  netlist::Library lib = netlist::Library::builtin();
  gen::DesignParams dp;
  dp.num_regs = 15 + rng.below(25);  // small enough to enumerate
  dp.num_domains = 1 + rng.below(2);
  dp.comb_per_reg = 2;
  dp.fanin_span = 4;
  dp.scan = rng.chance(60);
  dp.clock_gates = rng.chance(60);
  dp.seed = seed;
  const netlist::Design design = gen::generate_design(lib, dp);
  const TimingGraph graph(design);

  const std::string text = random_constraints(dp, rng);
  SCOPED_TRACE("seed=" + std::to_string(seed) + "\n" + text);
  const sdc::Sdc sdc = sdc::parse_sdc(text, design);
  const ModeGraph mode(graph, sdc);
  const CompiledExceptions exceptions(graph, sdc);

  for (bool track : {false, true}) {
    Propagator prop(mode, exceptions);
    PropagationOptions opts;
    opts.compute_arrivals = false;
    opts.analyze_hold = true;
    opts.track_startpoints = track;
    prop.run(opts);

    const std::map<RelationKey, RelationData> truth =
        enumerate_ground_truth(graph, mode, exceptions, track);

    EXPECT_EQ(prop.relations().size(), truth.size())
        << "track=" << track;
    for (const auto& [key, data] : truth) {
      const RelationData* found = prop.relations().find(key);
      ASSERT_NE(found, nullptr)
          << "missing key at " << design.pin_name(key.endpoint)
          << " track=" << track;
      EXPECT_EQ(found->states, data.states)
          << design.pin_name(key.endpoint) << " setup track=" << track
          << " prop=" << found->states.str()
          << " truth=" << data.states.str();
      EXPECT_EQ(found->hold_states, data.hold_states)
          << design.pin_name(key.endpoint) << " hold track=" << track;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroundTruthTest,
                         ::testing::Range<uint64_t>(1, 49));

}  // namespace
}  // namespace mm::timing
