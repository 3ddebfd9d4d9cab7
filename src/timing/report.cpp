#include "timing/report.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <set>
#include <sstream>

#include "timing/delay_calc.h"

namespace mm::timing {

namespace {

/// Backward path traceback: from an endpoint tag, greedily follow the
/// fan-in arc whose source carries a same-launch tag with matching arrival
/// (amax - arc delay). Exception-progress ambiguity can in rare
/// reconvergent cases pick a sibling path with identical delay — acceptable
/// for a report.
std::vector<std::pair<PinId, double>> trace_path(
    const TimingGraph& graph, const ModeGraph& mode, const Propagator& prop,
    const std::vector<double>& arc_delay, PinId endpoint,
    const Tag& end_tag, bool use_max) {
  std::vector<std::pair<PinId, double>> points;  // (pin, arrival) reversed
  PinId pin = endpoint;
  double arrival = use_max ? end_tag.amax : end_tag.amin;
  const sdc::ClockId launch = end_tag.launch;
  constexpr double kEps = 1e-4;

  points.emplace_back(pin, arrival);
  while (true) {
    bool stepped = false;
    for (ArcId aid : graph.fanin(pin)) {
      if (!mode.arc_enabled(aid)) continue;
      const Arc& arc = graph.arc(aid);
      const double delay = arc_delay[aid.index()];
      for (const Tag& tag : prop.tags(arc.from)) {
        if (tag.launch != launch) continue;
        const double src = use_max ? tag.amax : tag.amin;
        if (std::fabs(src + delay - arrival) < kEps) {
          pin = arc.from;
          arrival = src;
          points.emplace_back(pin, arrival);
          stepped = true;
          break;
        }
      }
      if (stepped) break;
    }
    if (!stepped) break;
  }
  std::reverse(points.begin(), points.end());
  return points;
}

std::string cell_of(const netlist::Design& d, PinId pin) {
  const netlist::Pin& p = d.pin(pin);
  if (p.is_port()) return "port";
  return d.cell_of_pin(pin).name();
}

}  // namespace

std::string report_timing(const TimingGraph& graph, const Sdc& sdc,
                          const ReportTimingOptions& options) {
  const netlist::Design& d = graph.design();
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);

  ModeGraph mode(graph, sdc);
  const DelayCalcResult delays = compute_delays(graph, sdc);
  CompiledExceptions exceptions(graph, sdc);
  Propagator prop(mode, exceptions);
  PropagationOptions popts;
  popts.compute_arrivals = true;
  popts.analyze_hold = options.hold;
  popts.arc_delays = &delays.arc_delay;
  prop.run(popts);

  // Rank relation keys by slack on the requested side.
  struct Worst {
    RelationKey key;
    float slack;
    float arrival;
  };
  std::vector<Worst> ranked;
  for (const auto& [key, data] : prop.relations()) {
    const float slack = options.hold ? data.worst_hold_slack : data.worst_slack;
    if (slack >= 1e29f) continue;
    ranked.push_back({key, slack, data.worst_arrival});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Worst& a, const Worst& b) { return a.slack < b.slack; });

  os << (options.hold ? "Hold" : "Setup") << " timing report — "
     << ranked.size() << " timed relation(s), showing worst "
     << std::min(options.max_paths, ranked.size()) << "\n";

  size_t shown = 0;
  std::set<uint32_t> seen_endpoints;
  for (const Worst& w : ranked) {
    if (shown >= options.max_paths) break;
    if (!seen_endpoints.insert(w.key.endpoint.value()).second) continue;
    ++shown;

    os << "\nEndpoint: " << d.pin_name(w.key.endpoint) << " ("
       << cell_of(d, w.key.endpoint) << ")\n";
    if (w.key.launch.valid())
      os << "Launch clock: " << sdc.clock(w.key.launch).name << "\n";
    if (w.key.capture.valid())
      os << "Capture clock: " << sdc.clock(w.key.capture).name << "\n";

    // Find the worst *timed* tag at the endpoint for this key's launch
    // clock (false-pathed tags can carry larger arrivals but are excluded
    // from analysis and must not be traced).
    const Tag* worst_tag = nullptr;
    for (const Tag& tag : prop.tags(w.key.endpoint)) {
      if (tag.launch != w.key.launch) continue;
      const PathState state = exceptions.resolve(
          prop.progress_table().get(tag.progress), tag.launch, w.key.endpoint,
          w.key.capture, /*setup_side=*/!options.hold);
      if (!state.is_timed()) continue;
      if (!worst_tag) worst_tag = &tag;
      else if (options.hold ? (tag.amin < worst_tag->amin)
                            : (tag.amax > worst_tag->amax)) {
        worst_tag = &tag;
      }
    }
    if (worst_tag) {
      const auto points = trace_path(graph, mode, prop, delays.arc_delay,
                                     w.key.endpoint, *worst_tag,
                                     /*use_max=*/!options.hold);
      os << "  " << std::left << std::setw(28) << "point" << std::right
         << std::setw(9) << "incr" << std::setw(9) << "path\n";
      double prev = points.empty() ? 0.0 : points.front().second;
      for (size_t i = 0; i < points.size(); ++i) {
        const auto& [pin, arrival] = points[i];
        os << "  " << std::left << std::setw(28)
           << std::string(d.pin_name(pin)) << std::right << std::setw(9)
           << (i == 0 ? arrival : arrival - prev) << std::setw(9) << arrival
           << "\n";
        prev = arrival;
      }
    }
    const double arrival = options.hold
                               ? (worst_tag ? worst_tag->amin : 0.0)
                               : (worst_tag ? worst_tag->amax : 0.0);
    os << "  data " << (options.hold ? "(min) " : "") << "arrival: " << arrival
       << "\n";
    os << "  slack: " << w.slack << (w.slack < 0 ? "  (VIOLATED)" : "  (MET)")
       << "\n";
  }
  return os.str();
}

std::string report_clocks(const TimingGraph& graph, const Sdc& sdc) {
  const netlist::Design& d = graph.design();
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  ModeGraph mode(graph, sdc);

  os << "Clocks (" << sdc.num_clocks() << ")\n";
  for (size_t i = 0; i < sdc.num_clocks(); ++i) {
    const sdc::ClockId id(i);
    const sdc::Clock& c = sdc.clock(id);
    os << "  " << c.name << ": period " << c.period;
    if (c.waveform.size() == 2)
      os << " waveform {" << c.waveform[0] << " " << c.waveform[1] << "}";
    if (c.is_generated)
      os << " generated(master=" << c.master_clock << " /" << c.divide_by
         << " x" << c.multiply_by << ")";
    if (c.propagated) os << " propagated";
    if (c.is_virtual()) {
      os << " virtual";
    } else {
      os << " sources {";
      for (size_t s = 0; s < c.sources.size(); ++s) {
        os << (s ? " " : "") << d.pin_name(c.sources[s]);
      }
      os << "}";
    }
    // Reach: how many register clock pins this clock arrives at.
    size_t reached = 0;
    for (PinId sp : graph.startpoints()) {
      if (!d.pin(sp).is_port() && mode.clock_on(sp, id)) ++reached;
    }
    os << " -> " << reached << " register clock pin(s)\n";
  }
  for (const sdc::ClockGroups& cg : sdc.clock_groups()) {
    os << "  group(" << (cg.kind == sdc::ClockGroupKind::kAsynchronous
                             ? "async"
                             : "exclusive")
       << "):";
    for (const auto& group : cg.groups) {
      os << " {";
      for (size_t i = 0; i < group.size(); ++i) {
        os << (i ? " " : "") << sdc.clock(group[i]).name;
      }
      os << "}";
    }
    os << "\n";
  }
  return os.str();
}

std::string report_relations(const TimingGraph& graph, const Sdc& sdc,
                             size_t max_rows) {
  const netlist::Design& d = graph.design();
  std::ostringstream os;

  ModeGraph mode(graph, sdc);
  CompiledExceptions exceptions(graph, sdc);
  Propagator prop(mode, exceptions);
  PropagationOptions popts;
  popts.compute_arrivals = false;
  popts.analyze_hold = true;
  prop.run(popts);

  // The table is in key order (endpoint, then launch, then capture).
  const RelationTable& rows = prop.relations();
  os << "Timing relationships (" << rows.size() << " keys)\n";
  os << "  " << std::left << std::setw(24) << "endpoint" << std::setw(10)
     << "launch" << std::setw(10) << "capture" << std::setw(16) << "setup"
     << "hold\n";
  size_t shown = 0;
  for (const auto& [key, data] : rows) {
    if (shown++ >= max_rows) {
      os << "  ... (" << rows.size() - max_rows << " more)\n";
      break;
    }
    os << "  " << std::left << std::setw(24)
       << std::string(d.pin_name(key.endpoint)) << std::setw(10)
       << (key.launch.valid() ? sdc.clock(key.launch).name : "-")
       << std::setw(10)
       << (key.capture.valid() ? sdc.clock(key.capture).name : "-")
       << std::setw(16) << data.states.str() << data.hold_states.str()
       << "\n";
  }
  return os.str();
}

}  // namespace mm::timing
