#include "timing/mode_graph.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/logger.h"

namespace mm::timing {

using netlist::Design;
using netlist::LibCell;

ModeGraph::ModeGraph(const TimingGraph& graph, const Sdc& sdc)
    : graph_(&graph), sdc_(&sdc) {
  constants_.assign(graph.num_nodes(), Logic::kUnknown);
  arc_enabled_.assign(graph.num_arcs(), 1);

  {
    MM_SPAN_HOT("timing/case_analysis");
    propagate_constants();
    apply_disables();
    kill_blocked_arcs();
  }
  build_clock_stage();
}

ModeGraph::ModeGraph(const ModeGraph& base, const Sdc& sdc, Stage from)
    : graph_(base.graph_), sdc_(&sdc), constants_(base.constants_) {
  if (from == Stage::kArcs) {
    MM_SPAN_HOT("timing/arc_enables");
    arc_enabled_.assign(graph_->num_arcs(), 1);
    apply_disables();
    kill_blocked_arcs();
  } else {
    arc_enabled_ = base.arc_enabled_;
  }
  build_clock_stage();
}

void ModeGraph::build_clock_stage() {
  MM_SPAN_HOT("timing/clock_propagation");
  propagate_clocks();
  collect_capture_clocks();
  find_active_points();
}

void ModeGraph::propagate_constants() {
  const Design& d = graph_->design();

  // Case-analysis pins are pinned to their forced value and override
  // propagation through them.
  std::vector<uint8_t> pinned(d.num_pins(), 0);
  for (const sdc::CaseAnalysis& ca : sdc_->case_analysis()) {
    constants_[ca.pin.index()] = ca.value;
    pinned[ca.pin.index()] = 1;
  }

  std::vector<Logic> inst_values;  // scratch, per-instance pin values
  for (PinId pin : graph_->topo_order()) {
    if (pinned[pin.index()]) continue;
    const netlist::Pin& p = d.pin(pin);

    // Load pins copy their net driver's constant.
    if (!graph_->fanin(pin).empty()) {
      bool from_net = false;
      for (ArcId aid : graph_->fanin(pin)) {
        const Arc& arc = graph_->arc(aid);
        if (arc.kind == ArcKind::kNet && !arc.loop_break) {
          constants_[pin.index()] = constants_[arc.from.index()];
          from_net = true;
          break;
        }
      }
      if (from_net) continue;
    }

    // Instance output pins evaluate the cell function.
    if (!p.is_port() && d.lib_pin_of(pin).dir == netlist::PinDir::kOutput) {
      const netlist::Instance& inst = d.instance(p.inst);
      const LibCell& cell = d.library().cell(inst.cell);
      inst_values.assign(cell.pins().size(), Logic::kUnknown);
      for (uint32_t i = 0; i < cell.pins().size(); ++i) {
        inst_values[i] = constants_[inst.pins[i].index()];
      }
      constants_[pin.index()] = cell.evaluate(inst_values);
    }
  }
}

void ModeGraph::apply_disables() {
  const Design& d = graph_->design();
  for (ArcId aid(0u); aid.index() < graph_->num_arcs(); aid = ArcId(aid.value() + 1)) {
    if (graph_->arc(aid).loop_break) arc_enabled_[aid.index()] = 0;
  }
  for (const sdc::DisableTiming& dt : sdc_->disables()) {
    if (dt.pin.valid()) {
      for (ArcId a : graph_->fanout(dt.pin)) arc_enabled_[a.index()] = 0;
      for (ArcId a : graph_->fanin(dt.pin)) arc_enabled_[a.index()] = 0;
      continue;
    }
    // Instance form: kill the instance's internal (cell) arcs, optionally
    // restricted to -from/-to library pins.
    const netlist::Instance& inst = d.instance(dt.inst);
    for (uint32_t lp = 0; lp < inst.pins.size(); ++lp) {
      const PinId pin = inst.pins[lp];
      for (ArcId aid : graph_->fanout(pin)) {
        const Arc& arc = graph_->arc(aid);
        if (arc.kind == ArcKind::kNet) continue;  // cell arcs only
        const netlist::Pin& to = d.pin(arc.to);
        if (to.is_port() || to.inst != dt.inst) continue;
        if (dt.from_lib_pin != UINT32_MAX && lp != dt.from_lib_pin) continue;
        if (dt.to_lib_pin != UINT32_MAX && to.lib_pin != dt.to_lib_pin) continue;
        arc_enabled_[aid.index()] = 0;
      }
    }
  }
}

void ModeGraph::kill_blocked_arcs() {
  const Design& d = graph_->design();
  std::vector<Logic> inst_values;
  for (size_t ai = 0; ai < graph_->num_arcs(); ++ai) {
    if (!arc_enabled_[ai]) continue;
    const Arc& arc = graph_->arc(ArcId(ai));
    // No transitions out of, or into, a constant pin.
    if (is_constant(arc.from) || is_constant(arc.to)) {
      arc_enabled_[ai] = 0;
      continue;
    }
    if (arc.kind != ArcKind::kComb) continue;

    // Side-input sensitivity: can this input still toggle the output given
    // the constants on the cell's other inputs?
    const netlist::Pin& fp = d.pin(arc.from);
    const netlist::Instance& inst = d.instance(fp.inst);
    const LibCell& cell = d.library().cell(inst.cell);
    inst_values.assign(cell.pins().size(), Logic::kUnknown);
    for (uint32_t i = 0; i < cell.pins().size(); ++i) {
      inst_values[i] = constants_[inst.pins[i].index()];
    }
    if (!cell.input_affects_output(fp.lib_pin, inst_values)) {
      arc_enabled_[ai] = 0;
    }
  }
}

bool ModeGraph::clock_on(PinId pin, ClockId clock) const {
  for (const ClockArrival& ca : clocks_on(pin)) {
    if (ca.clock == clock) return true;
  }
  return false;
}

void ModeGraph::propagate_clocks() {
  // Per-pin sets while propagating; appended to clocks_ in pin order at the
  // end.
  std::vector<std::vector<ClockArrival>> on(graph_->num_nodes());

  // Stop table: pin -> clocks stopped there (invalid clock id = all).
  auto stopped = [&](PinId pin, ClockId clock) {
    for (const sdc::ClockSenseStop& s : sdc_->clock_sense_stops()) {
      if (s.pin == pin && (!s.clock.valid() || s.clock == clock)) return true;
    }
    return false;
  };

  auto insert_arrival = [&](PinId pin, ClockId clock, double latency) {
    // set_clock_sense -stop_propagation semantics used by the merge
    // refinement: the clock does not appear on the stop pin or beyond
    // (this makes a refined merged mode match the individual modes
    // exactly at every clock-network pin).
    if (stopped(pin, clock)) return;
    auto& vec = on[pin.index()];
    for (ClockArrival& ca : vec) {
      if (ca.clock == clock) {
        ca.latency = std::max(ca.latency, latency);
        return;
      }
    }
    vec.push_back({clock, latency});
  };

  auto run_topo_pass = [&]() {
    for (PinId pin : graph_->topo_order()) {
      if (is_constant(pin)) continue;
      for (const ClockArrival& ca : on[pin.index()]) {
        for (ArcId aid : graph_->fanout(pin)) {
          if (!arc_enabled_[aid.index()]) continue;
          const Arc& arc = graph_->arc(aid);
          if (arc.kind == ArcKind::kLaunch) continue;  // clock ends at CP
          const double delay =
              arc.kind == ArcKind::kNet
                  ? arc.intrinsic
                  : arc.intrinsic + arc.resistance * graph_->load_on(arc.to);
          insert_arrival(arc.to, ca.clock, ca.latency + delay);
        }
      }
    }
  };

  // Seed root clocks.
  for (size_t ci = 0; ci < sdc_->num_clocks(); ++ci) {
    const sdc::Clock& clock = sdc_->clock(ClockId(ci));
    if (clock.is_generated) continue;
    for (PinId src : clock.sources) insert_arrival(src, ClockId(ci), 0.0);
  }
  run_topo_pass();

  // Seed generated clocks from their master's latency at the -source pin.
  // Chained generated clocks (gen-of-gen) need one extra seeding round per
  // chain level, so iterate to a fixpoint (bounded by the clock count).
  size_t num_generated = 0;
  for (size_t ci = 0; ci < sdc_->num_clocks(); ++ci) {
    if (sdc_->clock(ClockId(ci)).is_generated) ++num_generated;
  }
  for (size_t round = 0; round < num_generated; ++round) {
    for (size_t ci = 0; ci < sdc_->num_clocks(); ++ci) {
      const sdc::Clock& clock = sdc_->clock(ClockId(ci));
      if (!clock.is_generated) continue;
      double base = 0.0;
      const ClockId master = sdc_->find_clock(clock.master_clock);
      if (master.valid() && clock.master_source.valid()) {
        for (const ClockArrival& ca : on[clock.master_source.index()]) {
          if (ca.clock == master) base = ca.latency;
        }
      }
      for (PinId src : clock.sources) insert_arrival(src, ClockId(ci), base);
    }
    run_topo_pass();
  }

  clocks_ = PinRuns<ClockArrival>(on.size());
  for (size_t p = 0; p < on.size(); ++p) {
    std::vector<ClockArrival>& vec = on[p];
    std::sort(vec.begin(), vec.end(),
              [](const ClockArrival& a, const ClockArrival& b) {
                return a.clock < b.clock;
              });
    clocks_.append(static_cast<uint32_t>(p), vec);
  }
  clocks_.finish();
}

void ModeGraph::find_active_points() {
  const Design& d = graph_->design();

  for (PinId sp : graph_->startpoints()) {
    if (d.pin(sp).is_port()) {
      for (const sdc::PortDelay& pd : sdc_->port_delays()) {
        if (pd.is_input && pd.port_pin == sp) {
          active_startpoints_.push_back(sp);
          break;
        }
      }
    } else if (in_clock_network(sp)) {
      active_startpoints_.push_back(sp);
    }
  }

  for (PinId ep : graph_->endpoints()) {
    if (d.pin(ep).is_port()) {
      for (const sdc::PortDelay& pd : sdc_->port_delays()) {
        if (!pd.is_input && pd.port_pin == ep) {
          active_endpoints_.push_back(ep);
          break;
        }
      }
    } else if (!capture_clocks_at(ep).empty()) {
      active_endpoints_.push_back(ep);
    }
  }
  // A view can outlive its merge (a session's member view): give back
  // what growth left over.
  active_startpoints_.shrink_to_fit();
  active_endpoints_.shrink_to_fit();
}

void ModeGraph::collect_capture_clocks() {
  const Design& d = graph_->design();
  captures_ = PinRuns<ClockArrival>(graph_->num_nodes());
  std::vector<ClockArrival> run;
  auto add_once = [&](const ClockArrival& ca) {
    for (const ClockArrival& have : run) {
      if (have.clock == ca.clock) return;
    }
    run.push_back(ca);
  };
  for (size_t p = 0; p < graph_->num_nodes(); ++p) {
    const PinId pin(p);
    run.clear();
    if (d.pin(pin).is_port()) {
      // Output port: capture clocks come from set_output_delay -clock.
      for (const sdc::PortDelay& pd : sdc_->port_delays()) {
        if (pd.is_input || pd.port_pin != pin || !pd.clock.valid()) continue;
        add_once({pd.clock, 0.0});
      }
    } else {
      for (uint32_t ci : graph_->checks_at(pin)) {
        const Check& check = graph_->checks()[ci];
        for (const ClockArrival& ca : clocks_on(check.clock)) add_once(ca);
      }
    }
    captures_.append(static_cast<uint32_t>(p), run);
  }
  captures_.finish();
}

double ModeGraph::source_latency(ClockId clock) const {
  double v = 0.0;
  for (const sdc::ClockLatency& lat : sdc_->clock_latencies()) {
    if (lat.clock == clock && lat.source && lat.minmax.max) v = std::max(v, lat.value);
  }
  return v;
}

double ModeGraph::ideal_network_latency(ClockId clock) const {
  double v = 0.0;
  for (const sdc::ClockLatency& lat : sdc_->clock_latencies()) {
    if (lat.clock == clock && !lat.source && lat.minmax.max) v = std::max(v, lat.value);
  }
  return v;
}

double ModeGraph::uncertainty(ClockId clock) const {
  double v = 0.0;
  for (const sdc::ClockUncertainty& unc : sdc_->clock_uncertainties()) {
    if (unc.clock == clock && unc.setup_hold.setup) v = std::max(v, unc.value);
  }
  return v;
}

double ModeGraph::hold_uncertainty(ClockId clock) const {
  double v = 0.0;
  for (const sdc::ClockUncertainty& unc : sdc_->clock_uncertainties()) {
    if (unc.clock == clock && unc.setup_hold.hold) v = std::max(v, unc.value);
  }
  return v;
}

}  // namespace mm::timing
