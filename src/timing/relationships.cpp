#include "timing/relationships.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "util/logger.h"

namespace mm::timing {

// --- ProgressTable ---------------------------------------------------------

size_t ProgressTable::VecHash::operator()(
    const std::vector<uint8_t>& v) const noexcept {
  size_t h = 1469598103934665603ull;
  for (uint8_t b : v) h = (h ^ b) * 1099511628211ull;
  return h;
}

ProgressTable::ProgressTable(uint32_t width) {
  std::vector<uint8_t> empty(width, kExcInactive);
  table_.push_back(empty);
  ids_.emplace(std::move(empty), 0u);
}

uint32_t ProgressTable::intern(const std::vector<uint8_t>& v) {
  auto it = ids_.find(v);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(table_.size());
  table_.push_back(v);
  ids_.emplace(table_.back(), id);
  return id;
}

// --- StateSet ---------------------------------------------------------------

void StateSet::insert(const PathState& s) {
  auto it = std::lower_bound(states.begin(), states.end(), s);
  if (it != states.end() && *it == s) return;
  states.insert(it, s);
}

bool StateSet::contains(const PathState& s) const {
  return std::binary_search(states.begin(), states.end(), s);
}

bool StateSet::contains_kind(StateKind k) const {
  for (const PathState& s : states)
    if (s.kind == k) return true;
  return false;
}

bool StateSet::all_untimed() const {
  for (const PathState& s : states)
    if (s.is_timed()) return false;
  return true;
}

bool StateSet::any_timed() const {
  for (const PathState& s : states)
    if (s.is_timed()) return true;
  return false;
}

void StateSet::merge(const StateSet& o) {
  for (const PathState& s : o.states) insert(s);
}

std::string StateSet::str() const {
  std::string out = "{";
  for (size_t i = 0; i < states.size(); ++i) {
    if (i) out += ", ";
    out += states[i].str();
  }
  return out + "}";
}

// --- Propagator -------------------------------------------------------------

Propagator::Propagator(const ModeGraph& mode,
                       const CompiledExceptions& exceptions)
    : mode_(&mode),
      exceptions_(&exceptions),
      progress_(exceptions.num_tracked()) {
  tags_.resize(mode.graph().num_nodes());
}

void Propagator::run(const PropagationOptions& options) {
  MM_SPAN_HOT("timing/relationship_propagation");
  const TimingGraph& graph = mode_->graph();

  seed(options);

  // Forward propagation in topological order.
  for (PinId pin : graph.topo_order()) {
    if (options.pin_filter && !(*options.pin_filter)[pin.index()]) continue;
    const auto& pin_tags = tags_[pin.index()];
    if (pin_tags.empty()) continue;

    // Register CP pins carry tags only into their launch arcs (the clock
    // becomes data at Q); every other pin propagates through net/comb arcs.
    bool has_launch = false;
    for (ArcId aid : graph.fanout(pin)) {
      if (graph.arc(aid).kind == ArcKind::kLaunch) has_launch = true;
    }

    for (ArcId aid : graph.fanout(pin)) {
      if (!mode_->arc_enabled(aid)) continue;
      const Arc& arc = graph.arc(aid);
      if (has_launch && arc.kind != ArcKind::kLaunch) continue;
      if (options.pin_filter && !(*options.pin_filter)[arc.to.index()]) continue;
      const double delay =
          options.arc_delays
              ? (*options.arc_delays)[aid.index()]
              : (arc.kind == ArcKind::kNet
                     ? arc.intrinsic
                     : arc.intrinsic + arc.resistance * graph.load_on(arc.to));
      const double delay_min = options.arc_delays_min
                                   ? (*options.arc_delays_min)[aid.index()]
                                   : delay;
      // Snapshot size: tags_ may reallocate if pin self-loops (cannot in a
      // DAG), but insert_tag appends to *other* pins only.
      const size_t count = pin_tags.size();
      for (size_t t = 0; t < count; ++t) {
        const Tag& tag = tags_[pin.index()][t];
        insert_tag(arc.to, tag.launch, tag.progress, tag.startpoint,
                   tag.amin + static_cast<float>(delay_min),
                   tag.amax + static_cast<float>(delay),
                   /*advance=*/true);
      }
    }
  }

  // Resolve relations at endpoints.
  for (PinId ep : mode_->active_endpoints()) {
    if (options.pin_filter && !(*options.pin_filter)[ep.index()]) continue;
    resolve_endpoint(ep, options);
  }

  size_t num_tags = 0;
  for (const auto& pin_tags : tags_) num_tags += pin_tags.size();
  MM_COUNT("timing/tags", num_tags);
  MM_COUNT("timing/relations", relations_.size());
  MM_COUNT("timing/propagations", 1);
}

void Propagator::seed(const PropagationOptions& options) {
  for (PinId sp : mode_->active_startpoints()) {
    if (options.pin_filter && !(*options.pin_filter)[sp.index()]) continue;
    seed_startpoint(sp, options);
  }
}

void Propagator::seed_startpoint(PinId sp, const PropagationOptions& options) {
  const netlist::Design& d = mode_->graph().design();
  const PinId tracked_sp = options.track_startpoints ? sp : PinId();
  const Sdc& sdc = mode_->sdc();

  if (d.pin(sp).is_port()) {
    // Input port: one tag per set_input_delay entry.
    for (const sdc::PortDelay& pd : sdc.port_delays()) {
      if (!pd.is_input || pd.port_pin != sp) continue;
      double edge = 0.0;
      if (pd.clock.valid()) {
        const sdc::Clock& c = sdc.clock(pd.clock);
        edge = pd.clock_fall && c.waveform.size() > 1 ? c.waveform[1]
                                                      : c.waveform.empty() ? 0.0 : c.waveform[0];
      }
      const float arrival = static_cast<float>(edge + pd.value);
      const uint32_t prog =
          progress_.intern(exceptions_->initial_progress(sp, pd.clock));
      insert_tag(sp, pd.clock, prog, tracked_sp, arrival, arrival,
                 /*advance=*/false);
    }
    return;
  }

  // Register clock pin: one tag per arriving clock.
  for (const ClockArrival& ca : mode_->clocks_on(sp)) {
    const sdc::Clock& clock = sdc.clock(ca.clock);
    const double latency =
        mode_->source_latency(ca.clock) +
        (clock.propagated ? ca.latency : mode_->ideal_network_latency(ca.clock));
    const double edge = clock.waveform.empty() ? 0.0 : clock.waveform[0];
    const float arrival = static_cast<float>(latency + edge);
    const uint32_t prog =
        progress_.intern(exceptions_->initial_progress(sp, ca.clock));
    insert_tag(sp, ca.clock, prog, tracked_sp, arrival, arrival,
               /*advance=*/false);
  }
}

void Propagator::insert_tag(PinId pin, ClockId launch, uint32_t progress_pre,
                            PinId startpoint, float amin, float amax,
                            bool advance) {
  uint32_t progress = progress_pre;
  if (advance && exceptions_->num_tracked() > 0) {
    if (!exceptions_->throughs_at(pin).empty()) {
      std::vector<uint8_t> vec = progress_.get(progress_pre);
      if (exceptions_->advance(vec, pin)) progress = progress_.intern(vec);
    }
  }
  auto& vec = tags_[pin.index()];
  for (Tag& t : vec) {
    if (t.launch == launch && t.progress == progress &&
        t.startpoint == startpoint) {
      t.amin = std::min(t.amin, amin);
      t.amax = std::max(t.amax, amax);
      return;
    }
  }
  vec.push_back({launch, progress, startpoint, amin, amax});
}

double Propagator::hold_relation(ClockId launch, ClockId capture,
                                 double mcp_shift) const {
  // The hold check references the capture edge closest to (at or before)
  // the launch edge — zero for identically-aligned clocks. A hold
  // multicycle (set_multicycle_path -hold N) relaxes the check by N capture
  // periods (moves it N edges earlier).
  const Sdc& sdc = mode_->sdc();
  constexpr double kEps = 1e-9;
  const sdc::Clock& cap = sdc.clock(capture);
  const double cap_edge = cap.waveform.empty() ? 0.0 : cap.waveform[0];
  double launch_edge = 0.0;
  if (launch.valid()) {
    const sdc::Clock& l = sdc.clock(launch);
    launch_edge = l.waveform.empty() ? 0.0 : l.waveform[0];
  }
  const double k = std::floor((launch_edge - cap_edge) / cap.period + kEps);
  double tc = cap_edge + k * cap.period;
  if (mcp_shift > 0.0) tc -= mcp_shift * cap.period;
  return tc - launch_edge;  // <= 0: capture-edge offset from launch edge
}

double Propagator::setup_relation(ClockId launch, ClockId capture,
                                  double mcp_mult) const {
  const Sdc& sdc = mode_->sdc();
  constexpr double kEps = 1e-9;
  const sdc::Clock& cap = sdc.clock(capture);
  const double cap_edge = cap.waveform.empty() ? 0.0 : cap.waveform[0];
  double launch_edge = 0.0;
  if (launch.valid()) {
    const sdc::Clock& l = sdc.clock(launch);
    launch_edge = l.waveform.empty() ? 0.0 : l.waveform[0];
  }
  // Smallest capture rise edge strictly after the launch edge
  // (single-edge approximation of the common-period expansion).
  double k = std::floor((launch_edge - cap_edge) / cap.period + kEps) + 1.0;
  if (k < 0) k = std::ceil(-(cap_edge - launch_edge) / cap.period);
  double tc = cap_edge + k * cap.period;
  if (tc <= launch_edge + kEps) tc += cap.period;
  if (mcp_mult > 1.0) tc += (mcp_mult - 1.0) * cap.period;
  return tc - launch_edge;  // distance from launch edge
}

void Propagator::resolve_endpoint(PinId endpoint,
                                  const PropagationOptions& options) {
  const netlist::Design& d = mode_->graph().design();
  const Sdc& sdc = mode_->sdc();
  const auto& pin_tags = tags_[endpoint.index()];
  if (pin_tags.empty()) return;

  const bool is_port = d.pin(endpoint).is_port();

  // Setup/hold times at this endpoint (library check) — ports use output
  // delay as the "check" instead.
  double setup_time = 0.0;
  double hold_time = 0.0;
  if (!is_port) {
    for (uint32_t ci : mode_->graph().checks_at(endpoint)) {
      setup_time = std::max(setup_time, mode_->graph().checks()[ci].setup);
      hold_time = std::max(hold_time, mode_->graph().checks()[ci].hold);
    }
  }

  for (const ClockArrival& cap : mode_->capture_clocks_at(endpoint)) {
    const sdc::Clock& cap_clock = sdc.clock(cap.clock);
    const double cap_lat =
        mode_->source_latency(cap.clock) +
        (cap_clock.propagated ? cap.latency
                              : mode_->ideal_network_latency(cap.clock));
    const double unc = mode_->uncertainty(cap.clock);

    double output_delay = 0.0;
    if (is_port) {
      for (const sdc::PortDelay& pd : sdc.port_delays()) {
        if (!pd.is_input && pd.port_pin == endpoint && pd.clock == cap.clock &&
            pd.minmax.max) {
          output_delay = std::max(output_delay, pd.value);
        }
      }
    }

    for (const Tag& tag : pin_tags) {
      PathState state;
      const bool exclusive =
          tag.launch.valid() &&
          (sdc.clocks_exclusive(tag.launch, cap.clock) ||
           sdc.clocks_async(tag.launch, cap.clock));
      if (exclusive) {
        state = PathState::false_path();
      } else {
        state = exceptions_->resolve(progress_.get(tag.progress), tag.launch,
                                     endpoint, cap.clock, /*setup_side=*/true);
      }

      RelationKey key;
      key.endpoint = endpoint;
      key.startpoint = tag.startpoint;
      key.launch = tag.launch;
      key.capture = cap.clock;
      RelationData& data = relations_[key];
      data.states.insert(state);

      if (options.analyze_hold) {
        PathState hold_state;
        if (exclusive) {
          hold_state = PathState::false_path();
        } else {
          hold_state =
              exceptions_->resolve(progress_.get(tag.progress), tag.launch,
                                   endpoint, cap.clock, /*setup_side=*/false);
        }
        data.hold_states.insert(hold_state);
        if (options.compute_arrivals && hold_state.is_timed()) {
          const double hold_unc = mode_->hold_uncertainty(cap.clock);
          double slack;
          if (hold_state.kind == StateKind::kMinDelay) {
            slack = tag.amin - hold_state.value;
          } else {
            const double shift =
                hold_state.kind == StateKind::kMcp ? hold_state.value : 0.0;
            const double tc = hold_relation(tag.launch, cap.clock, shift);
            double launch_edge = 0.0;
            if (tag.launch.valid()) {
              const sdc::Clock& l = sdc.clock(tag.launch);
              launch_edge = l.waveform.empty() ? 0.0 : l.waveform[0];
            }
            const double required =
                launch_edge + tc + cap_lat + hold_unc + hold_time;
            slack = tag.amin - required;
          }
          data.worst_hold_slack =
              std::min(data.worst_hold_slack, static_cast<float>(slack));
        }
      }

      if (options.compute_arrivals && state.is_timed()) {
        double slack;
        if (state.kind == StateKind::kMaxDelay) {
          slack = state.value - tag.amax;
        } else {
          const double mult = state.kind == StateKind::kMcp ? state.value : 1.0;
          const double tc = setup_relation(tag.launch, cap.clock, mult);
          double launch_edge = 0.0;
          if (tag.launch.valid()) {
            const sdc::Clock& l = sdc.clock(tag.launch);
            launch_edge = l.waveform.empty() ? 0.0 : l.waveform[0];
          }
          const double required =
              launch_edge + tc + cap_lat - unc - setup_time - output_delay;
          slack = required - tag.amax;
        }
        data.worst_slack =
            std::min(data.worst_slack, static_cast<float>(slack));
        data.worst_arrival = std::max(data.worst_arrival, tag.amax);
      }
    }
  }
}

std::unordered_map<uint32_t, float> Propagator::worst_slack_by_endpoint() const {
  std::unordered_map<uint32_t, float> out;
  for (const auto& [key, data] : relations_) {
    if (data.worst_slack >= 1e29f) continue;  // nothing timed
    auto [it, inserted] = out.emplace(key.endpoint.value(), data.worst_slack);
    if (!inserted) it->second = std::min(it->second, data.worst_slack);
  }
  return out;
}

std::unordered_map<uint32_t, float> Propagator::worst_hold_slack_by_endpoint()
    const {
  std::unordered_map<uint32_t, float> out;
  for (const auto& [key, data] : relations_) {
    if (data.worst_hold_slack >= 1e29f) continue;
    auto [it, inserted] = out.emplace(key.endpoint.value(), data.worst_hold_slack);
    if (!inserted) it->second = std::min(it->second, data.worst_hold_slack);
  }
  return out;
}

std::vector<uint8_t> Propagator::fanin_cone(const ModeGraph& mode,
                                            const std::vector<PinId>& from_pins) {
  const TimingGraph& graph = mode.graph();
  std::vector<uint8_t> mask(graph.num_nodes(), 0);
  std::vector<PinId> stack;
  for (PinId p : from_pins) {
    if (!mask[p.index()]) {
      mask[p.index()] = 1;
      stack.push_back(p);
    }
  }
  while (!stack.empty()) {
    const PinId pin = stack.back();
    stack.pop_back();
    for (ArcId aid : graph.fanin(pin)) {
      if (!mode.arc_enabled(aid)) continue;
      const PinId from = graph.arc(aid).from;
      if (!mask[from.index()]) {
        mask[from.index()] = 1;
        stack.push_back(from);
      }
    }
  }
  return mask;
}

}  // namespace mm::timing
