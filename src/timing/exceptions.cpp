#include "timing/exceptions.h"

#include <algorithm>

namespace mm::timing {

using netlist::Design;

namespace {

/// Canonicalize a -from anchor pin to startpoint pins: ports stay, pins of
/// sequential instances map to the instance's clock pin(s), anything else is
/// kept verbatim (it simply never matches a startpoint).
void canonical_from(const Design& d, const TimingGraph& g, PinId pin,
                    std::unordered_set<uint32_t>& out) {
  const netlist::Pin& p = d.pin(pin);
  if (p.is_port()) {
    out.insert(pin.value());
    return;
  }
  const netlist::LibCell& cell = d.cell_of_pin(pin);
  if (cell.is_sequential()) {
    const netlist::Instance& inst = d.instance(p.inst);
    for (uint32_t i = 0; i < cell.pins().size(); ++i) {
      if (cell.pins()[i].is_clock) out.insert(inst.pins[i].value());
    }
    return;
  }
  (void)g;
  out.insert(pin.value());
}

/// Canonicalize a -to anchor pin to endpoint pins: check data pins stay;
/// other pins of sequential instances map to all the instance's check data
/// pins; ports stay; anything else kept verbatim.
void canonical_to(const Design& d, const TimingGraph& g, PinId pin,
                  std::unordered_set<uint32_t>& out) {
  const netlist::Pin& p = d.pin(pin);
  if (p.is_port() || g.is_endpoint(pin)) {
    out.insert(pin.value());
    return;
  }
  if (!p.is_port()) {
    const netlist::LibCell& cell = d.cell_of_pin(pin);
    if (cell.is_sequential()) {
      const netlist::Instance& inst = d.instance(p.inst);
      for (uint32_t i = 0; i < cell.pins().size(); ++i) {
        const PinId ip = inst.pins[i];
        if (g.is_endpoint(ip)) out.insert(ip.value());
      }
      return;
    }
  }
  out.insert(pin.value());
}

}  // namespace

CompiledExceptions::CompiledExceptions(const TimingGraph& graph, const Sdc& sdc) {
  throughs_at_.resize(graph.num_nodes());
  compile(graph, sdc);
}

void CompiledExceptions::compile(const TimingGraph& graph, const Sdc& sdc) {
  const Design& d = graph.design();

  exceptions_.reserve(sdc.exceptions().size());
  for (size_t i = 0; i < sdc.exceptions().size(); ++i) {
    const sdc::Exception& ex = sdc.exceptions()[i];
    CompiledException ce;
    ce.kind = ex.kind;
    ce.value = ex.value;
    ce.setup = ex.setup_hold.setup;
    ce.hold = ex.setup_hold.hold;
    ce.source_index = static_cast<uint32_t>(i);

    if (!ex.from.empty()) {
      ce.has_from = true;
      ce.spec_score += 4;
      for (PinId p : ex.from.pins) canonical_from(d, graph, p, ce.from_pins);
      ce.from_clocks = ex.from.clocks;
    }
    if (!ex.to.empty()) {
      ce.has_to = true;
      ce.spec_score += 2;
      for (PinId p : ex.to.pins) canonical_to(d, graph, p, ce.to_pins);
      ce.to_clocks = ex.to.clocks;
    }
    for (const sdc::ExceptionPoint& th : ex.throughs) {
      ce.spec_score += 1;
      std::unordered_set<uint32_t> set;
      for (PinId p : th.pins) set.insert(p.value());
      ce.throughs.push_back(std::move(set));
    }

    ce.tracked = !ce.from_pins.empty() || !ce.throughs.empty();
    if (ce.tracked) ce.track_slot = num_tracked_++;
    exceptions_.push_back(std::move(ce));
  }

  // Per-pin through index.
  for (uint32_t e = 0; e < exceptions_.size(); ++e) {
    const CompiledException& ce = exceptions_[e];
    for (uint8_t k = 0; k < ce.throughs.size(); ++k) {
      for (uint32_t pin : ce.throughs[k]) {
        throughs_at_[pin].push_back({e, k});
      }
    }
  }
}

std::vector<uint8_t> CompiledExceptions::initial_progress(
    PinId startpoint, ClockId launch) const {
  std::vector<uint8_t> progress(num_tracked_, kExcInactive);
  for (const CompiledException& ce : exceptions_) {
    if (!ce.tracked) continue;
    bool active = !ce.has_from || ce.from_pins.count(startpoint.value()) ||
                  ce.from_clock_matches(launch);
    if (!active) continue;
    uint8_t p = 0;
    if (p < ce.throughs.size() && ce.throughs[p].count(startpoint.value())) {
      ++p;  // startpoint itself satisfies the first -through
    }
    progress[ce.track_slot] = p;
  }
  return progress;
}

bool CompiledExceptions::advance(std::vector<uint8_t>& progress,
                                 PinId pin) const {
  bool changed = false;
  for (const auto& [e, k] : throughs_at_[pin.index()]) {
    const CompiledException& ce = exceptions_[e];
    MM_ASSERT(ce.tracked);
    uint8_t& p = progress[ce.track_slot];
    if (p == k) {
      ++p;
      changed = true;
    }
  }
  return changed;
}

PathState CompiledExceptions::resolve(const std::vector<uint8_t>& progress,
                                      ClockId launch, PinId endpoint,
                                      ClockId capture, bool setup_side) const {
  const CompiledException* best = nullptr;
  for (const CompiledException& ce : exceptions_) {
    if (setup_side ? !ce.setup : !ce.hold) continue;
    // set_min_delay constrains the min (hold) analysis, set_max_delay the
    // max (setup) analysis.
    if (setup_side && ce.kind == ExceptionKind::kMinDelay) continue;
    if (!setup_side && ce.kind == ExceptionKind::kMaxDelay) continue;
    if (ce.tracked) {
      if (progress.empty() || progress[ce.track_slot] != ce.num_throughs())
        continue;
    } else if (ce.has_from && !ce.from_clock_matches(launch)) {
      continue;
    }
    if (!ce.to_matches(endpoint, capture)) continue;

    if (!best) {
      best = &ce;
      continue;
    }
    const int rank_new = precedence_rank(ce.state().kind);
    const int rank_best = precedence_rank(best->state().kind);
    if (rank_new > rank_best) {
      best = &ce;
    } else if (rank_new == rank_best) {
      // Tie: more anchor-specific wins; then later definition wins.
      if (ce.spec_score > best->spec_score ||
          (ce.spec_score == best->spec_score &&
           ce.source_index > best->source_index)) {
        best = &ce;
      }
    }
  }
  return best ? best->state() : PathState::valid();
}

std::string PathState::str() const {
  switch (kind) {
    case StateKind::kValid: return "V";
    case StateKind::kFalsePath: return "FP";
    case StateKind::kDisabled: return "DIS";
    case StateKind::kMcp: return "MCP(" + std::to_string(static_cast<int>(value)) + ")";
    case StateKind::kMaxDelay: return "MAX(" + std::to_string(value) + ")";
    case StateKind::kMinDelay: return "MIN(" + std::to_string(value) + ")";
  }
  return "?";
}

}  // namespace mm::timing
