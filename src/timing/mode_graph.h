#pragma once
// Per-mode view of a TimingGraph: the result of applying one Sdc's
// case analysis (ternary constant propagation), set_disable_timing and
// clock-network propagation to the mode-independent graph.
//
// This is the structure both the STA engine and the mode-merging engine
// consume: "which arcs are alive", "which clocks reach which pins and with
// what latency", "which pins are constants".

#include <span>
#include <vector>

#include "netlist/libcell.h"
#include "sdc/sdc.h"
#include "timing/graph.h"
#include "timing/pin_runs.h"

namespace mm::timing {

using netlist::Logic;
using sdc::ClockId;
using sdc::Sdc;

/// A clock arriving at a clock-network pin.
struct ClockArrival {
  ClockId clock;
  double latency = 0.0;  // network latency from the clock source to this pin

  friend bool operator==(const ClockArrival&, const ClockArrival&) = default;
};

class ModeGraph {
 public:
  /// Build the per-mode view. Both graph and sdc must outlive this object.
  ModeGraph(const TimingGraph& graph, const Sdc& sdc);

  /// The build stages after constant propagation.
  enum class Stage { kArcs, kClocks };

  /// The view of `sdc`, a deck that differs from `base`'s only in fields
  /// that stage `from` or a later one reads. The view keeps `base`'s
  /// constants (equal case analysis) and, from kClocks, its arc enables
  /// too (equal disables), and re-runs the remaining stages.
  ModeGraph(const ModeGraph& base, const Sdc& sdc, Stage from);

  const TimingGraph& graph() const { return *graph_; }
  const Sdc& sdc() const { return *sdc_; }

  // --- constants -----------------------------------------------------------

  Logic constant(PinId pin) const { return constants_[pin.index()]; }
  bool is_constant(PinId pin) const { return constants_[pin.index()] != Logic::kUnknown; }

  // --- arc state -----------------------------------------------------------

  /// Arc alive: not disabled by set_disable_timing, not a loop break, not
  /// killed by constants (constant source / constant sink / blocked by a
  /// controlling side-input).
  bool arc_enabled(ArcId arc) const { return arc_enabled_[arc.index()]; }

  // --- clock network -------------------------------------------------------

  /// Clocks present on a pin (clock-network propagation). Sorted by clock
  /// id; the span lives as long as this view.
  std::span<const ClockArrival> clocks_on(PinId pin) const {
    return clocks_.at(pin.value());
  }
  bool clock_on(PinId pin, ClockId clock) const;
  /// Pin is part of the clock network (some clock reaches it).
  bool in_clock_network(PinId pin) const { return !clocks_.empty(pin.value()); }

  // --- mode-level startpoints/endpoints -------------------------------------

  /// Register clock pins that receive >= 1 clock in this mode, plus input
  /// ports carrying a set_input_delay.
  const std::vector<PinId>& active_startpoints() const { return active_startpoints_; }
  /// Check data pins whose register receives >= 1 clock, plus output ports
  /// carrying a set_output_delay.
  const std::vector<PinId>& active_endpoints() const { return active_endpoints_; }

  /// For a check data pin: the clocks capturing at its register's CP pin.
  /// For an output port: the -clock of its set_output_delay entries.
  /// Collected once per mode; the span lives as long as this view.
  std::span<const ClockArrival> capture_clocks_at(PinId endpoint) const {
    return captures_.at(endpoint.value());
  }

  /// Source latency (set_clock_latency -source) of a clock, max flavour.
  double source_latency(ClockId clock) const;
  /// Ideal network latency for a non-propagated clock (set_clock_latency
  /// without -source), 0 if unset.
  double ideal_network_latency(ClockId clock) const;
  /// Clock uncertainty (setup flavour) for a capture clock.
  double uncertainty(ClockId clock) const;
  /// Clock uncertainty, hold flavour.
  double hold_uncertainty(ClockId clock) const;

 private:
  void propagate_constants();
  void apply_disables();
  void kill_blocked_arcs();
  /// Clock propagation, capture clocks and active points.
  void build_clock_stage();
  void propagate_clocks();
  void collect_capture_clocks();
  void find_active_points();

  const TimingGraph* graph_;
  const Sdc* sdc_;

  std::vector<Logic> constants_;
  std::vector<uint8_t> arc_enabled_;
  PinRuns<ClockArrival> clocks_;    // clocks_on
  PinRuns<ClockArrival> captures_;  // capture_clocks_at
  std::vector<PinId> active_startpoints_;
  std::vector<PinId> active_endpoints_;
};

}  // namespace mm::timing
