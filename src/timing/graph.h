#pragma once
// Mode-independent timing graph over a Design.
//
// Nodes are pins (node index == pin index). Arcs are:
//   - net arcs: driver pin -> each load pin of a net,
//   - cell arcs: input pin -> output pin per library timing arc
//     (combinational and CP->Q launch arcs).
// Setup/hold checks (D vs CP) are kept in a separate list — they constrain
// endpoints rather than carry signal flow.
//
// The graph is levelized once (topological order with combinational-loop
// breaking); per-mode state (constants, disabled arcs, clock propagation)
// lives in ModeGraph.

#include <vector>

#include "netlist/design.h"
#include "util/id.h"

namespace mm::timing {

using netlist::Design;
using netlist::InstId;
using netlist::PinId;

using ArcId = Id<struct TArcTag>;

enum class ArcKind : uint8_t {
  kNet,     // net driver -> load
  kComb,    // combinational cell arc
  kLaunch,  // register CP -> Q
};

struct Arc {
  PinId from;
  PinId to;
  ArcKind kind = ArcKind::kNet;
  double intrinsic = 0.0;   // cell arcs: intrinsic delay; net arcs: base delay
  double resistance = 0.0;  // cell arcs: delay slope vs driven load
  bool loop_break = false;  // marked during levelization; never propagated
};

/// A setup/hold check: data pin constrained against a clock pin.
struct Check {
  PinId data;   // D / SI / SE pin
  PinId clock;  // CP pin of the same instance
  double setup = 0.0;
  double hold = 0.0;
};

class TimingGraph {
 public:
  /// Build from a design. `net_delay_per_fanout` is the wire-load-style net
  /// delay added per fanout pin (paper's STA uses wire load models).
  explicit TimingGraph(const Design& design, double net_delay_per_fanout = 0.02);

  const Design& design() const { return *design_; }

  size_t num_nodes() const { return design_->num_pins(); }
  size_t num_arcs() const { return arcs_.size(); }

  const Arc& arc(ArcId id) const { return arcs_[id.index()]; }
  const std::vector<Arc>& arcs() const { return arcs_; }

  /// Arc ids leaving / entering a pin.
  const std::vector<ArcId>& fanout(PinId pin) const { return fanout_[pin.index()]; }
  const std::vector<ArcId>& fanin(PinId pin) const { return fanin_[pin.index()]; }

  const std::vector<Check>& checks() const { return checks_; }
  /// Checks whose data pin is `pin` (indices into checks()).
  const std::vector<uint32_t>& checks_at(PinId pin) const {
    return checks_at_[pin.index()];
  }

  /// Pins in topological order (sources first). Loop-break arcs are excluded
  /// from the order's edge set.
  const std::vector<PinId>& topo_order() const { return topo_order_; }
  /// Topological level of a pin (position in topo_order).
  uint32_t topo_position(PinId pin) const { return topo_pos_[pin.index()]; }


  /// Pin drives >= 1 register launch (CP->Q) arc: its tags leave only
  /// through launch arcs — the clock becomes data at Q (mode-independent,
  /// precomputed so the propagation hot loops need no fanout re-scan).
  bool has_launch_fanout(PinId pin) const { return has_launch_[pin.index()]; }

  /// Structural endpoint pins: data pins of checks + output ports.
  const std::vector<PinId>& endpoints() const { return endpoints_; }
  /// Structural startpoint pins: register CP pins + input ports.
  const std::vector<PinId>& startpoints() const { return startpoints_; }

  bool is_endpoint(PinId pin) const { return is_endpoint_[pin.index()]; }
  bool is_startpoint(PinId pin) const { return is_startpoint_[pin.index()]; }

  /// Total input capacitance hanging on the net driven by `pin`
  /// (0 if the pin drives nothing). Used by the delay model.
  double load_on(PinId pin) const { return load_[pin.index()]; }

  /// Number of arcs marked as loop breaks.
  size_t num_loop_breaks() const { return num_loop_breaks_; }

 private:
  void build_arcs(double net_delay_per_fanout);
  void classify_pins();
  void levelize();

  const Design* design_;
  std::vector<Arc> arcs_;
  std::vector<std::vector<ArcId>> fanout_;
  std::vector<std::vector<ArcId>> fanin_;
  std::vector<Check> checks_;
  std::vector<std::vector<uint32_t>> checks_at_;
  std::vector<PinId> topo_order_;
  std::vector<uint32_t> topo_pos_;
  std::vector<uint8_t> has_launch_;
  std::vector<PinId> endpoints_;
  std::vector<PinId> startpoints_;
  std::vector<uint8_t> is_endpoint_;
  std::vector<uint8_t> is_startpoint_;
  std::vector<double> load_;
  size_t num_loop_breaks_ = 0;
};

}  // namespace mm::timing
