#include "timing/graph.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/logger.h"

namespace mm::timing {

namespace {
using LibArcKind = netlist::ArcKind;
}  // namespace

TimingGraph::TimingGraph(const Design& design, double net_delay_per_fanout)
    : design_(&design) {
  const size_t n = design.num_pins();
  fanout_.resize(n);
  fanin_.resize(n);
  checks_at_.resize(n);
  is_endpoint_.assign(n, 0);
  is_startpoint_.assign(n, 0);
  load_.assign(n, 0.0);
  {
    MM_SPAN("timing/graph_build");
    build_arcs(net_delay_per_fanout);
    classify_pins();
  }
  {
    MM_SPAN("timing/levelize");
    levelize();
  }
  MM_GAUGE_SET("timing/graph/nodes", num_nodes());
  MM_GAUGE_SET("timing/graph/arcs", num_arcs());
}

void TimingGraph::build_arcs(double net_delay_per_fanout) {
  const Design& d = *design_;

  // Net arcs: driver -> loads; accumulate load caps on the driver.
  for (size_t ni = 0; ni < d.num_nets(); ++ni) {
    const netlist::Net& net = d.net(netlist::NetId(ni));
    if (!net.driver.valid()) continue;
    double cap = 0.0;
    for (PinId load : net.loads) {
      const netlist::Pin& lp = d.pin(load);
      if (!lp.is_port()) cap += d.lib_pin_of(load).cap;
      const ArcId id(arcs_.size());
      Arc arc;
      arc.from = net.driver;
      arc.to = load;
      arc.kind = ArcKind::kNet;
      arc.intrinsic = net_delay_per_fanout;
      arcs_.push_back(arc);
      fanout_[net.driver.index()].push_back(id);
      fanin_[load.index()].push_back(id);
    }
    load_[net.driver.index()] = cap;
  }

  // Cell arcs + checks.
  for (size_t ii = 0; ii < d.num_instances(); ++ii) {
    const InstId inst(ii);
    const netlist::Instance& in = d.instance(inst);
    const netlist::LibCell& cell = d.library().cell(in.cell);
    for (const netlist::LibArc& la : cell.arcs()) {
      const PinId from = in.pins[la.from_pin];
      const PinId to = in.pins[la.to_pin];
      if (la.kind == LibArcKind::kSetupHold) {
        // la.from_pin = data, la.to_pin = clock; intrinsic = setup time.
        Check check;
        check.data = from;
        check.clock = to;
        check.setup = la.intrinsic;
        check.hold = la.intrinsic * 0.25;  // library convention: hold < setup
        checks_at_[from.index()].push_back(static_cast<uint32_t>(checks_.size()));
        checks_.push_back(check);
        continue;
      }
      const ArcId id(arcs_.size());
      Arc arc;
      arc.from = from;
      arc.to = to;
      arc.kind = la.kind == LibArcKind::kLaunch ? ArcKind::kLaunch : ArcKind::kComb;
      arc.intrinsic = la.intrinsic;
      arc.resistance = la.resistance;
      arcs_.push_back(arc);
      fanout_[from.index()].push_back(id);
      fanin_[to.index()].push_back(id);
    }
  }
}

void TimingGraph::classify_pins() {
  const Design& d = *design_;

  for (const Check& check : checks_) {
    if (!is_endpoint_[check.data.index()]) {
      is_endpoint_[check.data.index()] = 1;
      endpoints_.push_back(check.data);
    }
    // A check's clock pin is a path startpoint only if it launches data
    // (has a CP->Q arc). An ICG's CK pin is a capture reference for the
    // enable check but launches nothing.
    bool launches = false;
    for (ArcId aid : fanout_[check.clock.index()]) {
      if (arcs_[aid.index()].kind == ArcKind::kLaunch) launches = true;
    }
    if (launches && !is_startpoint_[check.clock.index()]) {
      is_startpoint_[check.clock.index()] = 1;
      startpoints_.push_back(check.clock);
    }
  }
  for (size_t pi = 0; pi < d.num_ports(); ++pi) {
    const netlist::Port& port = d.port(netlist::PortId(pi));
    if (port.dir == netlist::PinDir::kInput) {
      if (!is_startpoint_[port.pin.index()]) {
        is_startpoint_[port.pin.index()] = 1;
        startpoints_.push_back(port.pin);
      }
    } else {
      if (!is_endpoint_[port.pin.index()]) {
        is_endpoint_[port.pin.index()] = 1;
        endpoints_.push_back(port.pin);
      }
    }
  }
}

void TimingGraph::levelize() {
  // Iterative DFS marking back arcs (combinational loops), then Kahn
  // topological sort over the remaining arc set.
  const size_t n = num_nodes();
  enum : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(n, kWhite);

  struct Frame {
    uint32_t pin;
    uint32_t next_arc;
  };
  std::vector<Frame> stack;

  for (uint32_t root = 0; root < n; ++root) {
    if (color[root] != kWhite) continue;
    stack.push_back({root, 0});
    color[root] = kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& outs = fanout_[frame.pin];
      if (frame.next_arc < outs.size()) {
        const ArcId aid = outs[frame.next_arc++];
        Arc& arc = arcs_[aid.index()];
        const uint32_t to = arc.to.value();
        if (color[to] == kGray) {
          arc.loop_break = true;  // back edge: combinational loop
          ++num_loop_breaks_;
        } else if (color[to] == kWhite) {
          color[to] = kGray;
          stack.push_back({to, 0});
        }
      } else {
        color[frame.pin] = kBlack;
        stack.pop_back();
      }
    }
  }
  if (num_loop_breaks_ > 0) {
    MM_WARN("broke %zu combinational loop arc(s)", num_loop_breaks_);
  }

  std::vector<uint32_t> indegree(n, 0);
  for (const Arc& arc : arcs_) {
    if (!arc.loop_break) ++indegree[arc.to.value()];
  }
  topo_order_.reserve(n);
  std::vector<uint32_t> queue;
  queue.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) queue.push_back(i);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const uint32_t pin = queue[head];
    topo_order_.push_back(PinId(pin));
    for (ArcId aid : fanout_[pin]) {
      const Arc& arc = arcs_[aid.index()];
      if (arc.loop_break) continue;
      const uint32_t to = arc.to.value();
      if (--indegree[to] == 0) queue.push_back(to);
    }
  }
  MM_ASSERT_MSG(topo_order_.size() == n, "levelization dropped pins");
  topo_pos_.resize(n);
  for (uint32_t i = 0; i < n; ++i) topo_pos_[topo_order_[i].index()] = i;

  has_launch_.assign(n, 0);
  for (const Arc& arc : arcs_) {
    if (arc.kind == ArcKind::kLaunch) has_launch_[arc.from.index()] = 1;
  }
}

}  // namespace mm::timing
