#include "merge/clock_refine.h"

#include <algorithm>
#include <memory>
#include <set>

#include "obs/obs.h"
#include "util/logger.h"

namespace mm::merge {

using timing::Arc;
using timing::ArcId;
using timing::ArcKind;
using timing::ModeGraph;
using timing::TimingGraph;

namespace {

void infer_disables(const RefineContext& ctx, MergeResult& result) {
  Sdc& merged = *result.merged;

  // Candidate pins: case-analysis targets of any individual mode.
  std::set<uint32_t> candidates;
  for (const Sdc* mode : ctx.modes) {
    for (const sdc::CaseAnalysis& ca : mode->case_analysis()) {
      candidates.insert(ca.pin.value());
    }
  }
  if (candidates.empty()) return;

  // Merged constants as they stand (before any inferred disables); the
  // clock stage is not needed.
  const std::shared_ptr<const ModeGraph> merged_view =
      ctx.merged_view(merged, ModeGraph::Stage::kArcs);

  for (uint32_t pv : candidates) {
    const PinId pin(pv);
    if (merged_view->is_constant(pin)) continue;  // already dead in merged
    bool constant_everywhere = true;
    for (size_t m = 0; m < ctx.modes.size(); ++m) {
      if (!ctx.mode_graph(m).is_constant(pin)) {
        constant_everywhere = false;
        break;
      }
    }
    if (!constant_everywhere) continue;
    sdc::DisableTiming dt;
    dt.pin = pin;
    merged.disables().push_back(dt);
    ++result.stats.inferred_disables;
    result.note("inferred set_disable_timing on " +
                std::string(ctx.graph->design().pin_name(pin)) +
                " (constant in every individual mode)");
  }
}

void refine_clock_propagation(const RefineContext& ctx, MergeResult& result) {
  const TimingGraph& graph = *ctx.graph;
  Sdc& merged = *result.merged;
  const ClockMap& map = result.clock_map;

  // Clock sets are flat bit rows, as in data refinement's pass 0: row p
  // holds `words` 64-bit words, bit c set for merged clock c.
  const size_t words = (merged.num_clocks() + 63) / 64;
  if (words == 0) return;
  const size_t num_rows = graph.num_nodes();
  auto set_bit = [&](std::vector<uint64_t>& rows, size_t pin, size_t clock) {
    rows[pin * words + (clock >> 6)] |= uint64_t{1} << (clock & 63);
  };

  // allowed[pin] = merged clocks justified by >= 1 individual mode.
  std::vector<uint64_t> allowed(num_rows * words, 0);
  for (size_t m = 0; m < ctx.modes.size(); ++m) {
    const ModeGraph& mg = ctx.mode_graph(m);
    for (size_t p = 0; p < num_rows; ++p) {
      for (const timing::ClockArrival& ca : mg.clocks_on(PinId(p))) {
        const ClockId mc = map.merged_of(m, ca.clock);
        if (mc.valid()) set_bit(allowed, p, mc.index());
      }
    }
  }

  // Clocks the merged deck already stops at each pin (an invalid clock
  // stops all of them).
  std::vector<uint64_t> stopped(num_rows * words, 0);
  for (const sdc::ClockSenseStop& s : merged.clock_sense_stops()) {
    if (s.clock.valid()) {
      set_bit(stopped, s.pin.index(), s.clock.index());
    } else {
      std::fill_n(stopped.begin() + static_cast<std::ptrdiff_t>(
                                        s.pin.index() * words),
                  words, ~uint64_t{0});
    }
  }

  // Merged-mode view with the disables inferred so far: constants and arc
  // enables for the simulation, which runs its own clock propagation, so
  // the view's clock stage waits until data refinement asks for it.
  const std::shared_ptr<const ModeGraph> merged_view =
      ctx.merged_view(merged, ModeGraph::Stage::kArcs);

  // Simulate merged clock propagation with the allowed-check inline.
  // presence[pin] = merged clocks present; a clock reaching a pin where it
  // is not allowed becomes a -stop_propagation constraint at that pin
  // (frontier) and does not continue (matching our ModeGraph stop
  // semantics).
  std::vector<uint64_t> presence(num_rows * words, 0);
  std::vector<uint64_t> frontier(num_rows * words, 0);
  auto arrive = [&](size_t pin, size_t w, uint64_t bits) {
    const size_t i = pin * words + w;
    bits &= ~stopped[i];
    presence[i] |= bits & allowed[i];
    frontier[i] |= bits & ~allowed[i];
  };
  auto seed = [&](bool generated) {
    for (size_t ci = 0; ci < merged.num_clocks(); ++ci) {
      const sdc::Clock& clock = merged.clock(ClockId(ci));
      if (clock.is_generated != generated) continue;
      for (PinId src : clock.sources) {
        arrive(src.index(), ci >> 6, uint64_t{1} << (ci & 63));
      }
    }
  };
  auto run_pass = [&]() {
    for (PinId pin : graph.topo_order()) {
      const uint64_t* row = &presence[pin.index() * words];
      if (std::all_of(row, row + words, [](uint64_t w) { return w == 0; })) {
        continue;
      }
      if (merged_view->is_constant(pin)) continue;
      for (ArcId aid : graph.fanout(pin)) {
        if (!merged_view->arc_enabled(aid)) continue;
        const Arc& arc = graph.arc(aid);
        if (arc.kind == ArcKind::kLaunch) continue;
        for (size_t w = 0; w < words; ++w) {
          arrive(arc.to.index(), w, presence[pin.index() * words + w]);
        }
      }
    }
  };

  seed(/*generated=*/false);
  run_pass();
  bool any_generated = false;
  for (const sdc::Clock& clock : merged.clocks()) {
    any_generated = any_generated || clock.is_generated;
  }
  if (any_generated) {
    seed(/*generated=*/true);
    run_pass();
  }

  // Emit in (pin, clock) order: the merged deck's bytes depend on it.
  for (size_t i = 0; i < frontier.size(); ++i) {
    for (uint64_t bits = frontier[i]; bits != 0; bits &= bits - 1) {
      const PinId pin(static_cast<uint32_t>(i / words));
      const ClockId clock(static_cast<uint32_t>(
          (i % words) * 64 + static_cast<size_t>(__builtin_ctzll(bits))));
      sdc::ClockSenseStop stop;
      stop.pin = pin;
      stop.clock = clock;
      merged.clock_sense_stops().push_back(stop);
      ++result.stats.clock_stops_added;
      result.note("stop propagation of clock " + merged.clock(clock).name +
                  " at " + std::string(graph.design().pin_name(pin)));
    }
  }
}

}  // namespace

void refine_clock_network(const RefineContext& ctx, MergeResult& result,
                          const MergeOptions& options) {
  (void)options;
  MM_SPAN("merge/clock_refine");
  infer_disables(ctx, result);
  refine_clock_propagation(ctx, result);
  MM_COUNT("merge/inferred_disables", result.stats.inferred_disables);
  MM_COUNT("merge/clock_stops_added", result.stats.clock_stops_added);
}

}  // namespace mm::merge
