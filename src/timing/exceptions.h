#pragma once
// Exception compilation: turn an Sdc's set_false_path / set_multicycle_path
// / set_min_delay / set_max_delay list into match machinery for tag
// propagation.
//
// Matching model (documented in DESIGN.md): an exception
//   -from F -through T1 .. -through Tk -to T
// matches a path iff the path's startpoint/launch-clock satisfies F, the
// path passes a pin of T1, then later a pin of T2, ..., and its
// endpoint/capture-clock satisfies T. A -from / -to anchor set is a union of
// pins and clocks.
//
// Exceptions that depend on the specific startpoint or on intermediate pins
// ("tracked": from-pins or throughs present) carry a progress counter in
// each propagated tag; exceptions resolvable from (launch clock, endpoint,
// capture clock) alone are evaluated directly at the endpoint.

#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sdc/sdc.h"
#include "timing/graph.h"
#include "timing/path_state.h"
#include "timing/pin_runs.h"

namespace mm::timing {

using sdc::ClockId;
using sdc::ExceptionKind;
using sdc::Sdc;

/// Progress value for "this exception can no longer match the path".
inline constexpr uint8_t kExcInactive = 0xFF;

struct CompiledException {
  ExceptionKind kind = ExceptionKind::kFalsePath;
  double value = 0.0;
  bool setup = true;
  bool hold = true;
  uint32_t source_index = 0;  // position in Sdc::exceptions()
  int spec_score = 0;         // -from:4 + -to:2 + -through:1 (tie-breaking)

  bool has_from = false;
  std::unordered_set<uint32_t> from_pins;  // canonical startpoint pins
  std::vector<ClockId> from_clocks;

  std::vector<std::unordered_set<uint32_t>> throughs;

  bool has_to = false;
  std::unordered_set<uint32_t> to_pins;  // canonical endpoint pins
  std::vector<ClockId> to_clocks;

  /// Tracked == needs per-tag progress (startpoint pins or through sets).
  bool tracked = false;
  uint32_t track_slot = UINT32_MAX;  // index into tag progress vectors

  uint8_t num_throughs() const { return static_cast<uint8_t>(throughs.size()); }

  bool from_clock_matches(ClockId launch) const {
    for (ClockId c : from_clocks)
      if (c == launch) return true;
    return false;
  }
  bool to_matches(PinId endpoint, ClockId capture) const {
    if (!has_to) return true;
    if (to_pins.count(endpoint.value())) return true;
    for (ClockId c : to_clocks)
      if (c == capture) return true;
    return false;
  }

  PathState state() const {
    switch (kind) {
      case ExceptionKind::kFalsePath: return PathState::false_path();
      case ExceptionKind::kMulticyclePath: return PathState::mcp(value);
      case ExceptionKind::kMinDelay: return PathState::min_delay(value);
      case ExceptionKind::kMaxDelay: return PathState::max_delay(value);
    }
    return PathState::valid();
  }
};

class CompiledExceptions {
 public:
  CompiledExceptions(const TimingGraph& graph, const Sdc& sdc);

  size_t size() const { return exceptions_.size(); }
  const CompiledException& at(size_t i) const { return exceptions_[i]; }
  const std::vector<CompiledException>& all() const { return exceptions_; }

  /// Number of tracked exceptions == width of tag progress vectors.
  uint32_t num_tracked() const { return num_tracked_; }

  /// (exception index, through-set index) pairs to check when a tag enters
  /// `pin`, in exception order; the span lives as long as this object.
  std::span<const std::pair<uint32_t, uint8_t>> throughs_at(PinId pin) const {
    return throughs_.at(pin.value());
  }

  /// Initial progress vector for a path starting at `startpoint` with
  /// launch clock `launch` (already advanced through sets containing the
  /// startpoint itself).
  std::vector<uint8_t> initial_progress(PinId startpoint, ClockId launch) const;
  /// The same, written into `progress` (reusing its capacity).
  void initial_progress(PinId startpoint, ClockId launch,
                        std::vector<uint8_t>& progress) const;

  /// Advance `progress` in place for a tag entering `pin`. Returns true if
  /// anything changed.
  bool advance(std::vector<uint8_t>& progress, PinId pin) const;

  /// Resolve the PathState at an endpoint for a tag with the given progress
  /// vector (may be empty if num_tracked()==0), launch/capture clocks, and
  /// analysis side (setup or hold).
  PathState resolve(const std::vector<uint8_t>& progress, ClockId launch,
                    PinId endpoint, ClockId capture, bool setup_side) const;


 private:
  void compile(const TimingGraph& graph, const Sdc& sdc);

  std::vector<CompiledException> exceptions_;
  /// throughs_at; holds nothing when no exception has a -through.
  PinRuns<std::pair<uint32_t, uint8_t>> throughs_;
  uint32_t num_tracked_ = 0;
};

}  // namespace mm::timing
