#pragma once
// Timing-relationship propagation — the engine behind both STA and the
// paper's 3-pass merged-mode refinement.
//
// A *tag* is (launch clock, exception progress, [startpoint]) plus an
// arrival window. Tags are seeded at active startpoints, flow forward
// through enabled arcs in topological order, advance exception progress at
// -through pins, and resolve to a PathState per (endpoint, capture clock).
//
// The result is the paper's timing-relationship table: for every key
// (endpoint [, startpoint], launch clock, capture clock) the set of
// PathStates over all covered paths, plus worst setup slack when arrivals
// are enabled.

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "timing/exceptions.h"
#include "timing/mode_graph.h"
#include "timing/path_state.h"

namespace mm::timing {

/// Interns exception-progress vectors; id 0 is always the all-inactive or
/// empty vector.
class ProgressTable {
 public:
  explicit ProgressTable(uint32_t width);

  uint32_t intern(const std::vector<uint8_t>& v);
  const std::vector<uint8_t>& get(uint32_t id) const { return table_[id]; }
  size_t size() const { return table_.size(); }

 private:
  struct VecHash {
    size_t operator()(const std::vector<uint8_t>& v) const noexcept;
  };
  std::deque<std::vector<uint8_t>> table_;
  std::unordered_map<std::vector<uint8_t>, uint32_t, VecHash> ids_;
};

struct Tag {
  ClockId launch;           // invalid = unclocked (plain input delay)
  uint32_t progress = 0;    // ProgressTable id
  PinId startpoint;         // tracked only when options.track_startpoints
  float amin = 0.0f;        // earliest arrival at this pin
  float amax = 0.0f;        // latest arrival at this pin
};

struct RelationKey {
  PinId endpoint;
  PinId startpoint;  // invalid in endpoint-level (pass 1) analyses
  ClockId launch;
  ClockId capture;

  friend bool operator==(const RelationKey&, const RelationKey&) = default;
};

struct RelationKeyHash {
  /// splitmix64 finalizer: full-width 64-bit avalanche, so ids that differ
  /// in any field scatter across all size_t bits. (The previous 1000003u
  /// multiply-xor mixed only the low bits and collided whole id ranges
  /// into shared buckets on dense pin/clock ids.)
  static constexpr uint64_t mix(uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  size_t operator()(const RelationKey& k) const noexcept {
    const uint64_t pins = (static_cast<uint64_t>(k.endpoint.value()) << 32) |
                          k.startpoint.value();
    const uint64_t clocks = (static_cast<uint64_t>(k.launch.value()) << 32) |
                            k.capture.value();
    return static_cast<size_t>(mix(mix(pins) ^ clocks));
  }
};

/// Sorted, deduplicated set of PathStates (the "Individual mode state" /
/// "Merged mode state" columns of the paper's Tables 2-4).
struct StateSet {
  std::vector<PathState> states;

  void insert(const PathState& s);
  bool contains(const PathState& s) const;
  bool contains_kind(StateKind k) const;
  /// Only false-path / disabled states (nothing timed).
  bool all_untimed() const;
  /// Any timed state (valid / MCP / min / max).
  bool any_timed() const;
  bool singleton() const { return states.size() == 1; }
  void merge(const StateSet& o);
  std::string str() const;

  friend bool operator==(const StateSet&, const StateSet&) = default;
};

struct RelationData {
  StateSet states;              // setup-side states
  StateSet hold_states;         // hold-side states (when analyze_hold)
  float worst_slack = 1e30f;    // setup slack over timed paths (if arrivals on)
  float worst_hold_slack = 1e30f;
  float worst_arrival = -1e30f;
  ClockId worst_capture;  // capture clock of the worst setup slack
};

using RelationMap = std::unordered_map<RelationKey, RelationData, RelationKeyHash>;

struct PropagationOptions {
  bool track_startpoints = false;
  bool compute_arrivals = true;
  /// Restrict propagation to pins with filter[pin] != 0 (e.g. a fan-in cone).
  const std::vector<uint8_t>* pin_filter = nullptr;
  /// Restrict seeding to these startpoints (nullptr = all active).
  const std::vector<PinId>* startpoints = nullptr;
  /// Cap on tags per pin; 0 = unlimited. When hit, extra tags are dropped
  /// pessimistically-unsafe, so the engine records an overflow flag instead
  /// of silently mistiming — callers must check tag_overflow().
  size_t max_tags_per_pin = 0;
  /// Per-arc delays from a delay-calculation run (timing/delay_calc.h).
  /// nullptr falls back to the zero-slew closed-form model.
  const std::vector<double>* arc_delays = nullptr;
  /// Early (min) per-arc delays for the hold side's amin accumulation;
  /// nullptr uses `arc_delays` (no early/late split).
  const std::vector<double>* arc_delays_min = nullptr;
  /// Also resolve hold-side states (and hold slacks when arrivals are on).
  bool analyze_hold = false;
};

class Propagator {
 public:
  Propagator(const ModeGraph& mode, const CompiledExceptions& exceptions);

  void run(const PropagationOptions& options = {});

  const RelationMap& relations() const { return relations_; }
  /// Move the relation table out (the propagator is spent afterwards).
  RelationMap release_relations() { return std::move(relations_); }
  /// Tags on every pin after run() (indexed by pin).
  const std::vector<std::vector<Tag>>& tags() const { return tags_; }
  const ProgressTable& progress_table() const { return progress_; }
  bool tag_overflow() const { return tag_overflow_; }

  /// Worst setup slack per endpoint over all keys (endpoint -> slack);
  /// endpoints with no timed relation are absent.
  std::unordered_map<uint32_t, float> worst_slack_by_endpoint() const;
  /// Worst hold slack per endpoint (requires analyze_hold).
  std::unordered_map<uint32_t, float> worst_hold_slack_by_endpoint() const;

  /// Compute the fan-in cone (as a pin mask) of the given endpoints over
  /// enabled arcs — used to restrict pass-2 propagation.
  static std::vector<uint8_t> fanin_cone(const ModeGraph& mode,
                                         const std::vector<PinId>& from_pins);

 private:
  void seed(const PropagationOptions& options);
  void seed_startpoint(PinId sp, const PropagationOptions& options);
  void insert_tag(PinId pin, ClockId launch, uint32_t progress_pre,
                  PinId startpoint, float amin, float amax, bool advance,
                  size_t max_tags);
  void resolve_endpoint(PinId endpoint, const PropagationOptions& options);
  double setup_relation(ClockId launch, ClockId capture, double mcp_mult) const;
  double hold_relation(ClockId launch, ClockId capture, double mcp_shift) const;

  const ModeGraph* mode_;
  const CompiledExceptions* exceptions_;
  ProgressTable progress_;
  std::vector<std::vector<Tag>> tags_;
  RelationMap relations_;
  bool tag_overflow_ = false;
};

}  // namespace mm::timing
