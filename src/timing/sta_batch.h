#pragma once
// Level-parallel, multi-mode-batched timing propagation — the STA substrate
// behind clique validation and multi-mode analysis.
//
// A BatchPropagator runs the same tag semantics as timing::Propagator
// (relationships.h) for N modes ("lanes") of one TimingGraph in a single
// levelized graph walk instead of N independent topological sweeps:
//
//   - The graph's level buckets (TimingGraph::levels()) are processed in
//     order; within a level, node batches fan out over a util::ThreadPool.
//     Every node's tag slot is written only by the worker that owns the
//     node and read only from strictly lower levels, so results are
//     byte-identical for any thread count (own-slot writes, deterministic
//     level order).
//   - Tags are *pull*-based: a node merges the tags of its fan-in arcs'
//     sources, which are settled by the level barrier. Per-lane tag
//     content, dedup (min/max arrival window merge per key) and endpoint
//     resolution match the serial engine exactly.
//   - Tags carry a lane *mask*: modes of one mergeable clique are similar
//     by construction, so the same (launch clock, exception progress,
//     startpoint, arrival window) tag usually flows through many lanes at
//     once. One shared tag + a 128-bit mask replaces up to 128 per-mode
//     tags — the batched walk's work scales with the number of *distinct*
//     tag groups, not with the lane count. Masks split automatically where
//     lanes diverge (disabled arcs, different delays or windows).
//   - Lanes are partitioned into *exception classes*: lanes whose tracked
//     -from/-through machinery (CompiledExceptions) is content-identical
//     share one exception-progress table and may share tags; lanes in
//     different classes never share a mask (a progress id is only
//     meaningful within its class's table).
//   - Per-endpoint worst setup/hold slack and latest arrival live in flat
//     structure-of-arrays vectors indexed [endpoint * num_lanes + lane]
//     (the "timing lanes"), replacing the per-mode endpoint->slack maps.
//   - In the validation configuration (state sets only, no arrivals) lanes
//     are further grouped into *resolution blocks*: lanes with identical
//     exception lists, clock-exclusivity relations and active endpoints
//     share one endpoint sweep and one physical relation map, splitting
//     copy-on-write wherever their tags or capture clocks diverge. A clique
//     of near-identical modes resolves once, not once per mode.
//
// The serial single-mode engine stays the byte-parity reference: callers
// keep it behind MergeOptions::use_batched_sta. See docs/STA.md for the
// full substrate guide.

#include <memory>
#include <mutex>
#include <vector>

#include "timing/relationships.h"
#include "util/thread_pool.h"

namespace mm::timing {

/// One mode's view of the shared graph inside a batch. `mode` and
/// `exceptions` must outlive the propagator; `arc_delays`/`arc_delays_min`
/// are optional per-arc delay vectors from a delay-calculation run (nullptr
/// = the zero-slew closed-form model, shared across lanes).
struct StaLane {
  const ModeGraph* mode = nullptr;
  const CompiledExceptions* exceptions = nullptr;
  const std::vector<double>* arc_delays = nullptr;
  const std::vector<double>* arc_delays_min = nullptr;
};

/// Fixed-width lane set; one batch handles at most kMaxBatchLanes lanes
/// (callers chunk larger mode sets).
struct LaneMask {
  static constexpr size_t kWords = 2;
  uint64_t w[kWords] = {0, 0};

  void set(size_t i) { w[i >> 6] |= uint64_t{1} << (i & 63); }
  void clear(size_t i) { w[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  bool test(size_t i) const { return (w[i >> 6] >> (i & 63)) & 1; }
  bool any() const { return (w[0] | w[1]) != 0; }
  size_t count() const {
    return static_cast<size_t>(__builtin_popcountll(w[0]) +
                               __builtin_popcountll(w[1]));
  }
  LaneMask operator&(const LaneMask& o) const {
    return {{w[0] & o.w[0], w[1] & o.w[1]}};
  }
  LaneMask& operator&=(const LaneMask& o) {
    w[0] &= o.w[0];
    w[1] &= o.w[1];
    return *this;
  }
  LaneMask& operator|=(const LaneMask& o) {
    w[0] |= o.w[0];
    w[1] |= o.w[1];
    return *this;
  }
  LaneMask operator~() const { return {{~w[0], ~w[1]}}; }
  friend bool operator==(const LaneMask&, const LaneMask&) = default;
};

inline constexpr size_t kMaxBatchLanes = 64 * LaneMask::kWords;

struct BatchOptions {
  /// Track startpoints in tag/relation keys (pass-2-style granularity).
  bool track_startpoints = false;
  /// Compute arrival windows into slacks at endpoints (STA); off for
  /// pure state-set comparison (equivalence validation).
  bool compute_arrivals = true;
  /// Also resolve hold-side states (and hold slacks when arrivals are on).
  bool analyze_hold = false;
  /// Pool to fan level batches and per-lane resolution over; nullptr runs
  /// everything on the calling thread.
  ThreadPool* pool = nullptr;
  /// Minimum nodes per task inside a level (queue-round-trip amortization,
  /// same idiom as the mergeability pair sweep).
  size_t min_grain = 64;
};

class BatchPropagator {
 public:
  /// `lanes.size()` must be in [1, kMaxBatchLanes]. The graph must be the
  /// one every lane's ModeGraph was built from.
  BatchPropagator(const TimingGraph& graph, std::vector<StaLane> lanes);
  ~BatchPropagator();

  BatchPropagator(const BatchPropagator&) = delete;
  BatchPropagator& operator=(const BatchPropagator&) = delete;

  void run(const BatchOptions& options = {});

  size_t num_lanes() const { return lanes_.size(); }
  /// Distinct exception classes the lanes were partitioned into.
  size_t num_classes() const { return classes_.size(); }

  /// Per-lane relation table (content-identical to a serial Propagator run
  /// of that lane's mode under the same options). In the validation
  /// configuration (no arrivals, no startpoint tracking) lanes that proved
  /// resolution-equivalent share one physical map — see
  /// num_resolution_blocks().
  const RelationMap& relations(size_t lane) const {
    return results_[lane_result_[lane]];
  }

  /// Number of distinct relation tables actually materialized. Lanes whose
  /// exception lists, clock-exclusivity relations, active endpoints,
  /// capture-clock sets and endpoint tags all match produce byte-identical
  /// relation maps, so the resolver builds one map per such *resolution
  /// block* instead of one per lane (== num_lanes() outside the validation
  /// configuration, where per-lane slack output forces per-lane maps).
  size_t num_resolution_blocks() const { return results_.size(); }

  // --- SoA timing lanes ------------------------------------------------
  // Flat [endpoint_index * num_lanes + lane] vectors over
  // graph.endpoints(); kNoSlack / kNoArrival where the lane times nothing
  // at that endpoint. Filled when options.compute_arrivals.

  static constexpr float kNoSlack = 1e30f;
  static constexpr float kNoArrival = -1e30f;

  const std::vector<float>& slack_lanes() const { return slack_; }
  const std::vector<float>& hold_slack_lanes() const { return hold_slack_; }
  const std::vector<float>& arrival_lanes() const { return arrival_; }

  /// Worst setup slack of `lane` at the i-th structural endpoint
  /// (graph.endpoints()[i]).
  float slack_at(size_t endpoint_index, size_t lane) const {
    return slack_[endpoint_index * lanes_.size() + lane];
  }

  /// Per-lane worst-slack map in the serial StaResult format (endpoint pin
  /// id -> slack), for drop-in comparison with run_sta.
  std::unordered_map<uint32_t, float> worst_slack_by_endpoint(size_t lane) const;
  std::unordered_map<uint32_t, float> worst_hold_slack_by_endpoint(
      size_t lane) const;

  /// Total tag-group entries vs the per-lane tag total they stand for —
  /// the sharing factor the batched walk wins by.
  size_t shared_tag_groups() const { return stat_groups_; }
  size_t lane_tag_total() const { return stat_lane_tags_; }

 private:
  struct BTag {
    sdc::ClockId launch;
    PinId startpoint;
    uint32_t progress = 0;  // id in the tag's class's progress table
    uint16_t cls = 0;
    float amin = 0.0f;
    float amax = 0.0f;
    LaneMask mask;
  };

  struct ExceptionClass {
    const CompiledExceptions* rep = nullptr;  // representative lane's machinery
    uint32_t num_tracked = 0;
    std::unique_ptr<ProgressTable> table;
    std::mutex mutex;  // guards table during the parallel walk
  };

  /// One delay bucket of an arc: the enabled lanes whose (late, early)
  /// delays on this arc are bit-identical. Most arcs have exactly one
  /// bucket (closed-form delays are lane-independent; per-lane delay
  /// vectors of similar modes mostly agree), so a tag crosses the arc in
  /// one masked insert instead of one per lane.
  struct ArcGroup {
    LaneMask mask;
    double delay = 0.0;
    double delay_min = 0.0;
  };

  void build_classes();
  void build_arc_groups();
  void seed_lane(size_t lane, const BatchOptions& options);
  void pull_node(PinId node);
  uint32_t advance_progress(uint16_t cls, uint32_t progress, PinId node);
  void insert(std::vector<BTag>& slot, uint16_t cls, sdc::ClockId launch,
              PinId startpoint, uint32_t progress, float amin, float amax,
              LaneMask mask);
  void resolve_lane(size_t lane, const BatchOptions& options);
  void resolve_shared(const BatchOptions& options);
  void fill_soa_lanes(const BatchOptions& options);

  const TimingGraph* graph_;
  std::vector<StaLane> lanes_;
  std::vector<uint16_t> lane_class_;
  std::vector<std::unique_ptr<ExceptionClass>> classes_;
  std::vector<ArcGroup> arc_groups_;      // delay buckets, flat by arc
  std::vector<uint32_t> arc_group_begin_; // num_arcs + 1 offsets into above
  std::vector<std::vector<BTag>> slots_;  // per-node shared tag groups
  std::vector<RelationMap> results_;      // one per resolution block
  std::vector<uint32_t> lane_result_;     // lane -> index into results_
  std::vector<float> slack_;
  std::vector<float> hold_slack_;
  std::vector<float> arrival_;
  bool track_startpoints_ = false;
  bool ran_ = false;
  size_t stat_groups_ = 0;
  size_t stat_lane_tags_ = 0;
};

}  // namespace mm::timing
